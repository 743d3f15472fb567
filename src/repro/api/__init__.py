"""repro.api — the public facade: registry, sessions, snapshots.

One import point for driving the whole stack without touching
individual constructors:

* :mod:`repro.api.registry` — :class:`Params`, :class:`SketchSpec`,
  the ``name -> factory`` registry (:func:`get_spec` / :func:`specs` /
  :func:`build`), and the root-seed RNG policy (:func:`rng_for`);
* :mod:`repro.api.session` — :class:`StreamSession`: push-based
  ingestion, shared chunk plans across consumers, uniform ``query``,
  ``merge`` across sessions, and whole-session snapshots;
* :mod:`repro.api.serialize` — pickle-free, versioned state-dict
  :func:`snapshot` / :func:`restore` for every structure;
* :mod:`repro.api.checkpoint` — durable sessions: the ``.npz``
  checkpoint store with retention, the periodic :class:`Checkpointer`,
  crash :func:`recover`, and snapshot shipping
  (:func:`export_snapshot` / :func:`import_and_merge`).

>>> from repro.api import Params, StreamSession
>>> session = StreamSession(n=128, seed=5).track("l1_strict", alpha=2.0)
>>> _ = session.push([1, 2, 1], [1, 1, 1])
>>> session.query("l1_strict") >= 0
True
"""

from repro.api.registry import (
    Params,
    SketchSpec,
    build,
    get_spec,
    rng_for,
    specs,
)
from repro.api.serialize import (
    FORMAT_VERSION,
    payload_equal,
    restore,
    snapshot,
)
from repro.api.session import StreamSession
from repro.api.checkpoint import (
    Checkpointer,
    CheckpointStore,
    export_snapshot,
    import_and_merge,
    import_session,
    recover,
)

__all__ = [
    "Checkpointer",
    "CheckpointStore",
    "Params",
    "SketchSpec",
    "StreamSession",
    "FORMAT_VERSION",
    "build",
    "export_snapshot",
    "get_spec",
    "import_and_merge",
    "import_session",
    "payload_equal",
    "recover",
    "restore",
    "rng_for",
    "snapshot",
    "specs",
]
