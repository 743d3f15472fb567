"""Pickle-free snapshots: versioned state dicts for every sketch.

``snapshot(sketch)`` walks the object graph rooted at a structure and
returns a plain, versioned payload — nested dicts/lists of Python
scalars plus ``numpy`` arrays — and ``restore(payload)`` rebuilds the
structure so that *continuing* ingestion produces bit-identical state
to never having snapshotted at all.  This is the persistence half of
the public facade (:mod:`repro.api.session` snapshots whole sessions
with one call); unlike ``pickle`` the payload contains no executable
opcodes and only reconstructs classes from this package.

What the payload may contain (and nothing else):

* ``None`` / ``bool`` / ``int`` / ``float`` / ``str``;
* ``numpy`` arrays (copied — snapshots never alias live state) and
  numpy scalars, tagged with their dtype so restoration is bit-exact;
* containers (``list`` / ``tuple`` / ``set`` / ``frozenset`` /
  ``dict``), encoded structurally;
* ``numpy.random.Generator`` — bit-generator name + state (and the
  seed sequence, so post-restore ``spawn()`` calls keep working);
* ``repro.*`` objects — class path plus their attribute dict, with
  shared references and cycles preserved through a memo (two sketches
  sharing one hash-function list share it again after restore, which
  the merge paths rely on).

The format is versioned (:data:`FORMAT_VERSION`); payloads from a
different major format are refused rather than misread.

>>> import numpy as np
>>> from repro.sketches.countmin import CountMin
>>> cm = CountMin(16, 8, 2, np.random.default_rng(0))
>>> cm.update(3, 5)
>>> clone = restore(snapshot(cm))
>>> clone.query(3) == cm.query(3) == 5
True
"""

from __future__ import annotations

import importlib
from typing import Any

import numpy as np

#: Payload format version.  Bump on incompatible layout changes; the
#: decoder refuses payloads whose version it does not understand.
FORMAT_VERSION = 1

#: Only classes under these module prefixes are reconstructed — a
#: payload cannot name arbitrary importable classes (the reason this
#: exists instead of pickle).
_ALLOWED_MODULE_PREFIXES = ("repro.",)

_TAG = "~t"


def _is_repro_object(obj: Any) -> bool:
    module = type(obj).__module__ or ""
    return module.startswith(_ALLOWED_MODULE_PREFIXES)


def _object_state(obj: Any) -> dict:
    """The attribute dict of an object, covering ``__dict__`` and any
    ``__slots__`` along the MRO (slot attrs may be unset)."""
    state: dict[str, Any] = {}
    if hasattr(obj, "__dict__"):
        state.update(obj.__dict__)
    for klass in type(obj).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            if slot in ("__dict__", "__weakref__") or slot in state:
                continue
            try:
                state[slot] = getattr(obj, slot)
            except AttributeError:
                pass  # unset slot: simply absent from the snapshot
    return state


class _Encoder:
    def __init__(self) -> None:
        self._memo: dict[int, int] = {}
        self._keepalive: list[Any] = []  # ids stay unique while encoding

    def _memoize(self, obj: Any) -> tuple[int | None, int]:
        """Existing ref (or None) and this object's assigned id.

        Mutable containers, arrays, generators, and repro objects are
        all memoized so shared references decode back to *one* shared
        object — merge paths and mutation-through-shared-container
        semantics survive the round trip."""
        key = id(obj)
        if key in self._memo:
            return self._memo[key], self._memo[key]
        ref = len(self._memo)
        self._memo[key] = ref
        self._keepalive.append(obj)
        return None, ref

    def encode(self, obj: Any) -> Any:
        if obj is None or isinstance(obj, (bool, int, float, str)):
            return obj
        if isinstance(obj, np.ndarray):
            seen, ref = self._memoize(obj)
            if seen is not None:
                return {_TAG: "ref", "id": seen}
            return {_TAG: "ndarray", "id": ref, "dtype": str(obj.dtype),
                    "data": obj.copy()}
        if isinstance(obj, np.generic):  # numpy scalar
            return {_TAG: "npscalar", "dtype": str(obj.dtype),
                    "v": obj.item()}
        if isinstance(obj, (list, dict, set)):
            seen, ref = self._memoize(obj)
            if seen is not None:
                return {_TAG: "ref", "id": seen}
            if isinstance(obj, list):
                return {_TAG: "list", "id": ref,
                        "v": [self.encode(x) for x in obj]}
            if isinstance(obj, set):
                return {_TAG: "set", "id": ref,
                        "v": [self.encode(x) for x in obj]}
            return {_TAG: "dict", "id": ref,
                    "v": [[self.encode(k), self.encode(v)]
                          for k, v in obj.items()]}
        if isinstance(obj, tuple):
            return {_TAG: "tuple", "v": [self.encode(x) for x in obj]}
        if isinstance(obj, frozenset):
            return {_TAG: "frozenset", "v": [self.encode(x) for x in obj]}
        if isinstance(obj, np.random.Generator):
            seen, ref = self._memoize(obj)
            if seen is not None:  # shared generators stay shared
                return {_TAG: "ref", "id": seen}
            node = self._encode_rng(obj)
            node["id"] = ref
            return node
        if _is_repro_object(obj):
            return self._encode_object(obj)
        raise TypeError(
            f"cannot snapshot {type(obj).__module__}.{type(obj).__qualname__}"
            " (not a scalar, array, container, Generator, or repro object)"
        )

    def _encode_rng(self, gen: np.random.Generator) -> dict:
        bg = gen.bit_generator
        out = {_TAG: "rng", "bit_generator": type(bg).__name__,
               "state": self.encode(bg.state)}
        seed_seq = getattr(bg, "seed_seq", None)
        if isinstance(seed_seq, np.random.SeedSequence):
            out["seed_seq"] = {
                "entropy": self.encode(seed_seq.entropy),
                "spawn_key": self.encode(list(seed_seq.spawn_key)),
                "pool_size": int(seed_seq.pool_size),
                "n_children_spawned": int(seed_seq.n_children_spawned),
            }
        return out

    def _encode_object(self, obj: Any) -> dict:
        seen, ref = self._memoize(obj)
        if seen is not None:
            return {_TAG: "ref", "id": seen}
        cls = type(obj)
        return {
            _TAG: "obj",
            "id": ref,
            "cls": f"{cls.__module__}:{cls.__qualname__}",
            "state": {name: self.encode(value)
                      for name, value in _object_state(obj).items()},
        }


class _Decoder:
    def __init__(self) -> None:
        self._memo: dict[int, Any] = {}

    def _register(self, node: dict, obj: Any) -> None:
        if "id" in node:
            self._memo[node["id"]] = obj

    def decode(self, node: Any) -> Any:
        if node is None or isinstance(node, (bool, int, float, str)):
            return node
        if isinstance(node, dict):
            try:
                return self._decode_node(node)
            except KeyError as exc:
                # A node missing one of its own fields: refused like
                # every other malformed payload, naming what is missing.
                raise ValueError(
                    f"snapshot {node.get(_TAG)!r} node lacks its "
                    f"{exc.args[0]!r} field"
                ) from None
        if isinstance(node, np.ndarray):  # bare array (inside "data")
            return node
        raise ValueError(f"malformed snapshot node of type {type(node)}")

    def _decode_node(self, node: dict) -> Any:
        kind = node.get(_TAG)
        if kind == "ndarray":
            out = np.asarray(node["data"], dtype=node["dtype"]).copy()
            self._register(node, out)
            return out
        if kind == "npscalar":
            return np.dtype(node["dtype"]).type(node["v"])
        if kind == "list":
            # Containers register before their children decode so
            # shared references (and cycles through them) resolve
            # to the same object.
            out: list = []
            self._register(node, out)
            out.extend(self.decode(x) for x in node["v"])
            return out
        if kind == "tuple":
            return tuple(self.decode(x) for x in node["v"])
        if kind == "set":
            out = set()
            self._register(node, out)
            out.update(self.decode(x) for x in node["v"])
            return out
        if kind == "frozenset":
            return frozenset(self.decode(x) for x in node["v"])
        if kind == "dict":
            out = {}
            self._register(node, out)
            for k, v in node["v"]:
                out[self.decode(k)] = self.decode(v)
            return out
        if kind == "rng":
            return self._decode_rng(node)
        if kind == "obj":
            return self._decode_object(node)
        if kind == "ref":
            if node["id"] not in self._memo:
                raise ValueError(
                    f"snapshot refers to object id {node['id']!r}, "
                    "which it never defines"
                )
            return self._memo[node["id"]]
        raise ValueError(f"unknown snapshot node tag {kind!r}")

    def _decode_rng(self, node: dict) -> np.random.Generator:
        name = node["bit_generator"]
        bg_cls = getattr(np.random, name, None)
        if bg_cls is None or not isinstance(bg_cls, type) or not issubclass(
            bg_cls, np.random.BitGenerator
        ):
            raise ValueError(f"unknown bit generator {name!r}")
        seed_info = node.get("seed_seq")
        if seed_info is not None:
            seed_seq = np.random.SeedSequence(
                entropy=self.decode(seed_info["entropy"]),
                spawn_key=tuple(self.decode(seed_info["spawn_key"])),
                pool_size=int(seed_info["pool_size"]),
            )
            # Replay the spawn count (the attribute is read-only) so
            # post-restore spawn() streams are identical to never
            # having snapshotted.
            spawned = int(seed_info["n_children_spawned"])
            if spawned:
                seed_seq.spawn(spawned)
            bit_gen = bg_cls(seed_seq)
        else:
            bit_gen = bg_cls()
        bit_gen.state = self.decode(node["state"])
        # repro: allow[rng-discipline] -- restore path: the Generator is
        # rebuilt around the snapshotted bit-generator state, no new
        # entropy is introduced
        gen = np.random.Generator(bit_gen)
        if "id" in node:
            self._memo[node["id"]] = gen
        return gen

    def _decode_object(self, node: dict) -> Any:
        module_name, _, qualname = node["cls"].partition(":")
        if not module_name.startswith(_ALLOWED_MODULE_PREFIXES):
            raise ValueError(
                f"snapshot names class {node['cls']!r} outside the "
                "allowed repro.* namespace"
            )
        target: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            target = getattr(target, part)
        # The module prefix check above covers only the payload string;
        # a qualname could traverse module attributes (re-exported
        # numpy, importlib, ...) to reach a foreign class.  The
        # *resolved* class must itself live in the allowed namespace.
        if not (
            isinstance(target, type)
            and (target.__module__ or "").startswith(
                _ALLOWED_MODULE_PREFIXES
            )
        ):
            raise ValueError(
                f"snapshot resolves {node['cls']!r} to "
                f"{target!r}, which is not a repro.* class"
            )
        obj = target.__new__(target)
        # Register before decoding children: cycles and shared
        # references resolve to this very instance.
        self._memo[node["id"]] = obj
        for name, value in node["state"].items():
            object.__setattr__(obj, name, self.decode(value))
        return obj


def snapshot(obj: Any) -> dict:
    """Encode ``obj`` (a sketch, or any container of sketches) into a
    versioned, pickle-free state payload.

    >>> snapshot({"answer": 42})["format"]
    1
    """
    return {"format": FORMAT_VERSION, "root": _Encoder().encode(obj)}


def payload_equal(a: Any, b: Any) -> bool:
    """Structural equality of two snapshot payloads.

    Arrays compare bitwise (dtype and shape included), everything else
    by value; dicts compare as mappings.  The encoder's walk is
    deterministic, so two snapshots of the *same lineage* (e.g. a
    payload before and after an npz round trip, or two clones restored
    from equal payloads and fed identical updates) compare equal
    exactly when the states match bit-for-bit.  Payloads of
    independently built sessions may order dict entries differently and
    are outside this predicate's contract — compare the live objects
    instead.

    >>> payload_equal(snapshot({"x": 1}), snapshot({"x": 1}))
    True
    >>> payload_equal(snapshot({"x": 1.0}), snapshot({"x": 1}))
    False
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
        ):
            return False
        if a.dtype.hasobject:
            # Object arrays hold arbitrary-precision ints: value
            # equality IS bit equality (tobytes would compare
            # pointers).
            return bool(np.array_equal(a, b))
        # tobytes, not array_equal: NaNs that round-trip bit-exactly
        # must compare equal, and -0.0 vs 0.0 must not.
        return a.tobytes() == b.tobytes()
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return set(a) == set(b) and all(
            payload_equal(v, b[k]) for k, v in a.items()
        )
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(
            payload_equal(x, y) for x, y in zip(a, b)
        )
    return bool(a == b)


def restore(payload: dict) -> Any:
    """Rebuild the object graph encoded by :func:`snapshot`.

    >>> restore(snapshot((1, 2.5, "x")))
    (1, 2.5, 'x')
    """
    version = payload.get("format")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported snapshot format {version!r} "
            f"(this build reads format {FORMAT_VERSION})"
        )
    return _Decoder().decode(payload["root"])
