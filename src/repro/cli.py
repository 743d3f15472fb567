"""Command-line interface: run the paper's algorithms on synthetic or
saved workloads without writing code.

Usage (after ``pip install -e .``)::

    python -m repro.cli describe --workload zipf --n 4096 --m 20000 --alpha 4
    python -m repro.cli heavy-hitters --eps 0.0625 --workload zipf --alpha 4
    python -m repro.cli l1 --workload zipf --alpha 4 --m 50000
    python -m repro.cli l0 --workload sensor --n 65536
    python -m repro.cli support --workload sensor --k 10
    python -m repro.cli generate --workload traffic --out /tmp/stream.npz
    python -m repro.cli l1 --stream /tmp/stream.npz --alpha 8
    python -m repro.cli serve --port 8321 --session edge --track countmin

Every estimator subcommand is generated from the sketch-spec registry
(:mod:`repro.api.registry`): the spec supplies the factory (root-seed →
per-structure RNG policy) and the uniform query hook; the subcommand
table below only picks the spec for the workload (e.g. strict vs
general turnstile) and formats the report.  The shared engine flag
``--chunk-size`` (a pure throughput knob) is registry-level: every
estimator subcommand gets it from one helper.  The update backend is
chosen by ``REPRO_KERNELS`` alone (see :mod:`repro.kernels`; ``repro
kernels`` reports it).  Workload flags are range-checked at parse time:
a bad value exits with status 2 and a usage line, not a traceback.

``--checkpoint-dir DIR`` makes an estimator run durable: the replay
goes through a :class:`~repro.api.session.StreamSession` checkpointed
every ``--checkpoint-every`` updates (keep-last ``--checkpoint-keep``),
and a rerun of the *same* command against the same directory recovers
the newest checkpoint and resumes from its watermark instead of
starting over — with final estimates identical to an uninterrupted run
(the batch contract makes checkpoint boundaries unobservable).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from typing import Callable

from repro.api.registry import Params, build, get_spec
from repro.streams.alpha import is_strict_turnstile, l0_alpha, l1_alpha
from repro.streams.generators import (
    bounded_deletion_stream,
    describe_stream,
    rdc_sync_stream,
    sensor_occupancy_stream,
    traffic_difference_stream,
)
from repro.streams.engine import DEFAULT_CHUNK_SIZE, replay
from repro.streams.io import load_stream
from repro.streams.model import Stream


def _build_workload(args: argparse.Namespace) -> Stream:
    if args.stream:
        return load_stream(args.stream)
    if args.workload == "zipf":
        return bounded_deletion_stream(
            args.n, args.m, alpha=args.alpha, seed=args.seed
        )
    if args.workload == "traffic":
        return traffic_difference_stream(
            args.n, flows=max(10, args.m // 80), seed=args.seed
        )
    if args.workload == "rdc":
        return rdc_sync_stream(args.n, blocks=max(10, args.m // 2),
                               seed=args.seed)
    if args.workload == "sensor":
        return sensor_occupancy_stream(
            args.n, active_regions=max(10, args.m // 100), seed=args.seed
        )
    raise SystemExit(f"unknown workload {args.workload!r}")


def _cmd_describe(args: argparse.Namespace) -> int:
    stream = _build_workload(args)
    stats = describe_stream(stream)
    for key, value in stats.items():
        print(f"{key:>14}: {value}")
    print(f"{'strict':>14}: {is_strict_turnstile(stream)}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.streams.io import save_stream

    stream = _build_workload(args)
    save_stream(stream, args.out)
    print(f"wrote {len(stream)} updates over [0, {stream.n}) to {args.out}")
    return 0


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return parsed


def _eps(value: str) -> float:
    parsed = float(value)
    if not 0 < parsed < 1:
        raise argparse.ArgumentTypeError("must be in (0, 1)")
    return parsed


def _alpha(value: str) -> float:
    parsed = float(value)
    if not parsed >= 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return parsed


def add_engine_args(parser: argparse.ArgumentParser) -> None:
    """The registry-level engine flag every replaying subcommand
    shares (chunk size)."""
    parser.add_argument("--chunk-size", type=_positive_int,
                        default=DEFAULT_CHUNK_SIZE,
                        help="batch-replay chunk size (throughput knob; "
                             "estimates are identical for every value)")


def add_checkpoint_args(parser: argparse.ArgumentParser) -> None:
    """Durability flags for estimator subcommands."""
    parser.add_argument("--checkpoint-dir", default=None,
                        help="checkpoint the replay into this directory "
                             "and resume from its newest checkpoint on "
                             "rerun (estimates are identical to an "
                             "uninterrupted run)")
    parser.add_argument("--checkpoint-every", type=_positive_int,
                        default=5000,
                        help="checkpoint interval in updates processed "
                             "(with --checkpoint-dir)")
    parser.add_argument("--checkpoint-keep", type=_positive_int, default=3,
                        help="how many checkpoints to retain "
                             "(keep-last-K compaction)")


def add_workload_args(parser: argparse.ArgumentParser) -> None:
    """Workload + parameter flags shared by every subcommand."""
    parser.add_argument("--workload", default="zipf",
                        choices=["zipf", "traffic", "rdc", "sensor"])
    parser.add_argument("--stream", default=None,
                        help="path to a saved .npz stream (overrides "
                             "--workload)")
    parser.add_argument("--n", type=_positive_int, default=1 << 12)
    parser.add_argument("--m", type=_positive_int, default=20_000)
    parser.add_argument("--alpha", type=_alpha, default=4.0)
    parser.add_argument("--eps", type=_eps, default=1 / 16)
    parser.add_argument("--seed", type=int, default=0)


def _print_throughput(updates: int, seconds: float, chunk_size: int) -> None:
    rate = updates / seconds if seconds > 0 else float("inf")
    print(f"throughput             : {rate:,.0f} updates/s "
          f"(chunk={chunk_size}, batched)")


@dataclass(frozen=True)
class _EstimatorCommand:
    """One registry-backed estimator subcommand.

    ``select(stream, args) -> (spec_name, params, overrides)`` picks
    the spec and clamps parameters to the workload; ``report`` formats
    the answer next to ground truth.
    """

    name: str
    help: str
    select: Callable
    report: Callable
    extra_args: Callable[[argparse.ArgumentParser], None] | None = None


def _run_estimator_checkpointed(cmd: _EstimatorCommand,
                                args: argparse.Namespace,
                                stream, truth, spec_name, params,
                                overrides) -> int:
    """The durable replay path: a checkpointed StreamSession that
    resumes from the newest checkpoint in ``--checkpoint-dir``."""
    from repro.api.checkpoint import Checkpointer, CheckpointStore, recover
    from repro.api.session import StreamSession

    store = CheckpointStore(args.checkpoint_dir,
                            keep_last=args.checkpoint_keep)
    session = recover(store)
    if session is not None:
        if session.n != stream.n or session.names() != [spec_name]:
            raise SystemExit(
                f"checkpoint directory {args.checkpoint_dir} holds a "
                f"different run (universe {session.n}, consumers "
                f"{session.names()}); expected universe {stream.n}, "
                f"consumer [{spec_name!r}] — use a fresh directory"
            )
        print(f"recovered checkpoint   : {session.updates_processed} "
              f"updates already ingested")
    else:
        session = StreamSession(stream.n, params=params,
                                chunk_size=args.chunk_size)
        session.track(spec_name, **overrides)
    done = min(session.updates_processed, len(stream))
    checkpointer = Checkpointer(session, store,
                                every_updates=args.checkpoint_every)
    items, deltas = stream.as_arrays()
    start = time.perf_counter()
    for pos in range(done, len(items), args.chunk_size):
        checkpointer.push(items[pos:pos + args.chunk_size],
                          deltas[pos:pos + args.chunk_size])
    session.flush()
    checkpointer.checkpoint()  # the tail becomes durable
    elapsed = time.perf_counter() - start
    sketch = session[spec_name]
    cmd.report(sketch, truth, args, spec_name)
    print(f"sketch space           : {sketch.space_bits()} bits")
    print(f"checkpoints            : {checkpointer.checkpoints_written} "
          f"written to {args.checkpoint_dir} "
          f"(every {args.checkpoint_every} updates, "
          f"keep {args.checkpoint_keep})")
    _print_throughput(len(items) - done, elapsed, args.chunk_size)
    return 0


def _run_estimator(cmd: _EstimatorCommand, args: argparse.Namespace) -> int:
    stream = _build_workload(args)
    truth = stream.frequency_vector()
    spec_name, params, overrides = cmd.select(stream, args)
    if getattr(args, "checkpoint_dir", None):
        return _run_estimator_checkpointed(
            cmd, args, stream, truth, spec_name, params, overrides
        )
    sketch = build(spec_name, params, **overrides)
    start = time.perf_counter()
    replay(stream, sketch, chunk_size=args.chunk_size)
    elapsed = time.perf_counter() - start
    cmd.report(sketch, truth, args, spec_name)
    print(f"sketch space           : {sketch.space_bits()} bits")
    _print_throughput(len(stream), elapsed, args.chunk_size)
    return 0


# -- the estimator subcommand table (specs + clamps + report lines) ----------


def _select_heavy_hitters(stream, args):
    alpha = max(2.0, min(args.alpha, l1_alpha(stream)))
    strict = is_strict_turnstile(stream)
    spec = "heavy_hitters" if strict else "heavy_hitters_general"
    params = Params(n=stream.n, eps=args.eps, alpha=alpha, seed=args.seed)
    return spec, params, {}


def _report_heavy_hitters(sketch, truth, args, spec_name):
    got = sorted(get_spec(spec_name).query(sketch))
    want = sorted(truth.heavy_hitters(args.eps))
    print(f"true eps-heavy hitters : {want}")
    print(f"reported (>= eps/2)    : {got}")


def _select_l1(stream, args):
    alpha = max(2.0, min(args.alpha, l1_alpha(stream)))
    if is_strict_turnstile(stream):
        params = Params(n=stream.n, eps=args.eps, alpha=alpha,
                        seed=args.seed)
        return "l1_strict", params, {}
    params = Params(n=stream.n, eps=max(args.eps, 0.2),
                    alpha=min(alpha, 64), seed=args.seed)
    return "l1_general", params, {}


def _report_l1(sketch, truth, args, spec_name):
    kind = ("strict (Figure 4)" if spec_name == "l1_strict"
            else "general (Theorem 8)")
    print(f"estimator              : {kind}")
    print(f"L1 estimate            : {get_spec(spec_name).query(sketch):.1f}")
    print(f"true L1                : {truth.l1()}")


def _select_l0(stream, args):
    alpha = max(2.0, min(args.alpha, l0_alpha(stream) * 2))
    params = Params(n=stream.n, eps=max(args.eps, 0.1), alpha=alpha,
                    seed=args.seed)
    return "alpha_l0", params, {}


def _report_l0(sketch, truth, args, spec_name):
    print(f"L0 estimate            : {get_spec(spec_name).query(sketch):.1f}")
    print(f"true L0                : {truth.l0()}")
    print(f"live rows              : {sketch.live_rows()}")


def _select_support(stream, args):
    alpha = max(2.0, min(args.alpha, l0_alpha(stream) * 2))
    params = Params(n=stream.n, eps=args.eps, alpha=alpha, seed=args.seed)
    return "support_sampler", params, {"k": args.k}


def _report_support(sketch, truth, args, spec_name):
    got = get_spec(spec_name).query(sketch)
    valid = got <= truth.support()
    print(f"requested k            : {args.k}")
    print(f"recovered              : {len(got)} (all valid: {valid})")
    print(f"sample                 : {sorted(got)[:20]}")


def _cmd_kernels(args: argparse.Namespace) -> int:
    """Report the compiled kernel backend: mode, activity, compiler,
    cache and per-kernel self-test status."""
    from repro import kernels

    info = kernels.backend().describe()
    print(f"{'mode':>14}: {info['mode']}")
    print(f"{'active':>14}: {info['active']}")
    if info["reason"]:
        print(f"{'reason':>14}: {info['reason']}")
    print(f"{'compiler':>14}: {info['compiler'] or '(none found)'}")
    if info["sanitize"]:
        print(f"{'sanitize':>14}: {info['sanitize']}")
    print(f"{'cache dir':>14}: {info['cache_dir']}")
    if info["library"]:
        print(f"{'library':>14}: {info['library']}")
    print(f"{'cflags':>14}: {info['cflags']}")
    for name in sorted(info["kernels"]):
        print(f"{name:>14}: {'ok' if info['kernels'][name] else 'off'}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the AST invariant analyzer (:mod:`repro.analysis`).

    Exit codes: 0 clean, 1 findings reported, 2 internal analyzer
    error — pinned in ``tests/test_cli.py`` and relied on by CI's
    blocking lint step.
    """
    from repro import analysis

    return analysis.run(
        args.paths, fmt=args.format, list_rules=args.list_rules
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the sketch service tier until interrupted.

    ``--session NAME`` pre-creates a session (repeatable); each one
    tracks the specs in ``--track`` (comma-separated, default
    ``countmin``).  Sessions can also be created over the API at any
    time (``POST /v1/sessions``).

    With ``--checkpoint-dir`` the service is durable: every session
    checkpoints to ``<dir>/<name>`` (cadence ``--checkpoint-every``
    updates), sessions found there are recovered — dedup watermarks
    included — before the listener comes up, and a clean shutdown
    writes final checkpoints.  ``--ingest-deadline`` sheds ingest
    frames that waited too long with a retryable BUSY error.
    """
    import asyncio

    from repro.service import ServiceServer, SketchService

    service = SketchService(
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every_updates=args.checkpoint_every,
        checkpoint_keep_last=args.checkpoint_keep,
        ingest_deadline=args.ingest_deadline,
    )
    if service.sessions:
        print(f"recovered sessions: {sorted(service.sessions)}")
    track = [s for s in args.track.split(",") if s]
    for name in args.session or []:
        if name in service.sessions:
            continue  # recovered from the checkpoint dir, keep it
        service.create_session(
            name, n=args.n, seed=args.seed, chunk_size=args.chunk_size,
            node=args.node, track=track,
        )

    async def run() -> None:
        server = ServiceServer(service, host=args.host, port=args.port)
        await server.start()
        print(f"serving on http://{server.host}:{server.port} "
              f"(sessions: {sorted(service.sessions) or 'none yet'})")
        try:
            await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def add_serve_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8321,
                        help="listen port (0 picks a free one)")
    parser.add_argument("--session", action="append", default=None,
                        metavar="NAME",
                        help="pre-create a session (repeatable)")
    parser.add_argument("--track", default="countmin",
                        help="comma-separated registry specs each "
                             "pre-created session tracks")
    parser.add_argument("--n", type=int, default=1 << 16,
                        help="universe size of pre-created sessions")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--node", type=int, default=0,
                        help="node index of pre-created sessions "
                             "(give every merging sibling a distinct one)")
    parser.add_argument("--chunk-size", type=_positive_int,
                        default=DEFAULT_CHUNK_SIZE)
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="serve durably: checkpoint every session "
                             "under DIR/<name> and recover sessions "
                             "found there at startup")
    parser.add_argument("--checkpoint-every", type=_positive_int,
                        default=None, metavar="UPDATES",
                        help="checkpoint cadence in applied updates "
                             "(default 50000; needs --checkpoint-dir)")
    parser.add_argument("--checkpoint-keep", type=_positive_int,
                        default=3, metavar="K",
                        help="durable checkpoints retained per session")
    parser.add_argument("--ingest-deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="shed ingest frames older than this with "
                             "a retryable BUSY (load protection)")


ESTIMATOR_COMMANDS = [
    _EstimatorCommand(
        name="heavy-hitters",
        help="L1 eps-heavy hitters (Theorems 3/4)",
        select=_select_heavy_hitters,
        report=_report_heavy_hitters,
    ),
    _EstimatorCommand(
        name="l1",
        help="L1 norm estimation (Figure 4 / Theorem 8)",
        select=_select_l1,
        report=_report_l1,
    ),
    _EstimatorCommand(
        name="l0",
        help="(1 +/- eps) L0 estimation (Figure 7)",
        select=_select_l0,
        report=_report_l0,
    ),
    _EstimatorCommand(
        name="support",
        help="k-support sampling (Figure 8)",
        select=_select_support,
        report=_report_support,
        extra_args=lambda p: p.add_argument("--k", type=_positive_int,
                                            default=10),
    ),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bounded-deletion streaming algorithms "
                    "(Jayaram-Woodruff PODS'18 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in [("describe", _cmd_describe), ("generate", _cmd_generate)]:
        p = sub.add_parser(name)
        add_workload_args(p)
        if name == "generate":
            p.add_argument("--out", required=True)
        p.set_defaults(func=fn)

    for cmd in ESTIMATOR_COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        add_workload_args(p)
        add_engine_args(p)
        add_checkpoint_args(p)
        if cmd.extra_args is not None:
            cmd.extra_args(p)
        p.set_defaults(func=lambda args, cmd=cmd: _run_estimator(cmd, args))

    p = sub.add_parser(
        "kernels",
        help="report the compiled kernel backend (mode, compiler, "
             "per-kernel self-test status)",
    )
    p.set_defaults(func=_cmd_kernels)

    p = sub.add_parser(
        "lint",
        help="run the repo-specific AST invariant analyzer "
             "(rng/lock/overflow/snapshot/protocol rules; exit 0 "
             "clean, 1 findings, 2 internal error)",
    )
    p.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src tests "
             "benchmarks)",
    )
    p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json is the CI contract)",
    )
    p.add_argument(
        "--list-rules", action="store_true",
        help="print the rule battery (id: summary) and exit 0",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "serve",
        help="run the sketch service tier (HTTP + WebSocket ingest/"
             "query/merge over named sessions, /metrics exposition)",
    )
    add_serve_args(p)
    p.set_defaults(func=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
