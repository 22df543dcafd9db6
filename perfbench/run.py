#!/usr/bin/env python3
"""Capture-to-storage benchmark of the DBGC system.

    python3 perfbench/run.py --workload sensor_capture --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  One generator process (this one)
drives the workload's client over unpaced loopback against a
``DbgcServer`` in its own process (``serve.py``).  ``--trace 0`` measures
the end-to-end metrics with tracing off; ``--trace 1`` runs an untraced
and a traced session back to back, half the time each, and reports the
per-layer metrics, with the throughput difference of the two as
``trace.overhead_frac``.

Lines starting with ``#`` or two spaces describe the run (inputs,
versions, timings with median / p90 / n, the ranked bottleneck table).
The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run fails loudly (non-zero
exit, no result line) when a reported p90 has fewer than ten samples
beyond it, when a wrapped name stays patched, or when ``src/repro`` is
missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: A run must end within 180 s; give up (and stop the server) before that.
WATCHDOG_S = 170


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="sensor_capture or pool_decode")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="check the benchmark itself")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    return args


def provenance() -> dict:
    """Git revision (when the checkout has one) and a hash of ``src/``."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            rev = None
    return {"git_rev": rev, "src_sha256": digest.hexdigest()[:16]}


@dataclass
class Phase:
    window: object
    outcome: object
    setups: list
    verdict: object
    gen_trace: dict | None
    #: Decode worker processes alive when the timed window started.
    workers: int


def run_phase(inputs, workdir: Path, seconds=None, frames=None, setups=1, tracer=None) -> Phase:
    """``setups`` set-ups (all but the last torn down), then one timed window."""
    from report import gate
    from session import Session

    setup_s, verdicts = [], []
    for i in range(setups):
        session = Session(inputs, workdir / f"setup{i}", ROOT, tracer)
        setup_s.append(session.setup_s)
        if i + 1 < setups:
            verdicts.append(gate(inputs, session.finish(since=session.ready_at)))
    try:
        window = session.measure(seconds, frames)
    except BaseException:
        session.abort()
        raise
    outcome = session.finish(since=window.start)
    gen_trace = None if tracer is None else tracer.snapshot()
    verdict = gate(inputs, outcome)
    for earlier in verdicts:
        verdict = verdict + earlier
    return Phase(window, outcome, setup_s, verdict, gen_trace, len(session.worker_pids))


def traced_phase(inputs, workdir: Path, seconds=None, frames=None) -> Phase:
    """A traced session; every wrapped name is restored before returning."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install("client")
    try:
        phase = run_phase(inputs, workdir, seconds, frames, tracer=tracer)
    finally:
        tracer.uninstall()
    return phase


def leftovers(phase: Phase) -> list[str]:
    from tracer import Tracer

    return Tracer.leftovers() + phase.outcome.reply["leftovers"]


def result_line(verdict, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": verdict.failed == 0,
            "attempted": verdict.attempted,
            "failed": verdict.failed,
            "metrics": metrics,
        }
    )


def measure(args: argparse.Namespace, workdir: Path) -> int:
    import numpy

    from report import E2E_UNITS, end_to_end, per_layer, window_frames
    from workloads import WORKLOADS, build_inputs

    workload = WORKLOADS[args.workload]
    print(f"# perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# why: {workload.why}")
    print(f"# isolates: {workload.isolates}")
    print(f"# bypasses: {workload.bypasses}")
    inputs = build_inputs(workload, args.seed)
    context = {
        **inputs.describe(),
        **provenance(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    print("# context: " + json.dumps(context))
    if args.trace:
        # Half the time each, so a traced run costs what an untraced one does.
        plain = run_phase(inputs, workdir / "untraced", seconds=args.seconds / 2)
        traced = traced_phase(inputs, workdir / "traced", seconds=args.seconds / 2)
        left = leftovers(traced)
        if left:
            raise RuntimeError(f"wrapped names left patched after the traced run: {left}")

        def fps(phase: Phase) -> float:
            return len(window_frames(phase.outcome, phase.window)) / phase.window.wall_s

        overhead = fps(plain) / fps(traced) - 1.0
        values, lines = per_layer(
            inputs, traced.outcome, traced.window, traced.gen_trace, overhead
        )
        verdict = plain.verdict + traced.verdict
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
    else:
        phase = run_phase(inputs, workdir, seconds=args.seconds, setups=SETUPS)
        verdict = phase.verdict
        values, lines = end_to_end(
            inputs, phase.outcome, phase.window, phase.setups, verdict
        )
        metrics = {name: {"value": values[name], "unit": u} for name, u in E2E_UNITS.items()}
    print("# timings:")
    for line in lines:
        print(line)
    print(f"# correctness: {verdict.failed} of {verdict.attempted} frames failed the gate")
    for problem in verdict.problems[:10]:
        print(f"  {problem}")
    print(result_line(verdict, metrics))
    return 0


def selftest(workdir: Path) -> int:
    """The benchmark's own checks: percentiles, warm-up, tracing only observes,
    unpatching."""
    from stats import beyond, nearest_rank
    from tracer import merge
    from workloads import WORKLOADS, build_inputs

    failures = []

    def check(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    known = [15, 20, 35, 40, 50]
    check(
        [nearest_rank(known, q) for q in (5, 30, 40, 50, 90, 100)] == [15, 20, 20, 35, 50, 50]
        and nearest_rank(list(range(1, 101)), 90) == 90
        and (beyond(100, 90), beyond(99, 90)) == (10, 9),
        "percentile helper matches nearest rank on known inputs",
    )
    frames = {"sensor_capture": 4, "pool_decode": 12}
    path_layers = {
        "sensor_capture": (
            "core.pipeline.compress", "core.temporal.keyframe_decode", "system.storage.put",
        ),
        "pool_decode": (
            "system.pool.decode", "core.temporal.delta_decode", "system.pool.roundtrip",
            "system.protocol.read", "system.durability.append",
        ),
    }
    for name, workload in WORKLOADS.items():
        inputs = build_inputs(workload, seed=1)
        plain = run_phase(inputs, workdir / name / "untraced", frames=frames[name])
        traced = traced_phase(inputs, workdir / name / "traced", frames=frames[name])
        check(
            plain.verdict.failed == 0 and traced.verdict.failed == 0,
            f"{name}: every frame passes the correctness gate",
        )
        check(
            plain.workers == traced.workers == workload.decode_workers,
            f"{name}: all {workload.decode_workers} decode workers run before the window "
            f"(saw {plain.workers}, {traced.workers})",
        )
        check(
            plain.outcome.reply["digests"] == traced.outcome.reply["digests"],
            f"{name}: traced and untraced runs store byte-identical contents",
        )
        left = leftovers(traced)
        check(not left, f"{name}: no wrapped name stays patched {left or ''}")
        reply = traced.outcome.reply
        merged = merge(traced.gen_trace, reply["trace"], reply["worker_trace"])
        missing = [layer for layer in path_layers[name] if layer not in merged["calls"]]
        check(not missing, f"{name}: the traced run timed its path's layers {missing or ''}")
    print(f"# selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    def watchdog(_signum, _frame):
        raise TimeoutError(f"run exceeded {WATCHDOG_S} s")

    workdir = HERE / "_work" / f"{'selftest' if args.selftest else args.workload}-{os.getpid()}"
    try:
        if args.selftest:
            return selftest(workdir)
        signal.signal(signal.SIGALRM, watchdog)
        signal.alarm(WATCHDOG_S)
        return measure(args, workdir)
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
