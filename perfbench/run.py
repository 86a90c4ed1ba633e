"""lintraj benchmark: one workload per process, or all four in turn.

    python3 perfbench/run.py --workload lib-ensemble --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` times whole units of work with nothing wrapped and reports the
end-to-end metrics; ``--trace 1`` runs a fixed number of units untraced, then
the same units again with every layer function wrapped, and reports per-layer
metrics plus the tracing overhead.  Every run prints its metrics by name with
their unit, its correctness checks and its environment; the last line of
standard output is one JSON object ``{correct, attempted, failed, metrics}``.
Full reports (and, when traced, the spans) go to ``perfbench/out/``.
``--quick`` shrinks every workload for the benchmark's own tests; it goes
through the same code paths.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("cli-ensemble", "lib-ensemble", "record-summary", "long-record")
IMPORT_PROBES = 5
MIN_UNITS = 2   # the second unit also brings the allocator to its plateau
NO_WAITS = ("single process, single thread of library calls; lintraj has no "
            "queue or lock, so no wait times are recorded")


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _run_phase(wl, seconds: float | None = None, count: int | None = None):
    """Run units 0, 1, ... until ``count`` are done or the next one would
    overrun ``seconds``; return (unit results, wall seconds)."""
    wl.begin_phase()
    units = []
    start = perf_counter()
    while True:
        units.append(wl.run_unit(len(units)))
        if count is not None:
            if len(units) >= count:
                break
        elif len(units) >= MIN_UNITS and (
                perf_counter() - start
                + statistics.median(u["wall_s"] for u in units)) > seconds:
            break
    return units, perf_counter() - start


def _end_to_end(units: list[dict], setup_samples: list[float]) -> dict:
    return {
        "traj_per_s": _metric(statistics.median(u["traj"] / u["work_s"]
                                                for u in units), "1/s"),
        "wall_s": _metric(statistics.median(u["wall_s"] for u in units), "s"),
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _shared(wl, units: list[dict]) -> dict:
    """Metrics reported by both modes: failures and per-command times."""
    from workloads import CLI_COMMANDS

    out = {"failed_share": _metric(wl.failed / wl.attempted, "ratio")}
    for cmd in CLI_COMMANDS:
        walls = [u["cmd_s"][cmd] for u in units if cmd in u.get("cmd_s", {})]
        if walls:
            out[f"cmd_s.{cmd}"] = _metric(statistics.median(walls), "s")
    return out


def _per_layer(wl, tracer, traced: list[dict], traced_wall: float,
               untraced_wall: float) -> dict:
    import numpy as np

    from workloads import CLI_COMMANDS, ERROR_CLASSES, LAYER_FUNCTIONS

    summary = tracer.summary(traced_wall)
    unknown = set(summary["functions"]) - set(LAYER_FUNCTIONS)
    if unknown:
        raise RuntimeError(f"spans outside the metric catalogue: {sorted(unknown)}")
    out = {}
    for fn in LAYER_FUNCTIONS:
        entry = summary["functions"].get(fn, {"calls": 0, "self_s": 0.0,
                                              "share": 0.0})
        out[f"{fn}.calls"] = _metric(entry["calls"], "count")
        out[f"{fn}.self_s"] = _metric(entry["self_s"], "s")
        out[f"{fn}.share"] = _metric(entry["share"], "ratio")
    out["cli.bytes_written"] = _metric(
        sum(u.get("bytes_written", 0) for u in traced), "bytes")
    out["trajectory.accumulate_integrals_ensemble.bytes_computed"] = _metric(
        sum(u.get("bytes_computed", 0) for u in traced), "bytes")
    w = np.array(wl.weights)
    out["weight_ess_ratio"] = _metric(   # ESS / N; 0 where there are no weights
        float(w.sum() ** 2 / (w.size * (w ** 2).sum())) if w.size else 0.0,
        "ratio")
    out["trace.overhead_s"] = _metric(traced_wall - untraced_wall, "s")
    out["trace.uncovered_s"] = _metric(summary["uncovered_s"], "s")
    for name in ERROR_CLASSES:
        out[f"errors.{name}"] = _metric(wl.errors.get(name, 0), "count")
    for cmd in CLI_COMMANDS:
        out.setdefault(f"cmd_s.{cmd}", _metric(0.0, "s"))
    return out


def run_workload(args) -> int:
    from envinfo import environment
    from tracer import Tracer
    from workloads import WORKLOADS, patch_layers

    threads_seen = os.environ.pop("LINTRAJ_THREADS", None)
    env = environment(ROOT, "unset" if threads_seen is None
                      else f"unset (caller had {threads_seen})")
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{stem}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir, args.quick)
        # One quick-size unit, untimed, takes lazy imports inside scipy and
        # first-call costs out of whichever timed unit would run first.
        WORKLOADS[args.workload](args.seed, workdir, True).run_unit(0)
        if not args.trace:
            setup_samples = ([wl.setup_probe(SRC) for _ in range(IMPORT_PROBES)]
                             if wl.is_cli else [])
            units, _ = _run_phase(wl, seconds=args.seconds)
            wl.finish_phase()
            if not wl.is_cli:
                setup_samples = [u["setup_s"] for u in units]
            shown = _end_to_end(units, setup_samples)
            contract = dict(shown)
            shown.update(_shared(wl, units))
        else:
            count = max(1, int(args.seconds / 2 / wl.nominal_unit_s))
            untraced, untraced_wall = _run_phase(wl, count=count)
            tracer = Tracer()
            wl.tracer = tracer
            patch_layers(tracer)
            origin = perf_counter()
            try:
                traced, traced_wall = _run_phase(wl, count=count)
            finally:
                tracer.restore()
                wl.tracer = None
            wl.finish_phase()
            tracer.write(str(OUT / f"spans-{stem}.jsonl"), origin)
            contract = _per_layer(wl, tracer, traced, traced_wall, untraced_wall)
            contract.update(_shared(wl, untraced))
            shown = contract
            units = untraced + traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = bool(wl.checks) and all(c["passed"] for c in wl.checks)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "quick": args.quick,
              "units": len(units), "unit_wall_s": [u["wall_s"] for u in units],
              "env": env, "metrics": shown,
              "checks": wl.checks, "errors": dict(wl.errors),
              "attempted": wl.attempted, "failed": wl.failed, "note": NO_WAITS}
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"lintraj benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} units={len(units)}")
    print(f"env {json.dumps(env)}")
    for name, m in shown.items():
        if m["value"] or not args.trace:
            print(f"  {name:<58} {m['value']:<14.6g} {m['unit']}")
    for c in wl.checks:
        print(f"check {'PASS' if c['passed'] else 'FAIL'}  {c['name']}: {c['detail']}")
    print(f"note: {NO_WAITS}")
    print(json.dumps({"correct": correct, "attempted": wl.attempted,
                      "failed": wl.failed, "metrics": contract}))
    return 0


def run_all(args) -> int:
    """Every workload in its own child process, so peak memory does not mix."""
    rows = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = 1
            continue
        rows[name] = json.loads(
            (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").read_text())
        status |= not json.loads(done.stdout.splitlines()[-1])["correct"]
    combined = OUT / f"BENCH_seed{args.seed}_trace{args.trace}.json"
    combined.write_text(json.dumps(rows, indent=1) + "\n")
    if not args.trace:
        names = sorted({m for r in rows.values() for m in r["metrics"]})
        print(f"\n{'metric':<16}" + "".join(f"{w:>16}" for w in rows))
        for m in names:
            cells = [rows[w]["metrics"].get(m) for w in rows]
            unit = next(c["unit"] for c in cells if c)
            print(f"{m:<16}" + "".join(
                f"{c['value']:>16.6g}" if c else f"{'-':>16}" for c in cells)
                + f"  {unit}")
    print(f"wrote {combined.relative_to(ROOT)}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="shrunken sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "lintraj" / "__init__.py").is_file():
        print(f"perfbench: no lintraj sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import lintraj

    if Path(lintraj.__file__).resolve().parent != SRC / "lintraj":
        print(f"perfbench: imported lintraj from {lintraj.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
