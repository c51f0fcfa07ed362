"""Run the repo benchmark.

    python3 bench/run.py [--workload W ...] [--seed N] [--seconds S]
                         [--trace [0|1]] [--quick] [--append FILE] [--pin]

With one ``--workload`` the workload runs in this process; with several
(or none, meaning all five) each runs in a fresh child process, one after
another.  Every input derives from ``--seed``.  ``--seconds`` measures
whole cycles for about that long (at least one, stopping at the cycle
boundary nearest to it); without it each workload runs its default
number of cycles.

The human-readable report goes to stdout; its last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` (with several
workloads, ``metrics`` maps each workload to its metrics).  Untraced runs
report the end-to-end metrics of ``BENCHMARK.json``, host times in
reference-host seconds (``hostclock.py``); ``--trace 1`` reports the
per-layer metrics and writes
``bench/results/<workload>.trace.json`` (Chrome trace-event format).
The exit status is 0 only when every operation succeeded and every
output matched.

``--append FILE`` adds the run's result as one JSON line to FILE (the
input of ``compare.py``); ``--pin`` records the run's output digests and
simulated metrics as the expected values for its seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

# One thread per process: numpy's BLAS pool would take the other core.
# Set before anything imports numpy; child runs inherit it.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

from hostclock import HostClock  # noqa: E402  (imports numpy)

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench"
RESULTS_DIR = BENCH_DIR / "results"
SCRATCH_DIR = ROOT / ".bench_tmp"
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[1]
    )
    parser.add_argument("--workload", action="extend", nargs="+", default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--quick", action="store_true",
                        help="shrink every workload (smoke test; no pins)")
    parser.add_argument("--append", type=Path, default=None)
    parser.add_argument("--pin", action="store_true")
    return parser.parse_args(argv)


def import_workloads():
    """Import the benchmark against this checkout's ``src/`` only."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import repro from {ROOT / 'src'}: {exc}")
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        raise SystemExit(
            f"bench: repro resolved to {repro.__file__}, not this checkout"
        )
    import workloads

    return workloads


def print_report(name, seed, result) -> None:
    cycles = result["cycles"]
    print(f"== {name}  seed={seed}  cycles: {cycles['untraced']} untraced, "
          f"{cycles['traced']} traced")
    setup = result["setup"]
    spread = result.get("spread", {})
    if "cycle_wall_s" in spread:
        print(f"  host times below are reference-host seconds; median cycle "
              f"wall time {spread['cycle_wall_s']['median']:.4g} s")
    for key, metric in result["metrics"].items():
        note = ""
        if key in spread:
            s = spread[key]
            note = f"median of {s['n']} cycles, min {s['min']:.6g}, max {s['max']:.6g}"
        elif key == "setup_s":
            runs = setup["runs"]
            note = (f"{setup['import'].ref_s:.3f} s imports + median of {len(runs)} "
                    f"set-ups ({', '.join(f'{r.ref_s:.3f}' for r in runs)}); "
                    f"wall {setup['import'].wall_s:.3f} + "
                    f"({', '.join(f'{r.wall_s:.3f}' for r in runs)})")
        print(f"  {key:<36} {metric['value']:>14.6g} {metric['unit']:<6} {note}")
    for key, (value, unit) in result.get("aliases", {}).items():
        print(f"  {key:<36} {value:>14.6g} {unit:<6} (same run, workload-specific name)")
    for key, value in (result["pins"] or {}).items():
        if not isinstance(value, (dict, str)):
            print(f"  {key:<36} {value:>14.6g} {'':<6} simulated, exact")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  operations: {attempted} attempted, {failed} failed "
          f"(failed_frac {failed / attempted if attempted else 1.0:.3g})")
    for error in result["errors"]:
        print(f"  FAILED: {error}")


def run_one(args, name: str) -> int:
    clock = HostClock()
    clock.start()
    scratch = SCRATCH_DIR / f"{name}-{os.getpid()}"
    try:
        with clock.measure() as imported:
            workloads = import_workloads()
        if name not in workloads.WORKLOADS:
            raise SystemExit(
                f"bench: unknown workload {name!r}; known: {sorted(workloads.WORKLOADS)}"
            )
        trace_path = RESULTS_DIR / f"{name}.trace.json" if args.trace else None
        result = workloads.run(
            name, args.seed, args.seconds, bool(args.trace), args.quick,
            not (args.quick or args.pin), scratch, clock, imported, trace_path,
        )
    finally:
        clock.stop()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_DIR.rmdir()
        except OSError:
            pass
    print_report(name, args.seed, result)
    if trace_path is not None and result["metrics"]:
        print(f"  trace: {trace_path.relative_to(ROOT)}")
    if args.pin:
        if args.quick or not result["correct"]:
            raise SystemExit("bench: --pin needs a full run without failures")
        expected = workloads.load_expected()
        expected.setdefault(name, {})[str(args.seed)] = result["pins"]
        workloads.EXPECTED_PATH.write_text(
            json.dumps(expected, indent=1, sort_keys=True) + "\n"
        )
    line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    if args.append is not None:
        with open(args.append, "a") as handle:
            handle.write(json.dumps({
                "workload": name, "seed": args.seed, "trace": args.trace, **line,
            }) + "\n")
    print(json.dumps(line))
    return 0 if result["correct"] else 1


def run_all(args, names) -> int:
    """Each workload in its own fresh process, one after another."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--trace", str(args.trace)]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.quick:
            command.append("--quick")
        if args.append is not None:
            command += ["--append", str(args.append)]
        if args.pin:
            command.append("--pin")
        try:
            child = subprocess.run(
                command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
            )
            returncode, lines = child.returncode, child.stdout.splitlines()
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            returncode, lines = 1, [f"== {name}: no result within {CHILD_TIMEOUT_S} s"]
        try:
            line = json.loads(lines[-1])
            lines = lines[:-1]
        except (IndexError, ValueError):
            line = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        print("\n".join(lines), flush=True)
        status = status or returncode
        totals["correct"] = totals["correct"] and line["correct"] and returncode == 0
        totals["attempted"] += line["attempted"]
        totals["failed"] += line["failed"]
        totals["metrics"][name] = line["metrics"]
    print(json.dumps(totals))
    return status or (0 if totals["correct"] else 1)


def main(argv=None) -> int:
    args = parse_args(argv)
    names = args.workload
    if names is not None and len(names) == 1:
        return run_one(args, names[0])
    if names is None:
        names = list(import_workloads().WORKLOADS)
    return run_all(args, names)


if __name__ == "__main__":
    sys.exit(main())
