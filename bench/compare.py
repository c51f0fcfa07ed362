"""A/B decision rule over two sets of benchmark runs.

    python3 bench/compare.py A.jsonl            # medians and quartiles
    python3 bench/compare.py A.jsonl B.jsonl    # A = parent, B = change
    ... [--json OUT]                            # also write the table

Inputs are the JSON lines ``bench/run.py --append FILE`` writes (only
untraced runs are read).  Run the two commits alternately -- A B B A
A B ... -- with the same ``--seconds`` and seeds, so the i-th run of a
workload in A pairs with the i-th in B.

For every workload and end-to-end metric of ``BENCHMARK.json``:

* ``gain``: at least ``MIN_PAIRS`` pairs, B better in at least 9/10 of
  them (ties count for neither side), and the medians apart by more
  than A's interquartile range;
* ``unresolved``: the spread (IQR / median) of either side exceeds the
  metric's bound, unless every B run is better than every A run;
* ``regression``: B's median worse than A's by more than the bound;
* ``no regression``: none of the above.

A workload whose failed share (failed / attempted) rose from A to B is
marked ``failure increase``, and none of its gains count.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: Path) -> Dict[str, List[Dict]]:
    """Untraced runs per workload, in file order."""
    runs: Dict[str, List[Dict]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            run = json.loads(line)
            if not run.get("trace"):
                runs.setdefault(run["workload"], []).append(run)
    return runs


def summary(values: Sequence[float]) -> Dict[str, float]:
    median = statistics.median(values)
    q1, _, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    )
    return {
        "n": len(values), "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else float("inf"),
    }


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    """The rule above for one metric on one workload."""
    pairs = list(zip(a, b))
    if len(pairs) < MIN_PAIRS:
        return "too few pairs"
    sign = 1.0 if better == "higher" else -1.0
    sa, sb = summary(a), summary(b)
    gap = sign * (sb["median"] - sa["median"])  # > 0: B better
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if wins >= WIN_SHARE * len(pairs) and gap > sa["q3"] - sa["q1"]:
        return "gain"
    every_run_better = min(b) > max(a) if sign > 0 else max(b) < min(a)
    if max(sa["spread"], sb["spread"]) > bound and not every_run_better:
        return "unresolved"
    if -gap / abs(sa["median"]) > bound:
        return "regression"
    return "no regression"


def failed_share(runs: Sequence[Dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 1.0


def compare(a_runs: Dict, b_runs: Dict, metrics: Sequence[Dict]) -> List[Dict]:
    rows = []
    for workload in sorted(set(a_runs) & set(b_runs)):
        a, b = a_runs[workload], b_runs[workload]
        failures_rose = failed_share(b) > failed_share(a)
        for metric in metrics:
            name = metric["name"]
            av = [r["metrics"][name]["value"] for r in a]
            bv = [r["metrics"][name]["value"] for r in b]
            decision = verdict(av, bv, metric["better"], metric["bound"])
            if failures_rose and decision == "gain":
                decision = "gain void: failure increase"
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "a": summary(av), "b": summary(bv),
                "pairs": min(len(av), len(bv)), "verdict": decision,
            })
        rows.append({
            "workload": workload, "metric": "failed_share", "unit": "ratio",
            "a": {"median": failed_share(a)}, "b": {"median": failed_share(b)},
            "pairs": min(len(a), len(b)),
            "verdict": "failure increase" if failures_rose else "no increase",
        })
    return rows


def describe(runs: Dict, metrics: Sequence[Dict]) -> List[Dict]:
    return [
        {
            "workload": workload, "metric": metric["name"], "unit": metric["unit"],
            "a": summary([r["metrics"][metric["name"]]["value"] for r in group]),
        }
        for workload, group in sorted(runs.items())
        for metric in metrics
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/compare.py")
    parser.add_argument("files", nargs="+", type=Path, help="A.jsonl [B.jsonl]")
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)
    if len(args.files) > 2:
        parser.error("give one file (summary) or two (A/B)")
    metrics = json.loads(BENCHMARK_JSON.read_text())["end_to_end"]
    runs = [load_runs(path) for path in args.files]
    if len(runs) == 1:
        rows = describe(runs[0], metrics)
        for row in rows:
            s = row["a"]
            print(f"{row['workload']:<18} {row['metric']:<14} median {s['median']:<12.6g}"
                  f" IQR [{s['q1']:.6g}, {s['q3']:.6g}]  spread {s['spread']:.2%}"
                  f"  n={s['n']}  {row['unit']}")
        status = 0
    else:
        rows = compare(runs[0], runs[1], metrics)
        for row in rows:
            a, b = row["a"]["median"], row["b"]["median"]
            change = (b - a) / abs(a) if a else float("nan")
            print(f"{row['workload']:<18} {row['metric']:<14} A {a:<12.6g} B {b:<12.6g}"
                  f" {change:+8.2%}  pairs {row['pairs']:<3} {row['verdict']}")
        status = int(any(
            row["verdict"] in ("regression", "failure increase") for row in rows
        ))
    if args.json is not None:
        args.json.write_text(json.dumps(rows, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
