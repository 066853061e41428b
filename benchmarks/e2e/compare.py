"""Compare two sets of end-to-end result files, or summarise one.

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py BASE [NEW]

``BASE`` and ``NEW`` are directories (or single files) of the result
records ``run.py`` writes; traced and ``--smoke`` runs and the trace
and layer files are skipped.  Every run compared must have run for the
same ``seconds``; sets that mix run lengths are refused.  For every
workload and every ``end_to_end`` metric of
``BENCHMARK.json`` it prints one row with the median and quartiles of
each set and the metric's spread (quartile distance ÷ median).

With one set the verdict says whether the spread fits the metric's
bound ("steady" below a third of it, "ok" within it, "unresolved"
beyond it).  With two sets it follows the gain/regression rules of
the choosing-metrics method:

* ``regression`` — the new median is worse than the base median by
  more than the bound;
* ``unresolved`` — the base spread exceeds the bound and not every new
  run beats every base run;
* ``gain`` — there are at least ten pairs (runs paired by seed, else
  in order), the new side wins at least 9/10 of them (ties count for
  neither) and the medians differ by more than the base quartile
  distance;
* ``too few pairs`` — the gain conditions hold on fewer than ten pairs;
* ``within bound`` — otherwise.

Runs whose fastest speed probe (``probe_s``) is more than 5 % off the
median of their set are listed: the machine ran at another speed while
they ran, which the times are scaled for but only in part.  The exit code is 1 when a row is a regression or a run
failed its checks, 2 when a set is empty or the runs differ in length.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parents[1] / "BENCHMARK.json"
PROBE_TOLERANCE = 0.05
#: The method's minimum number of pairs behind a gain.
MIN_GAIN_PAIRS = 10


def load(path: Path) -> List[Dict[str, Any]]:
    """Untraced full-size result records under ``path``, ordered by seed."""
    files = [path] if path.is_file() else sorted(path.glob("*.json"))
    records = []
    for file in files:
        if file.name.endswith((".trace.json", ".layers.json")):
            continue
        with open(file) as fh:
            record = json.load(fh)
        if (isinstance(record, dict) and record.get("trace") == 0
                and not record.get("smoke")):
            records.append(record)
    return sorted(records, key=lambda r: (r["workload"], r["seed"]))


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    change = (new - base) / base if base else 0.0
    return change if better == "lower" else -change


def pairs_won(base: List[Dict[str, Any]], new: List[Dict[str, Any]],
              metric: str, better: str) -> Tuple[int, int]:
    """``(wins, pairs)`` for the new side; paired by seed when possible."""
    by_seed = {r["seed"]: r for r in base}
    if all(r["seed"] in by_seed for r in new):
        pairs = [(by_seed[r["seed"]], r) for r in new]
    else:
        pairs = list(zip(base, new))
    wins = 0
    for b, n in pairs:
        bv, nv = b["metrics"][metric]["value"], n["metrics"][metric]["value"]
        if (nv < bv) if better == "lower" else (nv > bv):
            wins += 1
    return wins, len(pairs)


def verdict(
    base: List[Dict[str, Any]],
    new: Optional[List[Dict[str, Any]]],
    metric: str,
    better: str,
    bound: float,
) -> str:
    bvals = [r["metrics"][metric]["value"] for r in base]
    bspread = spread(bvals)
    if new is None:
        if bspread <= bound / 3:
            return "steady"
        return "ok" if bspread <= bound else "unresolved"
    nvals = [r["metrics"][metric]["value"] for r in new]
    bq1, bmed, bq3 = quartiles(bvals)
    nmed = quartiles(nvals)[1]
    if worse_by(bmed, nmed, better) > bound:
        return "regression"
    all_better = (
        max(nvals) < min(bvals) if better == "lower" else min(nvals) > max(bvals)
    )
    if bspread > bound and not all_better:
        return "unresolved"
    wins, n = pairs_won(base, new, metric, better)
    if n and wins >= 0.9 * n and abs(nmed - bmed) > bq3 - bq1 and (
        worse_by(bmed, nmed, better) < 0
    ):
        return "gain" if n >= MIN_GAIN_PAIRS else "too few pairs"
    return "within bound"


def probe_outliers(records: List[Dict[str, Any]]) -> List[str]:
    median = statistics.median(r["probe_s"] for r in records)
    return [
        f"{r['workload']} seed {r['seed']}: probe_s {r['probe_s']:.4f} "
        f"vs set median {median:.4f}"
        for r in records
        if abs(r["probe_s"] / median - 1) > PROBE_TOLERANCE
    ]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path, nargs="?")
    args = parser.parse_args(argv)
    with open(BENCHMARK) as fh:
        metrics = json.load(fh)["end_to_end"]
    sets = {"base": load(args.base)}
    if args.new is not None:
        sets["new"] = load(args.new)
    status = 0
    for label, records in sets.items():
        if not records:
            print(f"error: no untraced result files in {label} set",
                  file=sys.stderr)
            return 2
        failed = [r for r in records if not r["correct"]]
        for r in failed:
            print(f"{label}: {r['workload']} seed {r['seed']} FAILED "
                  f"{r['failed']} of {r['attempted']} operations")
        status = 1 if failed else status
        for line in probe_outliers(records):
            print(f"{label}: speed probe off by > 5 %: {line}")
    lengths = {r["seconds"] for records in sets.values() for r in records}
    if len(lengths) > 1:
        print(f"error: runs of different lengths ({sorted(lengths)} s) "
              "cannot be compared", file=sys.stderr)
        return 2

    workloads = sorted({r["workload"] for r in sets["base"]})
    header = f"{'workload':<16} {'metric':<12} {'n':>3} {'base median':>12} " \
             f"{'[q1, q3]':>22} {'spread':>7}"
    if "new" in sets:
        header += f" {'new median':>12} {'spread':>7} {'worse':>7} {'won':>6}"
    print(header + f" {'bound':>6}  verdict")
    for workload in workloads:
        base = [r for r in sets["base"] if r["workload"] == workload]
        new = None
        if "new" in sets:
            new = [r for r in sets["new"] if r["workload"] == workload]
            if not new:
                print(f"{workload:<16} missing from the new set")
                status = 1
                continue
        for spec in metrics:
            name, bound, better = spec["name"], spec["bound"], spec["better"]
            bvals = [r["metrics"][name]["value"] for r in base]
            q1, med, q3 = quartiles(bvals)
            row = (f"{workload:<16} {name:<12} {len(bvals):>3} {med:>12.6g} "
                   f"[{q1:>9.4g}, {q3:>9.4g}] {spread(bvals):>7.1%}")
            if new is not None:
                nvals = [r["metrics"][name]["value"] for r in new]
                nmed = quartiles(nvals)[1]
                wins, n = pairs_won(base, new, name, better)
                row += (f" {nmed:>12.6g} {spread(nvals):>7.1%} "
                        f"{worse_by(med, nmed, better):>+7.1%} "
                        f"{wins:>2}/{n:<3}")
            result = verdict(base, new, name, better, bound)
            if result == "regression":
                status = 1
            print(row + f" {bound:>6.0%}  {result}")
    return status


if __name__ == "__main__":
    sys.exit(main())
