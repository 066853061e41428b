"""End-to-end benchmark of the ASM reproduction (see README.md).

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --workload NAME|all --seed S \
        [--seconds N] [--trace [0|1]] [--out DIR] [--smoke]

One workload runs single-threaded in this process; ``all`` runs each
workload in its own subprocess, one at a time.  The timed loop lasts
``run_seconds`` of ``BENCHMARK.json`` (0.5 s with ``--smoke``);
``--seconds``, part of the standard benchmark command line, must equal
``run_seconds``, so two runs being compared always run equally long.
A fixed speed probe runs before every pass and set-up repetition
(``probe_s`` is the fastest).  A run prints every metric by name with
its unit and sample count, writes a JSON result file to ``--out`` (default
``benchmarks/e2e/out``), and ends its standard output with one JSON
line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the ``end_to_end`` metrics of ``BENCHMARK.json``, or with
``--trace 1`` the ``per_layer`` ones.  The traced run alternates
untraced and traced repetitions, so it can report tracing overhead;
it also writes a Chrome trace and a ``layers.json`` breakdown.  The
exit code is 0 when every check passed, 1 when a check failed, 2 when
the program cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
PINNED = HERE / "pinned.json"
DEFAULT_OUT = HERE / "out"
SMOKE_SECONDS = 0.5
#: Subprocess cap for ``--workload all`` (the longest run, ``asm_vec``,
#: takes about a minute).
ALL_TIMEOUT_S = 600


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and import it.

    Raises ``SystemExit(2)`` when the checkout holds no program, or
    when ``repro`` would come from anywhere but this checkout.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'repro'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def _run_seconds() -> float:
    with open(ROOT / "BENCHMARK.json") as fh:
        return float(json.load(fh)["run_seconds"])


def _pinned_check(ctx: Any, name: str) -> None:
    """At seed 0, the first pass's counters must equal the pinned ones."""
    with open(PINNED) as fh:
        pinned = json.load(fh).get(name)
    ctx.check(0, bool(pinned), f"no pinned counters for {name}")
    for key, want in sorted((pinned or {}).items()):
        got = ctx.counters.get(key)
        ctx.check(0, got == want, f"pinned counter {key}: {got} != {want}")


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    out: Optional[Path],
) -> Dict[str, Any]:
    """Run one workload in this process; returns the result record."""
    from harness import (
        Context,
        best_calls,
        call_summary,
        end_to_end_metrics,
    )
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    t0 = time.perf_counter()
    inputs = workload.prepare(seed, smoke)
    gen_s = time.perf_counter() - t0

    tracer = None
    if trace:
        from layers import Tracer, installed, layer_metrics, write_trace

        tracer = Tracer()
    ctx = Context(seconds, tracer)
    with installed(tracer) if tracer else contextlib.nullcontext():
        workload.measure(ctx, inputs)
    metrics = end_to_end_metrics(ctx.samples, ctx.probes, ctx.peak_rss_mb)
    layer_values = None
    if tracer is not None:
        untraced = sum(best_calls(ctx.samples))
        overhead = sum(best_calls(ctx.traced)) / untraced - 1.0
        layer_values = layer_metrics(
            tracer, len(ctx.traced.passes),
            max(ctx.eps_values, default=0.0), overhead,
        )
    if seed == 0 and not smoke:
        _pinned_check(ctx, name)

    record: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "smoke": smoke,
        "probe_s": min(ctx.probes),
        "gen_s": gen_s,
        "passes": ctx.passes,
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "failures": ctx.failures,
        "metrics": metrics,
        "layers": layer_values,
        "calls": call_summary(ctx.samples),
        "raw": {"setup": ctx.samples.setup,
                "setup_probes": ctx.samples.setup_probes,
                "pass_s": [sum(p) for p in ctx.samples.passes],
                "probes": ctx.probes},
        "counters": ctx.counters,
        "eps_max": max(ctx.eps_values, default=0.0),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        stem = str(
            out / f"{name}-seed{seed}-trace{int(trace)}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
        )
        with open(stem + ".json", "w") as fh:
            json.dump(record, fh, indent=1, default=str)
        record["file"] = stem + ".json"
        if tracer is not None:
            write_trace(tracer, stem, {
                "workload": name, "seed": seed,
                "passes": len(ctx.traced.passes),
                "trace.overhead": layer_values["trace.overhead"]["value"],
            })
    return record


def _print_record(record: Dict[str, Any]) -> None:
    print(
        f"workload {record['workload']}  seed {record['seed']}  "
        f"trace {record['trace']}  passes {record['passes']}  "
        f"probe_s {record['probe_s']:.4f}  gen_s {record['gen_s']:.3f}"
    )
    for name, m in record["metrics"].items():
        print(f"  {name:<14} {m['value']:>14.6g} {m['unit']:<3} (n={m['n']})")
    for name, m in (record["layers"] or {}).items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    print(f"  checks: {record['failed']} of {record['attempted']} "
          f"operations failed; eps_max {record['eps_max']:.6f}")
    for msg in record["failures"]:
        print("  FAIL " + msg.replace("\n", "\n       "))
    if "file" in record:
        print(f"  result file: {record['file']}")


def _last_line(record: Dict[str, Any]) -> Dict[str, Any]:
    chosen = record["layers"] if record["trace"] else record["metrics"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            k: {"value": m["value"], "unit": m["unit"]}
            for k, m in chosen.items()
        },
    }


def _run_all(argv: List[str], names: List[str]) -> int:
    """Each workload in its own subprocess, one after another."""
    combined: Dict[str, Any] = {
        "correct": True, "attempted": 0, "failed": 0, "metrics": {}
    }
    status = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, *argv],
            stdout=subprocess.PIPE, text=True, timeout=ALL_TIMEOUT_S,
        )
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return 2
        status = max(status, proc.returncode)
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="must equal run_seconds of BENCHMARK.json, "
                        "which sets the timed loop length")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a 0.5 s loop; finishes in "
                        "seconds")
    args = parser.parse_args(argv)
    if args.seconds is not None and args.seconds != _run_seconds():
        parser.error(f"--seconds must equal run_seconds "
                     f"({_run_seconds():g}) of BENCHMARK.json")

    # One busy thread per workload process: set before numpy loads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    _import_program()
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    seconds = SMOKE_SECONDS if args.smoke else _run_seconds()
    if args.workload == "all":
        forwarded = ["--seed", str(args.seed), "--trace", str(args.trace),
                     "--out", str(args.out)]
        if args.smoke:
            forwarded.append("--smoke")
        return _run_all(forwarded, list(WORKLOADS))
    record = run_workload(args.workload, args.seed, seconds,
                          bool(args.trace), args.smoke, args.out)
    _print_record(record)
    print(json.dumps(_last_line(record)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
