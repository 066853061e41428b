"""Command-line interface: ``repro-asm`` / ``python -m repro``.

Subcommands
-----------
``run``
    Run one algorithm on one generated instance and print a stability
    report; ``--slo-eps`` (ASM variants) gates the run on an
    ε-stability SLO and exits 1 when it fails.
``generate``
    Write a generated instance to a JSON file that ``run --input``
    reads back.
``experiment``
    Run one experiment from DESIGN.md §3 and print its table.
``report``
    Run every experiment (at a chosen scale) and print all tables —
    this regenerates the numbers recorded in EXPERIMENTS.md.
``congest``
    Run a message-level protocol on the CONGEST simulator, optionally
    under seeded faults and a latency model, and print its statistics.
``trace``
    Run message-level protocol trials with causal tracing and print
    their outcomes; can explain how a blocking pair came to be
    (``--explain M W``).
``dynamic``
    Drive the online dynamic matching engine over seeded churn streams
    of arrivals, departures, and preference edits; localized repair
    with a full-ASM SLO fallback keeps ε within target after every
    delta (see ``docs/dynamic.md``).
``bench``
    Run the pinned counter matrix, write ``BENCH_<rev>.json``, and
    optionally gate it against a committed baseline.
``lint``
    Statically analyze the source tree for CONGEST-model compliance,
    determinism, and telemetry hygiene (see ``docs/static_analysis.md``).
``list``
    List available experiments, workloads and algorithms.

Telemetry
---------
``run``, ``congest``, ``trace`` and ``dynamic`` accept ``--metrics-out
FILE``, the run's one artifact: counters, gauges, phase-timing
histograms and the structured event records (fault records included),
the timer spans as Chrome ``traceEvents`` (the file opens in Perfetto
as it is), the causal trace under ``trace`` when the run was traced,
and a :class:`~repro.obs.manifest.RunManifest` so it is
self-describing; see ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.experiments import ALL_EXPERIMENTS, run_experiment
from repro.analysis.stability import stability_report
from repro.analysis.tables import format_table
from repro.baselines.gale_shapley import gale_shapley
from repro.baselines.truncated_gs import truncated_gale_shapley
from repro.core.almost_regular import almost_regular_asm
from repro.core.asm import asm
from repro.core.rand_asm import rand_asm
from repro.errors import InvalidParameterError
from repro.obs.manifest import RunManifest
from repro.obs.telemetry import Telemetry
from repro.parallel import TrialPool
from repro.workloads.generators import GENERATORS, default_instance

__all__ = ["main", "build_parser"]

# Per-experiment overrides for the quick scale (the full scale uses
# each driver's defaults, which are sized for a laptop run).
_QUICK_OVERRIDES: Dict[str, Dict[str, Any]] = {
    "e1": dict(n_values=(16, 32), eps_values=(0.25, 0.5), trials=2),
    "e2": dict(n_values=(16, 32, 64), trials=1),
    "e3": dict(n_values=(16, 32), trials=3),
    "e4": dict(n_values=(16, 32, 64), trials=2),
    "e5": dict(n=32, trials=2),
    "e6": dict(n_values=(32, 64), trials=3),
    "e7": dict(n_values=(16, 32), trials=2),
    "e8": dict(n_values=(32,), trials=2),
    "e9": dict(n_values=(16, 32), trials=2),
    "e10": dict(n_values=(32, 64), trials=5),
    "e11": dict(n_values=(16, 32, 64), trials=1),
    "e12": dict(n_values=(12, 24), trials=2),
    "a1": dict(n=32, k_values=(2, 4, 8), trials=2),
    "a2": dict(n=32, trials=2),
    "a3": dict(n_values=(6,)),
    "a4": dict(n=24, trials=1),
    "a5": dict(n_values=(16, 32, 64), trials=1),
    "faults": dict(n_values=(6,)),
}


def _eps_arg(text: str) -> float:
    """argparse type for ε: mirrors ``params_for_eps``'s 0 < ε ≤ 1 check."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"eps must satisfy 0 < eps <= 1, got {value}"
        )
    return value


def _rate_arg(text: str) -> float:
    """argparse type for fault rates: a probability in [0, 1]."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"rate must satisfy 0 <= rate <= 1, got {value}"
        )
    return value


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _positive_int_arg(text: str) -> int:
    """argparse type for counts, budgets and rounds: an int >= 1."""
    return _int_at_least(text, 1)


def _nonnegative_int_arg(text: str) -> int:
    """argparse type for sizes and counts that may be 0: an int >= 0."""
    return _int_at_least(text, 0)


def _add_workers_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=_positive_int_arg,
        default=1,
        metavar="N",
        help="worker processes for the trial sweep (default 1 = serial; "
        "results are bit-identical for any N, see docs/parallel.md)",
    )


def _telemetry_for(
    args: argparse.Namespace,
    algorithm: str,
    params: Dict[str, Any],
) -> Optional[Telemetry]:
    """An enabled telemetry bundle iff ``--metrics-out`` was given."""
    if not args.metrics_out:
        return None
    manifest = RunManifest.capture(
        algorithm=algorithm,
        workload=getattr(args, "workload", None),
        n=getattr(args, "n", None),
        seed=getattr(args, "seed", None),
        params=params,
    )
    return Telemetry.create(manifest)


def _export_telemetry(
    args: argparse.Namespace, telemetry: Optional[Telemetry]
) -> None:
    """Dump the bundle to ``--metrics-out`` (notice on stderr): the
    registry, the manifest, and the tracer's records when it has one."""
    if telemetry is None:
        return
    from repro.io import save_metrics

    if telemetry.manifest is not None:
        telemetry.manifest.finish()
    tracer = telemetry.tracer
    save_metrics(
        telemetry.metrics,
        args.metrics_out,
        telemetry.manifest,
        trace=tracer.to_records() if tracer is not None else None,
    )
    print(
        f"wrote metrics to {args.metrics_out} "
        f"({len(telemetry.metrics.events)} events)",
        file=sys.stderr,
    )


def _add_fault_flags(parser: argparse.ArgumentParser) -> None:
    """The shared fault-injection flag group (``congest`` / ``trace``)."""
    fault_g = parser.add_argument_group(
        "fault injection",
        "seeded, deterministic faults applied to message delivery "
        "(see docs/robustness.md); any of these flags activates the "
        "injector",
    )
    fault_g.add_argument("--drop-rate", type=_rate_arg, default=0.0,
                         metavar="P", help="per-message drop probability")
    fault_g.add_argument("--duplicate-rate", type=_rate_arg, default=0.0,
                         metavar="P",
                         help="per-message duplication probability")
    fault_g.add_argument("--delay-rate", type=_rate_arg, default=0.0,
                         metavar="P", help="per-message delay probability")
    fault_g.add_argument("--max-delay", type=_positive_int_arg, default=2,
                         metavar="R",
                         help="maximum delay in rounds (default 2)")
    fault_g.add_argument("--crash", type=_nonnegative_int_arg, default=0,
                         metavar="COUNT",
                         help="crash COUNT deterministically sampled nodes")
    fault_g.add_argument("--crash-round", type=_positive_int_arg, default=3,
                         metavar="R",
                         help="round the crashes take effect (default 3)")
    fault_g.add_argument("--crash-restart", type=_positive_int_arg,
                         default=None, metavar="R",
                         help="restart crashed nodes after R rounds "
                         "(default: crashes are permanent)")
    fault_g.add_argument("--fault-seed", type=int, default=0,
                         help="root seed for all fault decisions")


def _fault_knobs(args: argparse.Namespace) -> Dict[str, Any]:
    """The fault flags as :data:`repro.faults.harness.FAULT_KNOBS`:
    keywords of ``fault_plan_for_profile`` and trace-spec params."""
    return {
        "drop_rate": args.drop_rate,
        "duplicate_rate": args.duplicate_rate,
        "delay_rate": args.delay_rate,
        "max_delay": args.max_delay,
        "crash_nodes": args.crash,
        "crash_round": args.crash_round,
        "restart_after": args.crash_restart,
        "fault_seed": args.fault_seed,
    }


def _add_transport_flags(parser: argparse.ArgumentParser) -> None:
    """The delivery-transport flag group (see docs/transport.md)."""
    group = parser.add_argument_group(
        "transport",
        "delivery transport: when sent messages land in inboxes "
        "(lockstep unless --latency-dist is nonzero; see "
        "docs/transport.md)",
    )
    group.add_argument(
        "--latency-dist",
        default="zero",
        metavar="SPEC",
        help="per-link latency model: zero, fixed:K, uniform:LO-HI, "
        "perlink:LO-HI, geometric:P:CAP; a nonzero model selects the "
        "async event transport (default zero = lockstep)",
    )
    group.add_argument(
        "--link-seed",
        type=int,
        default=0,
        help="root seed for latency draws (default 0)",
    )


def _build_transport(args: argparse.Namespace):
    """The async transport for a nonzero latency model, else None (sync).

    Zero latency needs no transport object: async at zero latency is
    bit-identical to lockstep.  A fresh instance per call: transports
    bind to exactly one simulator run.
    """
    from repro.congest.transport import AsyncEventTransport
    from repro.workloads.latency import parse_latency

    latency = parse_latency(args.latency_dist)
    if latency.bound() > 0:
        return AsyncEventTransport(latency, link_seed=args.link_seed)
    return None


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the run's one artifact as JSON: metrics, event "
        "records, timer spans as Chrome traceEvents, and the causal "
        "trace when the run is traced",
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.io import save_profile

    prefs = default_instance(args.workload, args.n, args.seed)
    save_profile(
        prefs,
        args.out,
        metadata={
            "workload": args.workload,
            "n": args.n,
            "seed": args.seed,
        },
    )
    print(
        f"wrote {args.workload} instance (n_men={prefs.n_men}, "
        f"|E|={prefs.num_edges}) to {args.out}"
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    import json

    if args.input:
        from repro.io import load_profile

        prefs = load_profile(args.input)
        args.workload = f"file:{args.input}"
        args.n = prefs.n_men
    else:
        prefs = default_instance(args.workload, args.n, args.seed)

    is_asm = args.algorithm in ("asm", "rand-asm", "almost-regular-asm")
    if args.slo_deadline is not None and args.slo_eps is None:
        print("error: --slo-deadline requires --slo-eps", file=sys.stderr)
        return 2
    if args.slo_eps is not None and not is_asm:
        print(
            "error: --slo-eps applies to the ASM variants only",
            file=sys.stderr,
        )
        return 2
    if is_asm:
        params: Dict[str, Any] = {"eps": args.eps}
    elif args.algorithm == "truncated-gs":
        params = {"iterations": args.gs_iterations}
    else:
        params = {}
    telemetry = _telemetry_for(args, args.algorithm, params)
    monitor = None
    if args.slo_eps is not None:
        from repro.trace import SLOMonitor, StabilitySLO

        monitor = SLOMonitor(
            prefs,
            StabilitySLO(args.slo_eps, deadline_rounds=args.slo_deadline),
        )

    t0 = time.perf_counter()
    if args.algorithm == "asm":
        result = asm(prefs, args.eps, observer=monitor, telemetry=telemetry)
    elif args.algorithm == "rand-asm":
        result = rand_asm(
            prefs, args.eps, seed=args.seed,
            observer=monitor, telemetry=telemetry,
        )
    elif args.algorithm == "almost-regular-asm":
        result = almost_regular_asm(
            prefs, args.eps, seed=args.seed,
            observer=monitor, telemetry=telemetry,
        )
    elif args.algorithm in ("gale-shapley", "truncated-gs"):
        truncated = args.algorithm == "truncated-gs"
        gs = (
            truncated_gale_shapley(prefs, args.gs_iterations)
            if truncated
            else gale_shapley(prefs)
        )
        rep = stability_report(prefs, gs.matching)
        if telemetry is not None:
            telemetry.metrics.inc("gs.proposals", gs.proposals)
            telemetry.metrics.inc("gs.rounds", gs.rounds)
            telemetry.metrics.set_gauge("gs.matching_size", rep.matching_size)
            telemetry.metrics.set_gauge("run.wall_seconds", time.perf_counter() - t0)
        _export_telemetry(args, telemetry)
        row: Dict[str, Any] = {
            "algorithm": (
                f"truncated-gs@{args.gs_iterations}"
                if truncated
                else "gale-shapley"
            ),
            "matching_size": rep.matching_size,
            "blocking_pairs": rep.blocking_pairs,
            "instability": rep.instability,
        }
        if truncated:
            row["rounds"] = gs.rounds
        else:
            row["proposals"] = gs.proposals
        row["seconds"] = time.perf_counter() - t0
        print(format_table([row], title=f"{args.workload} n={args.n}"))
        return 0
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.algorithm)
    if telemetry is not None:
        telemetry.metrics.set_gauge("run.wall_seconds", time.perf_counter() - t0)
        telemetry.metrics.inc("asm.rounds_active", result.rounds_active)
        telemetry.metrics.inc("asm.rounds_scheduled", result.rounds_scheduled)
    _export_telemetry(args, telemetry)
    slo_ok = monitor is None or monitor.satisfied
    if args.json:
        payload = result.to_dict()
        payload["instability"] = stability_report(
            prefs, result.matching
        ).instability
        if monitor is not None:
            payload["slo"] = monitor.report()
        print(json.dumps(payload, indent=2))
        return 0 if slo_ok else 1
    rep = stability_report(prefs, result.matching, eps=2.0 / result.k)
    row = {
        "algorithm": args.algorithm,
        "eps": args.eps,
        "matching_size": rep.matching_size,
        "blocking_pairs": rep.blocking_pairs,
        "instability": rep.instability,
        "eps_bound_ok": rep.instability <= args.eps,
        "good_men": len(result.good_men),
        "bad_men": len(result.bad_men),
        "rounds_active": result.rounds_active,
        "rounds_scheduled": result.rounds_scheduled,
        "seconds": time.perf_counter() - t0,
    }
    print(
        format_table(
            [row], title=f"{args.workload} n={args.n} |E|={prefs.num_edges}"
        )
    )
    if monitor is not None:
        report = monitor.report()
        print(
            f"SLO target_eps={report['target_eps']} "
            f"deadline={report['deadline_rounds']}: "
            f"final_eps={report['final_eps']:.4f} "
            f"worst_eps={report['worst_eps']:.4f} "
            f"violations={len(report['violations'])} "
            f"-> {'PASS' if slo_ok else 'FAIL'}"
        )
    return 0 if slo_ok else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    import json

    kwargs = _QUICK_OVERRIDES.get(args.name.lower(), {}) if args.quick else {}
    if args.seed is not None:
        kwargs = dict(kwargs, seed=args.seed)
    try:
        result = run_experiment(
            args.name, pool=TrialPool(workers=args.workers), **kwargs
        )
    except KeyError:
        print(
            f"error: unknown experiment {args.name!r}; "
            f"valid ids: {', '.join(sorted(ALL_EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.table())
    return 0 if result.passed else 1


def _cmd_report(args: argparse.Namespace) -> int:
    import json

    names = list(ALL_EXPERIMENTS)
    if args.only:
        requested = [
            part.strip().lower()
            for chunk in args.only
            for part in chunk.split(",")
            if part.strip()
        ]
        unknown = sorted(set(requested) - set(ALL_EXPERIMENTS))
        if unknown:
            print(
                f"error: unknown experiment ids {', '.join(unknown)}; "
                f"valid ids: {', '.join(sorted(ALL_EXPERIMENTS))}",
                file=sys.stderr,
            )
            return 2
        # Keep registry order (e1..a5), independent of --only order.
        names = [name for name in names if name in set(requested)]
    pool = TrialPool(workers=args.workers)
    all_passed = True
    documents: List[Dict[str, Any]] = []
    for name in names:
        kwargs = _QUICK_OVERRIDES.get(name, {}) if args.quick else {}
        t0 = time.perf_counter()
        result = run_experiment(name, pool=pool, **kwargs)
        if args.json:
            documents.append(result.to_dict())
        elif args.markdown:
            print(result.to_markdown())
            print()
        else:
            print(result.table())
            print(f"elapsed: {time.perf_counter() - t0:.1f}s")
            print()
        all_passed = all_passed and result.passed
    if args.json:
        # No wall-clock fields: byte-identical for any --workers N,
        # which is what the parallel-smoke CI job diffs.
        print(
            json.dumps(
                {"experiments": documents, "overall_passed": all_passed},
                indent=2,
            )
        )
    elif args.markdown:
        print(f"**Overall: {'PASS' if all_passed else 'FAIL'}**")
    else:
        print("overall:", "PASS" if all_passed else "FAIL")
    return 0 if all_passed else 1


def _cmd_congest(args: argparse.Namespace) -> int:
    """Run a message-level protocol and print simulation statistics."""
    from repro.congest.driver import assemble, player_partner
    from repro.congest.protocols import (
        run_congest_almost_regular_asm,
        run_congest_asm,
        run_congest_gale_shapley,
        run_congest_rand_asm,
    )
    from repro.faults.harness import fault_plan_for_profile

    prefs = default_instance(args.workload, args.n, args.seed)
    try:
        transport = _build_transport(args)
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    plan = fault_plan_for_profile(prefs, **_fault_knobs(args))
    if plan.is_null:
        plan = None  # no fault flag set: run fault-free
    telemetry = _telemetry_for(
        args,
        f"congest-{args.protocol}",
        {
            "eps": args.eps,
            "inner_iterations": args.inner,
            "outer_iterations": args.outer,
            "mm_iterations": args.mm_iterations,
            "faults": plan is not None,
        },
    )
    if telemetry is not None and telemetry.manifest is not None \
            and plan is not None:
        telemetry.manifest.record_fault_plan(plan)
    if telemetry is not None and telemetry.manifest is not None \
            and transport is not None:
        telemetry.manifest.record_transport(transport)
    t0 = time.perf_counter()
    unresolved: Any = "-"
    retries: Any = "-"
    if args.protocol == "gale-shapley":
        matching, sim = run_congest_gale_shapley(
            prefs, telemetry=telemetry, faults=plan, transport=transport
        )
        unresolved = len(assemble(sim, player_partner).unresolved)
        stats, injector = sim.stats, sim.faults
        fstats = injector.stats if injector is not None else None
    else:
        overrides = dict(
            inner_iterations=args.inner,
            outer_iterations=args.outer,
            mm_iterations=args.mm_iterations,
            faults=plan,
            transport=transport,
        )
        if args.protocol == "asm":
            result = run_congest_asm(prefs, args.eps, seed=args.seed,
                                     telemetry=telemetry, **overrides)
        elif args.protocol == "rand-asm":
            result = run_congest_rand_asm(prefs, args.eps, seed=args.seed,
                                          telemetry=telemetry, **overrides)
        else:  # almost-regular-asm
            result = run_congest_almost_regular_asm(
                prefs,
                args.eps,
                seed=args.seed,
                quantile_match_iterations=args.inner,
                mm_iterations=args.mm_iterations,
                telemetry=telemetry,
                faults=plan,
                transport=transport,
            )
        matching, stats = result.matching, result.stats
        fstats = result.fault_stats
        unresolved = len(result.unresolved_men) + len(result.unresolved_women)
        retries = result.retries
    fault_row: Dict[str, Any] = {}
    if fstats is not None:
        fault_row = {
            "outcome": stats.outcome,
            "dropped": fstats.messages_dropped,
            "delayed": fstats.messages_delayed,
            "duplicated": fstats.messages_duplicated,
            "crashed": fstats.nodes_crashed,
            "unresolved": unresolved,
            "retries": retries,
        }
    rep = stability_report(prefs, matching)
    if telemetry is not None:
        telemetry.metrics.set_gauge("run.wall_seconds", time.perf_counter() - t0)
        telemetry.metrics.set_gauge("congest.matching_size", rep.matching_size)
        telemetry.metrics.set_gauge("congest.max_message_bits",
                                    stats.max_message_bits)
    _export_telemetry(args, telemetry)
    row: Dict[str, Any] = {
        "protocol": args.protocol,
        "matching_size": rep.matching_size,
        "instability": rep.instability,
        "rounds": stats.rounds,
        "messages": stats.messages,
        "total_bits": stats.total_bits,
        "max_msg_bits": stats.max_message_bits,
    }
    if transport is not None:
        # Extra columns only under a non-default transport, so default
        # runs (and their golden outputs) print exactly as before.
        row["transport"] = transport.kind
        row["deferred"] = transport.deferred
        row["in_flight"] = transport.in_flight()
    row.update(fault_row)
    row["seconds"] = time.perf_counter() - t0
    print(
        format_table(
            [row],
            title=f"CONGEST {args.protocol} on {args.workload} n={args.n}",
        )
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run traced message-level trials; export them via --metrics-out."""
    import json

    from repro.parallel.spec import TrialSpec, derive_seed
    from repro.trace import (
        CausalTrace,
        CausalTracer,
        TRACE_TRIAL_RUNNER,
        merge_trace_trials,
    )

    if args.explain is not None and args.trials != 1:
        print(
            "error: --explain requires --trials 1 (trace ids are "
            "per-trial)",
            file=sys.stderr,
        )
        return 2
    protocol = "gs" if args.protocol == "gale-shapley" else "asm"
    extra: Dict[str, Any] = {"protocol": protocol, **_fault_knobs(args)}
    for name in ("k", "inner", "outer", "mm_iterations"):
        value = getattr(args, name)
        if value is not None:
            extra[name] = value
    telemetry = _telemetry_for(
        args,
        f"congest-{args.protocol}",
        {"eps": args.eps, "trials": args.trials, **extra},
    )
    t0 = time.perf_counter()
    specs = [
        TrialSpec.make(
            TRACE_TRIAL_RUNNER,
            algorithm=f"congest-{args.protocol}",
            workload=args.workload,
            n=args.n,
            eps=args.eps,
            seed=derive_seed(args.seed, "trace", index),
            trial=index,
            **extra,
        )
        for index in range(args.trials)
    ]
    results = TrialPool(workers=args.workers).run(specs)
    merged = merge_trace_trials(results)
    trace = CausalTrace(merged["trace"])
    dropped = trace.dropped()
    if telemetry is not None:
        telemetry.metrics.merge(merged["metrics"])
        telemetry.metrics.set_gauge(
            "run.wall_seconds", time.perf_counter() - t0
        )
        telemetry.tracer = CausalTracer.from_records(merged["trace"])
    _export_telemetry(args, telemetry)
    if args.json:
        print(
            json.dumps(
                {
                    "trials": merged["trials"],
                    "trace_records": len(merged["trace"]),
                    "dropped_messages": len(dropped),
                    "profile_summary": merged["profile_summary"],
                },
                indent=2,
            )
        )
        return 0
    if args.explain is not None:
        man, woman = args.explain
        print(json.dumps(trace.explain_blocking_pair(man, woman), indent=2))
        return 0
    rows = [
        {
            "trial": t["trial"],
            "outcome": t["outcome"],
            "rounds": t["rounds"],
            "messages": t["messages"],
            "instability": round(t["instability"], 4),
            "unresolved": len(t["unresolved_men"])
            + len(t["unresolved_women"]),
        }
        for t in merged["trials"]
    ]
    print(
        format_table(
            rows,
            title=f"traced {args.protocol} on {args.workload} n={args.n}",
        )
    )
    impact = trace.fault_impact()
    print(
        f"trace: {len(merged['trace'])} records, "
        f"{len(dropped)} dropped messages"
    )
    if impact["by_action"]:
        parts = ", ".join(
            f"{action}={count}"
            for action, count in impact["by_action"].items()
        )
        print(f"faults: {parts}")
    return 0


def _cmd_dynamic(args: argparse.Namespace) -> int:
    """Run seeded churn trials of the online dynamic matching engine."""
    import json

    from repro.dynamic.harness import (
        DYNAMIC_TRIAL_RUNNER,
        merge_dynamic_trials,
    )
    from repro.obs.metrics import MetricsRegistry
    from repro.parallel.spec import TrialSpec, derive_seed

    t0 = time.perf_counter()
    extra: Dict[str, Any] = {
        "churn_steps": args.churn_steps,
        "repair_radius": args.repair_radius,
        "arrival_weight": args.arrival_weight,
        "departure_weight": args.departure_weight,
        "edge_weight": args.edge_weight,
        "swap_weight": args.swap_weight,
    }
    if args.slo_eps is not None:
        extra["slo_eps"] = args.slo_eps
    if args.repair_passes is not None:
        extra["repair_passes"] = args.repair_passes
    telemetry = _telemetry_for(
        args,
        "dynamic",
        {
            "churn_steps": args.churn_steps,
            "slo_eps": args.slo_eps,
            "repair_radius": args.repair_radius,
            "trials": args.trials,
        },
    )
    if telemetry is not None:
        extra["metrics"] = True  # each trial ships its engine's registry
    specs = [
        TrialSpec.make(
            DYNAMIC_TRIAL_RUNNER,
            algorithm="dynamic",
            workload=args.workload,
            n=args.n,
            eps=args.eps,
            seed=args.seed,
            churn_seed=derive_seed(args.seed, "churn", index),
            trial=index,
            **extra,
        )
        for index in range(args.trials)
    ]
    results = TrialPool(workers=args.workers, telemetry=telemetry).run(specs)
    merged = merge_dynamic_trials(results)
    # Kept out of the --json document, which must not depend on wall
    # time or worker count.
    trial_metrics = merged.pop("metrics", None)
    wall = time.perf_counter() - t0
    if telemetry is not None:
        telemetry.metrics.merge(
            MetricsRegistry.from_raw_state(trial_metrics or {})
        )
        telemetry.metrics.set_gauge("run.wall_seconds", wall)
        telemetry.metrics.set_gauge("dynamic.deltas", merged["deltas"])
        telemetry.metrics.set_gauge("dynamic.fallbacks", merged["fallbacks"])
        telemetry.metrics.set_gauge("dynamic.marriages", merged["marriages"])
        telemetry.metrics.set_gauge("dynamic.worst_eps", merged["worst_eps"])
    _export_telemetry(args, telemetry)
    if args.json:
        # Deterministic document: no wall-clock fields, so any
        # --workers N produces byte-identical output.
        print(json.dumps(merged, indent=2, sort_keys=True))
        return 0 if merged["eps_ok"] else 1
    rows = [
        {
            "trial": t["trial"],
            "deltas": t["deltas"],
            "fallbacks": t["fallbacks"],
            "marriages": t["marriages"],
            "final_eps": round(t["final_eps"], 4),
            "worst_eps": round(t["worst_eps"], 4),
            "matched": t["matching_size"],
            "slo": "ok" if t["eps_ok"] else "VIOLATED",
        }
        for t in merged["trials"]
    ]
    print(
        format_table(
            rows,
            title=(
                f"dynamic engine: {args.trials} churn trial(s), "
                f"workload={args.workload} n={args.n} eps={args.eps}"
            ),
        )
    )
    target = args.slo_eps if args.slo_eps is not None else args.eps
    print(
        f"{merged['deltas']} deltas, {merged['fallbacks']} fallbacks, "
        f"worst eps {merged['worst_eps']:.4f} "
        f"(SLO target {target}), wall {wall:.2f}s"
    )
    if not merged["eps_ok"]:
        print(
            "FAIL: a trial breached the SLO target after a delta",
            file=sys.stderr,
        )
        return 1
    return 0


def _git_rev() -> str:
    """Short git revision of the working tree, or ``"dev"``."""
    import subprocess

    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        # git missing / not a repo / timeout — anything else (a
        # programming error) propagates instead of masquerading as
        # a "dev" build.
        return "dev"
    rev = proc.stdout.strip()
    return rev if rev else "dev"


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the pinned counter matrix; optionally gate vs. a baseline."""
    from repro.io import load_bench, save_bench
    from repro.perf.bench import compare_reports, run_bench

    rev = _git_rev()
    report = run_bench(scale=args.scale)
    out = args.out if args.out else f"BENCH_{rev}.json"
    save_bench(report, out, metadata={"rev": rev})

    rows: List[Dict[str, Any]] = []
    for case in report["cases"]:
        rows.append(
            {
                "case": case["name"],
                "messages": case["counters"]["messages"],
                "rounds": case["counters"]["rounds_active"],
                "blocking": case["counters"]["blocking_pairs"],
                "matched": case["counters"]["matching_size"],
            }
        )
    print(format_table(rows, title=f"bench matrix ({args.scale} scale)"))
    ivo = report["index_vs_oracle"]
    print(
        f"index vs oracle (n={ivo['n']}, {ivo['steps']} steps): "
        f"final blocking pairs={ivo['final_blocking_pairs']}, "
        f"agreement={'exact' if ivo['agree'] else 'BROKEN'}"
    )
    dvf = report["dynamic_vs_full"]
    print(_dynamic_line("dynamic engine", dvf))
    vec = report.get("vec") or {}
    vec_broken = False
    if vec.get("available"):
        vrows: List[Dict[str, Any]] = []
        for case in vec.get("cases", []):
            row: Dict[str, Any] = {
                "case": case["name"],
                "messages": case["counters"]["messages"],
                "blocking": case["counters"]["blocking_pairs"],
                "matched": case["counters"]["matching_size"],
            }
            if case.get("mode") == "dual":
                identical = case.get("results_identical", False)
                row["identical"] = "yes" if identical else "BROKEN"
                vec_broken = vec_broken or not identical
            vrows.append(row)
        if vrows:
            print(format_table(rows=vrows, title="vec engine suite"))
        dvfv = vec.get("dynamic_vs_full_vec")
        if dvfv:
            print(_dynamic_line("dynamic engine, vec solver", dvfv))
    else:
        print(
            "vec engine suite: skipped "
            "(numpy unavailable; install repro[fast])"
        )
    print(f"wrote {out}", file=sys.stderr)
    if vec_broken:
        print(
            "FAIL: optimized and vec engine results diverged "
            "(bit-identity contract broken)",
            file=sys.stderr,
        )
        return 1
    if not ivo["agree"]:
        print(
            "FAIL: incremental index disagrees with the full-scan oracle",
            file=sys.stderr,
        )
        return 1
    if not dvf["index_agrees"] or not dvf["eps_ok"]:
        print(
            "FAIL: dynamic engine broke its stability contract "
            "(see dynamic_vs_full in the report)",
            file=sys.stderr,
        )
        return 1
    dvfv = vec.get("dynamic_vs_full_vec")
    if dvfv and (not dvfv["index_agrees"] or not dvfv["eps_ok"]):
        print(
            "FAIL: dynamic engine broke its stability contract on the "
            "vec solver arm (see vec.dynamic_vs_full_vec in the report)",
            file=sys.stderr,
        )
        return 1
    if args.baseline:
        violations = compare_reports(report, load_bench(args.baseline))
        if violations:
            for violation in violations:
                print(f"REGRESSION: {violation}", file=sys.stderr)
            return 1
        print(f"baseline gate: PASS (vs {args.baseline})")
    return 0


def _dynamic_line(title: str, dvf: Dict[str, Any]) -> str:
    """One summary line for a bench dynamic-engine section."""
    return (
        f"{title} (n={dvf['n']}, {dvf['deltas']} deltas): "
        f"marriages={dvf['marriages']}, fallbacks={dvf['fallbacks']}, "
        f"eps_ok={'yes' if dvf['eps_ok'] else 'NO'}, "
        f"index={'exact' if dvf['index_agrees'] else 'BROKEN'}"
    )


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the static CONGEST-compliance / determinism analyzer."""
    import dataclasses
    import json
    from pathlib import Path

    from repro.lint import (
        apply_baseline,
        baseline_payload,
        format_json,
        format_sarif,
        format_text,
        load_baseline,
        load_config,
        run_lint,
    )

    config = load_config(args.config)
    if args.flow:
        config = dataclasses.replace(config, flow=True)
    if args.disable:
        disabled = [
            part.strip()
            for chunk in args.disable
            for part in chunk.split(",")
            if part.strip()
        ]
        config = config.with_disabled(*disabled)
    if args.list_rules:
        from repro.lint import all_rules

        for rule in sorted(all_rules(), key=lambda r: r.rule_id):
            marker = (
                " " if config.rule_enabled(rule.rule_id, rule.family) else "-"
            )
            print(f"{marker} {rule.rule_id} [{rule.family}] {rule.description}")
        return 0
    report = run_lint(args.paths or None, config)
    if args.update_baseline:
        if args.baseline is None:
            print(
                "lint: --update-baseline requires --baseline PATH",
                file=sys.stderr,
            )
            return 2
        payload = baseline_payload(report)
        Path(args.baseline).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(
            f"baseline: accepted {len(payload['findings'])} finding(s) "
            f"into {args.baseline}"
        )
        return 0
    if args.baseline is not None:
        report = apply_baseline(report, load_baseline(args.baseline))
    if args.format == "json":
        print(format_json(report))
    elif args.format == "sarif":
        print(format_sarif(report))
    else:
        print(format_text(report))
    return 0 if report.ok else 1


def _cmd_list(_args: argparse.Namespace) -> int:
    print("experiments:", ", ".join(sorted(ALL_EXPERIMENTS)))
    print("workloads:  ", ", ".join(sorted(GENERATORS)))
    print(
        "algorithms: asm, rand-asm, almost-regular-asm, gale-shapley, "
        "truncated-gs"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-asm`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-asm",
        description=(
            "Reproduction of 'Fast Distributed Almost Stable Matchings' "
            "(Ostrovsky & Rosenbaum, PODC 2015)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one algorithm on one instance")
    run_p.add_argument(
        "--algorithm",
        choices=[
            "asm",
            "rand-asm",
            "almost-regular-asm",
            "gale-shapley",
            "truncated-gs",
        ],
        default="asm",
    )
    run_p.add_argument("--workload", choices=sorted(GENERATORS), default="complete")
    run_p.add_argument("--n", type=_nonnegative_int_arg, default=128)
    run_p.add_argument("--eps", type=_eps_arg, default=0.2)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument(
        "--gs-iterations",
        type=_nonnegative_int_arg,
        default=16,
        help="truncation budget for truncated-gs",
    )
    run_p.add_argument(
        "--json",
        action="store_true",
        help="emit a JSON result summary (ASM variants only)",
    )
    run_p.add_argument(
        "--input",
        default=None,
        help="load the instance from a file written by `generate` "
        "(overrides --workload/--n/--seed)",
    )
    run_p.add_argument("--slo-eps", type=_rate_arg, default=None,
                       metavar="EPS",
                       help="declare an eps-stability SLO target (ASM "
                       "variants); exit 1 if it is not met")
    run_p.add_argument("--slo-deadline", type=_nonnegative_int_arg,
                       default=None, metavar="ROUNDS",
                       help="ProposalRound deadline after which the "
                       "SLO must hold (default: final matching only)")
    _add_telemetry_flags(run_p)
    run_p.set_defaults(func=_cmd_run)

    gen_p = sub.add_parser(
        "generate", help="write a generated instance to a JSON file"
    )
    gen_p.add_argument("--workload", choices=sorted(GENERATORS),
                       default="complete")
    gen_p.add_argument("--n", type=_nonnegative_int_arg, default=128)
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("--out", required=True, help="output path")
    gen_p.set_defaults(func=_cmd_generate)

    exp_p = sub.add_parser("experiment", help="run one DESIGN.md experiment")
    exp_p.add_argument("name", help="experiment id, e.g. e1 or a3")
    exp_p.add_argument("--quick", action="store_true", help="small-scale run")
    exp_p.add_argument("--seed", type=int, default=None)
    exp_p.add_argument(
        "--json",
        action="store_true",
        help="emit the result as JSON instead of a table",
    )
    _add_workers_flag(exp_p)
    exp_p.set_defaults(func=_cmd_experiment)

    rep_p = sub.add_parser("report", help="run every experiment")
    rep_p.add_argument("--quick", action="store_true", help="small-scale run")
    rep_p.add_argument(
        "--markdown",
        action="store_true",
        help="emit markdown sections (for EXPERIMENTS.md)",
    )
    rep_p.add_argument(
        "--json",
        action="store_true",
        help="emit all results as one JSON document (no timing fields; "
        "deterministic across --workers, used by the CI parallel-smoke "
        "diff)",
    )
    rep_p.add_argument(
        "--only",
        action="append",
        default=[],
        metavar="IDS",
        help="comma-separated experiment ids to run (repeatable); "
        "default: all",
    )
    _add_workers_flag(rep_p)
    rep_p.set_defaults(func=_cmd_report)

    con_p = sub.add_parser(
        "congest", help="run a message-level protocol on the simulator"
    )
    con_p.add_argument(
        "--protocol",
        choices=["asm", "rand-asm", "almost-regular-asm", "gale-shapley"],
        default="asm",
    )
    con_p.add_argument("--workload", choices=sorted(GENERATORS),
                       default="complete")
    con_p.add_argument("--n", type=_nonnegative_int_arg, default=8)
    con_p.add_argument("--eps", type=_eps_arg, default=0.5)
    con_p.add_argument("--seed", type=int, default=0)
    con_p.add_argument("--inner", type=_positive_int_arg, default=6,
                       help="inner-loop / flat iterations override")
    con_p.add_argument("--outer", type=_positive_int_arg, default=4,
                       help="outer-loop iterations override")
    con_p.add_argument("--mm-iterations", type=_positive_int_arg, default=16,
                       help="matching-phase iteration budget")
    _add_fault_flags(con_p)
    _add_transport_flags(con_p)
    _add_telemetry_flags(con_p)
    con_p.set_defaults(func=_cmd_congest)

    trace_p = sub.add_parser(
        "trace",
        help="run traced protocol trials; --metrics-out carries the "
        "causal trace and the wall-clock spans",
    )
    trace_p.add_argument(
        "--protocol", choices=["asm", "gale-shapley"], default="asm"
    )
    trace_p.add_argument("--workload", choices=sorted(GENERATORS),
                         default="complete")
    trace_p.add_argument("--n", type=_nonnegative_int_arg, default=8)
    trace_p.add_argument("--eps", type=_eps_arg, default=0.5)
    trace_p.add_argument("--seed", type=int, default=0,
                         help="root seed; per-trial seeds are derived "
                         "deterministically from it")
    trace_p.add_argument("--k", type=_positive_int_arg, default=None,
                         help="quantile-count override (default: the "
                         "eps-derived schedule; small k keeps traces "
                         "small)")
    trace_p.add_argument("--inner", type=_positive_int_arg, default=None,
                         help="inner-loop iterations override")
    trace_p.add_argument("--outer", type=_positive_int_arg, default=None,
                         help="outer-loop iterations override")
    trace_p.add_argument("--mm-iterations", type=_positive_int_arg,
                         default=None,
                         help="matching-phase iteration budget")
    trace_p.add_argument("--trials", type=_positive_int_arg, default=1,
                         help="independent traced trials (merged in "
                         "spec order; default 1)")
    trace_p.add_argument("--explain", nargs=2, type=int, default=None,
                         metavar=("M", "W"),
                         help="print the causal explanation for pair "
                         "(man M, woman W); requires --trials 1")
    trace_p.add_argument("--json", action="store_true",
                         help="emit a JSON summary (no wall-clock "
                         "fields; deterministic across --workers)")
    _add_fault_flags(trace_p)
    _add_workers_flag(trace_p)
    _add_telemetry_flags(trace_p)
    trace_p.set_defaults(func=_cmd_trace)

    dyn_p = sub.add_parser(
        "dynamic",
        help="run the online dynamic matching engine over seeded "
        "churn streams (see docs/dynamic.md)",
    )
    dyn_p.add_argument("--workload", choices=sorted(GENERATORS),
                       default="complete",
                       help="starting-instance generator (default "
                       "complete)")
    dyn_p.add_argument("--n", type=_nonnegative_int_arg, default=64,
                       help="starting-instance size (default 64)")
    dyn_p.add_argument("--eps", type=_eps_arg, default=0.2,
                       help="target instability: ASM parameter for the "
                       "warm start and every fallback (default 0.2)")
    dyn_p.add_argument("--seed", type=int, default=0,
                       help="root seed: instance and per-trial churn "
                       "seeds derive from it")
    dyn_p.add_argument("--churn-steps", type=_nonnegative_int_arg, default=64,
                       metavar="STEPS",
                       help="deltas per trial (default 64)")
    dyn_p.add_argument("--slo-eps", type=_rate_arg, default=None,
                       metavar="EPS",
                       help="fallback threshold: a full ASM re-run "
                       "restores stability whenever post-repair eps "
                       "exceeds this (default: --eps)")
    dyn_p.add_argument("--repair-radius", type=_nonnegative_int_arg, default=2,
                       metavar="HOPS",
                       help="BFS hops around perturbed players the "
                       "localized repair may touch (default 2; 0 "
                       "disables repair)")
    dyn_p.add_argument("--repair-passes", type=_positive_int_arg, default=None,
                       metavar="N",
                       help="propose-accept pass budget per delta "
                       "(default: ceil(8/eps), QuantileMatch's k)")
    dyn_p.add_argument("--arrival-weight", type=float, default=1.0,
                       metavar="W",
                       help="relative draw weight of arrivals "
                       "(default 1.0)")
    dyn_p.add_argument("--departure-weight", type=float, default=1.0,
                       metavar="W",
                       help="relative draw weight of departures "
                       "(default 1.0)")
    dyn_p.add_argument("--edge-weight", type=float, default=4.0,
                       metavar="W",
                       help="relative draw weight of edge add/removes "
                       "(default 4.0)")
    dyn_p.add_argument("--swap-weight", type=float, default=4.0,
                       metavar="W",
                       help="relative draw weight of adjacent "
                       "preference swaps (default 4.0)")
    dyn_p.add_argument("--trials", type=_positive_int_arg, default=1,
                       help="independent churn trials (default 1)")
    dyn_p.add_argument("--json", action="store_true",
                       help="emit the merged trial document as JSON "
                       "(deterministic: byte-identical for any "
                       "--workers N)")
    _add_workers_flag(dyn_p)
    _add_telemetry_flags(dyn_p)
    dyn_p.set_defaults(func=_cmd_dynamic)

    bench_p = sub.add_parser(
        "bench",
        help="run the pinned counter matrix and write BENCH_<rev>.json",
    )
    bench_p.add_argument(
        "--scale",
        choices=["full", "smoke"],
        default="full",
        help="full = committed-report sizes; smoke = CI sizes",
    )
    bench_p.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="output path (default: BENCH_<git-rev>.json)",
    )
    bench_p.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="compare counters against this committed report and fail "
        "on any drift",
    )
    bench_p.set_defaults(func=_cmd_bench)

    lint_p = sub.add_parser(
        "lint",
        help="statically check CONGEST compliance, determinism, and "
        "telemetry hygiene",
    )
    lint_p.add_argument(
        "paths",
        nargs="*",
        help="files/directories to analyze (default: [tool.repro-lint] "
        "paths, falling back to src/repro)",
    )
    lint_p.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="report format (json is what the CI gate consumes; sarif "
        "feeds GitHub code-scanning annotations)",
    )
    lint_p.add_argument(
        "--flow",
        action="store_true",
        help="also run the interprocedural determinism-flow analysis "
        "(FLOW001-FLOW004): whole-program taint tracking of unordered "
        "iteration and unseeded randomness",
    )
    lint_p.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="findings baseline (e.g. benchmarks/lint_baseline.json): "
        "accepted findings are counted, not failing",
    )
    lint_p.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline to accept every current finding, then "
        "exit 0",
    )
    lint_p.add_argument(
        "--config",
        default=None,
        metavar="PYPROJECT",
        help="pyproject.toml with a [tool.repro-lint] table "
        "(default: ./pyproject.toml when present)",
    )
    lint_p.add_argument(
        "--disable",
        action="append",
        default=[],
        metavar="RULES",
        help="comma-separated rule ids or families to disable "
        "(repeatable), e.g. --disable DET001,TEL",
    )
    lint_p.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules ('-' marks disabled) and exit",
    )
    lint_p.set_defaults(func=_cmd_lint)

    list_p = sub.add_parser("list", help="list experiments and workloads")
    list_p.set_defaults(func=_cmd_list)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro-asm`` and ``python -m repro``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output was piped into a consumer that closed early (e.g.
        # `repro-asm ... | head`); exit quietly like standard Unix tools.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
