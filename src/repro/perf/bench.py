"""Pinned counter matrix and regression gate for ``repro-asm bench``.

:func:`run_bench` executes a fixed workload matrix (full scale, or the
``smoke`` shrink used in CI) once and returns a machine-readable
report of the deterministic counters — messages, rounds, blocking
pairs, matching size — and correctness verdicts that must reproduce
*exactly* across machines.  These are the quantities the paper's
theorems bound.

:func:`compare_reports` is the gate: every counter is compared
strictly and every verdict must hold.  The bench measures no time and
no memory; those questions belong to the end-to-end benchmark
(``python3 benchmarks/e2e/run.py`` and ``benchmarks/e2e/compare.py``).

This module performs no I/O (TEL003): persistence goes through
:func:`repro.io.save_bench` and reporting through the CLI.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.stability import count_blocking_pairs
from repro.core.asm import asm
from repro.core.matching import MutableMatching
from repro.errors import InvalidParameterError
from repro.perf.blocking_index import BlockingPairIndex
from repro.workloads.generators import GENERATORS, gnp_incomplete

__all__ = [
    "BENCH_KIND",
    "WORKLOAD_MATRIX",
    "VEC_MATRIX",
    "run_bench",
    "run_index_vs_oracle",
    "run_dynamic_vs_full",
    "run_vec_suite",
    "compare_reports",
]

BENCH_KIND = "bench_report"

#: The pinned matrix: one entry per workload family we track.  ``full``
#: sizes are the committed-report scale; ``smoke`` sizes keep the
#: whole matrix to a few seconds for CI.
WORKLOAD_MATRIX: Tuple[Dict[str, Any], ...] = (
    {
        "name": "complete",
        "generator": "complete",
        "eps": 0.5,
        "full": {"n": 200, "seed": 7},
        "smoke": {"n": 24, "seed": 7},
    },
    {
        "name": "gnp_sparse",
        "generator": "gnp",
        "eps": 0.5,
        "full": {"n": 600, "p": 0.05, "seed": 11},
        "smoke": {"n": 40, "p": 0.2, "seed": 11},
    },
    {
        "name": "bounded_degree",
        "generator": "bounded",
        "eps": 0.25,
        "full": {"n": 400, "d": 12, "seed": 3},
        "smoke": {"n": 30, "d": 5, "seed": 3},
    },
    {
        "name": "master_list",
        "generator": "master_list",
        "eps": 0.5,
        "full": {"n": 150, "noise": 0.1, "seed": 5},
        "smoke": {"n": 20, "noise": 0.1, "seed": 5},
    },
    {
        "name": "euclidean",
        "generator": "euclidean",
        "eps": 0.5,
        "full": {"n": 300, "radius": 0.3, "seed": 9},
        "smoke": {"n": 24, "radius": 0.5, "seed": 9},
    },
)

#: Scales for the index-vs-oracle trajectory comparison.
INDEX_VS_ORACLE_SCALES: Dict[str, Dict[str, Any]] = {
    "full": {"n": 2000, "p": 0.01, "steps": 120, "seed": 17},
    "smoke": {"n": 120, "p": 0.2, "steps": 30, "seed": 17},
}

#: Scales for the dynamic-engine churn case: a seeded churn stream
#: replayed through :class:`~repro.dynamic.engine.DynamicMatchingEngine`,
#: whose result is checked against a fresh full-scan index.
DYNAMIC_VS_FULL_SCALES: Dict[str, Dict[str, Any]] = {
    "full": {"n": 10_000, "d": 8, "steps": 40, "seed": 23, "eps": 0.5},
    "smoke": {"n": 120, "d": 6, "steps": 16, "seed": 23, "eps": 0.5},
    # The vec-arm raise (part of the vec suite, not the main gate): one
    # order of magnitude above "full", runnable only because every full
    # solve — warm start and SLO fallbacks — goes through the numpy
    # engine (``solver="vec"``).
    "full_vec": {
        "n": 100_000, "d": 8, "steps": 20, "seed": 23, "eps": 0.5,
        "solver": "vec",
    },
}

#: The vec-engine matrix (``run_vec_suite``): the ``dual`` case runs
#: the pure-Python optimized engine and the numpy struct-of-arrays
#: engine on the same workload and asserts their results are
#: identical; ``vec``-mode cases run the numpy engine alone at scales
#: the Python engines cannot reach.  ``smoke`` keeps the n=10⁴ dual
#: case (the identity gate) and drops the larger scales.
VEC_MATRIX: Tuple[Dict[str, Any], ...] = (
    {
        "name": "vec_dual_1e4",
        "mode": "dual",
        "eps": 0.5,
        "full": {"n": 10_000, "d": 8, "seed": 42},
        "smoke": {"n": 10_000, "d": 8, "seed": 42},
    },
    {
        "name": "vec_scale_1e5",
        "mode": "vec",
        "eps": 0.5,
        "full": {"n": 100_000, "d": 8, "seed": 42},
    },
    {
        "name": "vec_scale_1e6",
        "mode": "vec",
        "eps": 0.5,
        "full": {"n": 1_000_000, "d": 8, "seed": 42},
    },
)

#: The dynamic-engine counters gated exactly by :func:`compare_reports`.
DYNAMIC_COUNTER_KEYS: Tuple[str, ...] = (
    "deltas",
    "fallbacks",
    "marriages",
    "final_blocking_pairs",
    "final_matching_size",
    "final_num_edges",
)


def _counters(result, blocking: int) -> Dict[str, int]:
    """The deterministic counters of one ASM solve."""
    return {
        "num_edges": result.num_edges,
        "matching_size": len(result.matching),
        "blocking_pairs": blocking,
        "rounds_active": result.rounds.rounds_active,
        "rounds_scheduled": result.rounds.rounds_scheduled,
        "synchronous_time": result.synchronous_time,
        "proposal_rounds_executed": result.proposal_rounds_executed,
        "messages": (
            result.messages.proposes
            + result.messages.accepts
            + result.messages.rejects
        ),
    }


def _run_case(case: Dict[str, Any], scale: str) -> Dict[str, Any]:
    params = dict(case[scale])
    prefs = GENERATORS[case["generator"]](**params)
    result = asm(prefs, case["eps"])
    return {
        "name": case["name"],
        "generator": case["generator"],
        "params": params,
        "eps": case["eps"],
        "counters": _counters(
            result, count_blocking_pairs(prefs, result.matching)
        ),
    }


def run_index_vs_oracle(scale: str = "full") -> Dict[str, Any]:
    """Incremental :class:`BlockingPairIndex` vs. the full-scan oracle.

    Replays the same blocking-pair-satisfaction trajectory twice — once
    maintaining the count incrementally, once re-counting with the
    ``O(|E|)`` full scan after every step — and reports whether the
    two count sequences agree exactly.
    """
    cfg = INDEX_VS_ORACLE_SCALES[scale]
    prefs = gnp_incomplete(cfg["n"], cfg["p"], seed=cfg["seed"])
    rng = random.Random(cfg["seed"])

    # Pass 1: the incremental index drives the trajectory.
    index = BlockingPairIndex(prefs)
    ops: List[Tuple[int, int]] = []
    index_counts: List[int] = [len(index)]
    for _ in range(cfg["steps"]):
        if not len(index):
            break
        pair = index.choose(rng)
        index.satisfy(*pair)
        ops.append(pair)
        index_counts.append(len(index))

    # Pass 2: identical trajectory, full rescan per step.
    current = MutableMatching()
    oracle_counts: List[int] = [
        count_blocking_pairs(prefs, current.freeze())
    ]
    for m, w in ops:
        old_w = current.partner_of_man(m)
        old_m = current.partner_of_woman(w)
        if old_w is not None:
            current.unmatch_man(m)
        if old_m is not None:
            current.unmatch_woman(w)
        current.match(m, w)
        oracle_counts.append(count_blocking_pairs(prefs, current.freeze()))

    return {
        "n": cfg["n"],
        "p": cfg["p"],
        "steps": len(ops),
        "seed": cfg["seed"],
        "agree": index_counts == oracle_counts,
        "final_blocking_pairs": index_counts[-1],
    }


def run_dynamic_vs_full(scale: str = "full") -> Dict[str, Any]:
    """The dynamic engine over a churn stream, checked by a full scan.

    A :class:`~repro.dynamic.engine.DynamicMatchingEngine` replays a
    seeded churn stream; the case then pins the engine's counters and
    two verdicts: its incremental index must agree with a fresh
    full-scan index at the end (``index_agrees``), and ε must have
    stayed under the SLO target after every delta (``eps_ok``).
    """
    from repro.dynamic.engine import DynamicMatchingEngine
    from repro.workloads.churn import ChurnConfig, churn_stream

    if scale not in DYNAMIC_VS_FULL_SCALES:
        raise InvalidParameterError(
            f"unknown scale {scale!r}; "
            f"known: {sorted(DYNAMIC_VS_FULL_SCALES)}"
        )
    cfg = DYNAMIC_VS_FULL_SCALES[scale]
    solver = cfg.get("solver", True)
    prefs = GENERATORS["bounded"](cfg["n"], cfg["d"], cfg["seed"])
    deltas = churn_stream(
        prefs, ChurnConfig(steps=cfg["steps"]), cfg["seed"]
    )
    engine = DynamicMatchingEngine(
        prefs, cfg["eps"], solver_optimized=solver
    )
    engine.apply_stream(deltas)

    index_agrees = True
    try:
        engine.index.verify()
    except AssertionError:
        index_agrees = False
    return {
        "n": cfg["n"],
        "d": cfg["d"],
        "seed": cfg["seed"],
        "eps": cfg["eps"],
        "solver": "vec" if solver == "vec" else "python",
        "deltas": len(deltas),
        "fallbacks": engine.fallbacks,
        "marriages": engine.marriages,
        "final_blocking_pairs": len(engine.index),
        "final_matching_size": sum(
            1 for _ in engine.current_matching().pairs()
        ),
        "final_num_edges": engine.market.num_edges,
        "eps_ok": all(
            e <= engine.slo.target_eps + 1e-12 for _, e in engine.trajectory
        ),
        "index_agrees": index_agrees,
    }


def run_vec_suite(scale: str = "full") -> Dict[str, Any]:
    """Execute the :data:`VEC_MATRIX` and the vec dynamic-engine case.

    Returns ``{"available": False, "reason": ...}`` when numpy is not
    installed — the suite is an optional extra (``repro[fast]``), so
    its absence is reported, never an error, and
    :func:`compare_reports` skips vec gating for such reports.

    ``dual``-mode cases also run the pure-Python optimized engine on
    the same workload and record whether the two results are
    identical.
    """
    from repro.vec import HAS_NUMPY, VecUnavailableError

    if not HAS_NUMPY:
        try:  # raise for the canonical message, not a handcrafted copy
            from repro.vec import require_numpy

            require_numpy()
        except VecUnavailableError as exc:
            return {"available": False, "reason": str(exc), "cases": []}

    from repro.vec.stability import count_blocking_pairs_vec

    cases: List[Dict[str, Any]] = []
    for case in VEC_MATRIX:
        if scale not in case:
            continue
        params = dict(case[scale])
        eps = case["eps"]
        prefs = GENERATORS["bounded"](**params)
        result = asm(prefs, eps, optimized="vec")
        blocking = count_blocking_pairs_vec(prefs, result.matching.pairs())
        entry: Dict[str, Any] = {
            "name": case["name"],
            "mode": case["mode"],
            "params": params,
            "eps": eps,
            "counters": _counters(result, blocking),
        }
        if case["mode"] == "dual":
            opt_result = asm(prefs, eps, optimized=True)
            entry["results_identical"] = (
                opt_result.to_dict() == result.to_dict()
            )
        cases.append(entry)

    suite: Dict[str, Any] = {"available": True, "cases": cases}
    if scale == "full":
        suite["dynamic_vs_full_vec"] = run_dynamic_vs_full("full_vec")
    return suite


def run_bench(scale: str = "full") -> Dict[str, Any]:
    """Execute the pinned matrix once and return the report body.

    ``scale`` is ``"full"`` (the committed-report sizes) or
    ``"smoke"`` (the CI sizes of ``benchmarks/bench_baseline.json``).
    """
    if scale not in ("full", "smoke"):
        raise InvalidParameterError(
            f"scale must be 'full' or 'smoke', got {scale!r}"
        )
    return {
        "scale": scale,
        "cases": [_run_case(case, scale) for case in WORKLOAD_MATRIX],
        "index_vs_oracle": run_index_vs_oracle(scale),
        "dynamic_vs_full": run_dynamic_vs_full(scale),
        # Reports available=False cleanly on numpy-absent installs.
        "vec": run_vec_suite(scale),
    }


def compare_reports(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
) -> List[str]:
    """Violations of ``current`` against ``baseline``; empty = pass.

    Every deterministic counter must match exactly and every verdict
    must hold.  A case or section the baseline has and ``current``
    lacks is a violation.
    """
    if current.get("scale") != baseline.get("scale"):
        return [
            f"scale mismatch: current={current.get('scale')!r} "
            f"baseline={baseline.get('scale')!r}"
        ]
    violations = _compare_cases(
        "", current.get("cases", []), baseline.get("cases", [])
    )
    violations.extend(
        _compare_index(
            current.get("index_vs_oracle"), baseline.get("index_vs_oracle")
        )
    )
    violations.extend(
        _compare_dynamic(
            "dynamic_vs_full",
            current.get("dynamic_vs_full"),
            baseline.get("dynamic_vs_full"),
        )
    )
    violations.extend(_compare_vec(current, baseline))
    return violations


def _compare_cases(
    prefix: str,
    current: List[Dict[str, Any]],
    baseline: List[Dict[str, Any]],
) -> List[str]:
    """Per-case counter violations, matched by case name."""
    violations: List[str] = []
    cur_cases = {c["name"]: c for c in current}
    for base in baseline:
        name = prefix + base["name"]
        cur = cur_cases.get(base["name"])
        if cur is None:
            violations.append(f"{name}: missing from current report")
            continue
        diffs = [
            f"{key}: {value} -> {cur['counters'].get(key)}"
            for key, value in base["counters"].items()
            if cur["counters"].get(key) != value
        ]
        if diffs:
            violations.append(
                f"{name}: deterministic counters changed "
                f"({'; '.join(diffs)})"
            )
    return violations


def _compare_index(
    cur: Optional[Dict[str, Any]],
    base: Optional[Dict[str, Any]],
) -> List[str]:
    """Index-vs-oracle violations; gated when the baseline has it."""
    if base is None:
        return []
    if cur is None:
        return ["index_vs_oracle: missing from current report"]
    violations: List[str] = []
    if not cur.get("agree", False):
        violations.append(
            "index_vs_oracle: incremental index disagrees with "
            "full-scan oracle"
        )
    if cur.get("final_blocking_pairs") != base.get("final_blocking_pairs"):
        violations.append(
            "index_vs_oracle: trajectory diverged "
            f"({base.get('final_blocking_pairs')} -> "
            f"{cur.get('final_blocking_pairs')} final blocking pairs)"
        )
    return violations


def _compare_dynamic(
    label: str,
    cur: Optional[Dict[str, Any]],
    base: Optional[Dict[str, Any]],
) -> List[str]:
    """Dynamic-engine violations; gated when the baseline has it.

    Both verdicts must hold and every :data:`DYNAMIC_COUNTER_KEYS`
    counter must be unchanged.
    """
    if base is None:
        return []
    if cur is None:
        return [f"{label}: missing from current report"]
    violations: List[str] = []
    if not cur.get("index_agrees", False):
        violations.append(
            f"{label}: dynamic index disagrees with a fresh "
            "full-scan index after the churn stream"
        )
    if not cur.get("eps_ok", False):
        violations.append(f"{label}: ε exceeded the SLO target after a delta")
    for key in DYNAMIC_COUNTER_KEYS:
        if cur.get(key) != base.get(key):
            violations.append(
                f"{label}: {key} changed "
                f"({base.get(key)} -> {cur.get(key)})"
            )
    return violations


def _compare_vec(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
) -> List[str]:
    """Vec-suite violations; empty when either side lacks the suite.

    numpy is an optional extra, so a report with
    ``vec.available == False`` (or predating the suite) is a valid
    environment difference, not a regression — gating applies only
    when both reports actually ran the suite.  Result identity between
    the optimized and vec engines, however, is checked whenever the
    *current* report ran a dual case: a divergence is a correctness
    bug regardless of what the baseline saw.
    """
    violations: List[str] = []
    vec_cur = current.get("vec") or {}
    vec_base = baseline.get("vec") or {}
    for case in vec_cur.get("cases", []):
        if case.get("mode") == "dual" and not case.get("results_identical"):
            violations.append(
                f"vec/{case['name']}: optimized and vec engine results "
                "diverged (bit-identity contract broken)"
            )
    if not (vec_cur.get("available") and vec_base.get("available")):
        return violations
    violations.extend(
        _compare_cases(
            "vec/", vec_cur.get("cases", []), vec_base.get("cases", [])
        )
    )
    violations.extend(
        _compare_dynamic(
            "vec/dynamic_vs_full_vec",
            vec_cur.get("dynamic_vs_full_vec"),
            vec_base.get("dynamic_vs_full_vec"),
        )
    )
    return violations
