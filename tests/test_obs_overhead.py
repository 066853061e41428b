"""Benchmark guard: disabled telemetry must stay near-zero-cost.

The engine's phase timers run on every ProposalRound even when no
telemetry bundle was requested (they hit the shared ``NULL_TELEMETRY``
no-op path).  These tests bound that cost two ways:

* a direct micro-benchmark of the null timer, scaled by how many timer
  sites a small run actually executes, must stay under 5% of the run's
  wall time;
* paired best-of-N wall times of the default (null) bundle versus an
  explicitly disabled bundle must agree to within 5% plus a small
  absolute slack, so neither no-op flavor silently grows a cost.

Best-of-N with interleaved measurement keeps the comparison robust to
scheduler noise on shared CI machines.
"""

from __future__ import annotations

from time import perf_counter

from repro.core.asm import asm
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.workloads.generators import complete_uniform

N = 24
EPS = 0.5
REPEATS = 7
ABS_SLACK_SECONDS = 0.002


def _best_of(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def test_null_timer_overhead_under_5pct_of_small_run():
    prefs = complete_uniform(N, seed=0)

    # How many timer observations does this run actually make?
    tel = Telemetry.create()
    asm(prefs, EPS, telemetry=tel)
    timer_calls = sum(
        len(values) for values in tel.metrics.histograms.values()
    )
    assert timer_calls > 0

    # Per-call cost of the no-op path, measured in bulk.
    iterations = 20_000
    t0 = perf_counter()
    for _ in range(iterations):
        with NULL_TELEMETRY.metrics.timer("x"):
            pass
    per_call = (perf_counter() - t0) / iterations

    run_seconds = _best_of(lambda: asm(prefs, EPS))
    overhead = timer_calls * per_call
    assert overhead < 0.05 * run_seconds, (
        f"no-op timers cost {overhead:.6f}s across {timer_calls} sites "
        f"vs {run_seconds:.6f}s run time"
    )


def test_default_matches_disabled_bundle_within_5pct():
    prefs = complete_uniform(N, seed=1)
    disabled = Telemetry.disabled()

    # Warm up both paths before timing.
    asm(prefs, EPS)
    asm(prefs, EPS, telemetry=disabled)

    best_default = float("inf")
    best_disabled = float("inf")
    for _ in range(REPEATS):  # interleave to share machine noise
        t0 = perf_counter()
        asm(prefs, EPS)
        best_default = min(best_default, perf_counter() - t0)
        t0 = perf_counter()
        asm(prefs, EPS, telemetry=disabled)
        best_disabled = min(best_disabled, perf_counter() - t0)

    bound = 1.05 * best_disabled + ABS_SLACK_SECONDS
    assert best_default <= bound, (
        f"default (null telemetry) {best_default:.6f}s exceeds "
        f"disabled-bundle bound {bound:.6f}s"
    )
