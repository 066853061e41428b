"""Unit tests for ``repro.parallel``: specs, seeds, pool, telemetry.

The equivalence suite (``test_parallel_equivalence.py``) checks that
real sweeps are bit-identical across worker counts; this file checks
the machinery itself — seed-derivation stability, chunk layout,
spec-order merging, failure surfacing, and merged telemetry.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.errors import InvalidParameterError
from repro.obs.telemetry import Telemetry
from repro.parallel import (
    DEFAULT_MAX_CHUNKS,
    TrialExecutionError,
    TrialPool,
    TrialSpec,
    derive_seed,
    execute_trial,
    resolve_runner,
)

SELFTEST = "repro.parallel.runners:selftest_trial"


def _specs(count, **params):
    return [
        TrialSpec.make(SELFTEST, algorithm="selftest", n=i, seed=i, **params)
        for i in range(count)
    ]


# ----------------------------------------------------------------------
# derive_seed
# ----------------------------------------------------------------------


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "e3", 32, 0.25) == derive_seed(0, "e3", 32, 0.25)

    def test_sensitive_to_every_component(self):
        base = derive_seed(0, "e3", 32, 0.25)
        assert derive_seed(1, "e3", 32, 0.25) != base
        assert derive_seed(0, "e4", 32, 0.25) != base
        assert derive_seed(0, "e3", 33, 0.25) != base
        assert derive_seed(0, "e3", 32, 0.5) != base

    def test_fits_in_63_bits_and_nonnegative(self):
        for i in range(50):
            seed = derive_seed(i, "x", i * 3)
            assert 0 <= seed < 2 ** 63

    def test_stable_across_interpreter_processes(self):
        """The guarantee hash() cannot give: a fresh interpreter (fresh
        PYTHONHASHSEED) derives the identical seed."""
        code = (
            "from repro.parallel import derive_seed;"
            "print(derive_seed(7, 'e1', 128, 0.25, {'a': 1, 'b': [2, 3]}))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        assert int(out) == derive_seed(
            7, "e1", 128, 0.25, {"a": 1, "b": [2, 3]}
        )

    def test_dict_component_is_order_insensitive(self):
        assert derive_seed(0, {"a": 1, "b": 2}) == derive_seed(
            0, {"b": 2, "a": 1}
        )

    def test_rejects_unstable_components(self):
        with pytest.raises(InvalidParameterError):
            derive_seed(0, object())


# ----------------------------------------------------------------------
# TrialSpec
# ----------------------------------------------------------------------


class TestTrialSpec:
    def test_make_canonicalizes_param_order(self):
        a = TrialSpec.make(SELFTEST, n=4, b=2, a=1)
        b = TrialSpec.make(SELFTEST, n=4, a=1, b=2)
        assert a == b
        assert a.params == (("a", 1), ("b", 2))

    def test_param_lookup_and_default(self):
        spec = TrialSpec.make(SELFTEST, n=4, budget=9)
        assert spec.param("budget") == 9
        assert spec.param("missing") is None
        assert spec.param("missing", 3) == 3
        assert spec.params_dict == {"budget": 9}

    def test_specs_are_hashable_and_frozen(self):
        spec = TrialSpec.make(SELFTEST, n=4)
        assert spec in {spec}
        with pytest.raises(Exception):
            spec.n = 5  # type: ignore[misc]

    def test_identity_excludes_seed(self):
        a = TrialSpec.make(SELFTEST, n=4, seed=0)
        b = TrialSpec.make(SELFTEST, n=4, seed=99)
        assert a.identity() == b.identity()
        # ... so the derived seed depends only on root seed + coords.
        assert a.derived_seed(5) == b.derived_seed(5)
        assert a.derived_seed(5) != a.derived_seed(6)

    def test_with_seed(self):
        spec = TrialSpec.make(SELFTEST, n=4)
        assert spec.with_seed(11).seed == 11
        assert spec.seed is None

    def test_describe_names_coordinates(self):
        text = TrialSpec.make(
            SELFTEST, algorithm="asm", workload="complete", n=4, seed=2
        ).describe()
        assert "algorithm=asm" in text
        assert "workload=complete" in text
        assert "n=4" in text


# ----------------------------------------------------------------------
# resolve_runner
# ----------------------------------------------------------------------


class TestResolveRunner:
    def test_resolves_and_executes(self):
        fn = resolve_runner(SELFTEST)
        spec = TrialSpec.make(SELFTEST, n=3, seed=3)
        assert fn(spec) == execute_trial(spec)

    @pytest.mark.parametrize(
        "reference",
        [
            "no-colon",
            "repro.parallel.runners:",
            ":selftest_trial",
            "os:system",
            "subprocess:run",
            "reprox.evil:fn",
        ],
    )
    def test_rejects_malformed_or_foreign_references(self, reference):
        with pytest.raises(InvalidParameterError):
            resolve_runner(reference)

    def test_rejects_non_callable_target(self):
        with pytest.raises(InvalidParameterError):
            resolve_runner("repro.parallel.pool:DEFAULT_MAX_CHUNKS")


# ----------------------------------------------------------------------
# Chunk layout
# ----------------------------------------------------------------------


class TestChunkLayout:
    def test_covers_every_index_exactly_once(self):
        for count in (0, 1, 5, 16, 17, 100):
            layout = TrialPool(workers=1).chunk_layout(count)
            indices = [
                start + i for start, size in layout for i in range(size)
            ]
            assert indices == list(range(count))

    def test_default_fanout_is_bounded(self):
        layout = TrialPool(workers=1).chunk_layout(1000)
        assert len(layout) <= DEFAULT_MAX_CHUNKS

    def test_independent_of_worker_count(self):
        for count in (7, 32, 100):
            layouts = {
                tuple(TrialPool(workers=w).chunk_layout(count))
                for w in (1, 2, 7)
            }
            assert len(layouts) == 1

    def test_explicit_chunk_size(self):
        assert TrialPool(workers=1, chunk_size=2).chunk_layout(5) == [
            (0, 2),
            (2, 2),
            (4, 1),
        ]

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            TrialPool(workers=0)
        with pytest.raises(InvalidParameterError):
            TrialPool(workers=1, chunk_size=0)


# ----------------------------------------------------------------------
# Pool execution
# ----------------------------------------------------------------------


class TestTrialPool:
    def test_serial_results_in_spec_order(self):
        results = TrialPool(workers=1).run(_specs(9))
        assert [r["n"] for r in results] == list(range(9))

    def test_empty_run(self):
        assert TrialPool(workers=1).run([]) == []
        assert TrialPool(workers=3).run([]) == []

    def test_parallel_matches_serial_exactly(self):
        specs = _specs(11)
        serial = TrialPool(workers=1).run(specs)
        for workers in (2, 3):
            assert TrialPool(workers=workers, chunk_size=2).run(specs) == serial

    def test_failure_surfaces_spec_identity(self):
        specs = _specs(6)
        specs[3] = TrialSpec.make(SELFTEST, n=3, seed=3, fail=True)
        with pytest.raises(TrialExecutionError) as err:
            TrialPool(workers=1, chunk_size=2).run(specs)
        assert "trial 3 failed" in str(err.value)
        assert "injected failure" in str(err.value)

    def test_parallel_failure_reports_lowest_index(self):
        specs = _specs(8)
        # Failures in two different chunks; the lowest index wins, as
        # the serial fail-fast loop would have reported.
        specs[2] = TrialSpec.make(SELFTEST, n=2, seed=2, fail=True)
        specs[6] = TrialSpec.make(SELFTEST, n=6, seed=6, fail=True)
        with pytest.raises(TrialExecutionError) as err:
            TrialPool(workers=2, chunk_size=2).run(specs)
        assert "trial 2 failed" in str(err.value)

    def test_failure_carries_worker_traceback(self):
        specs = _specs(4)
        specs[1] = TrialSpec.make(SELFTEST, n=1, seed=1, fail=True)
        with pytest.raises(TrialExecutionError) as err:
            TrialPool(workers=2, chunk_size=1).run(specs)
        assert "worker traceback" in str(err.value)
        assert "ValueError" in str(err.value)

    def test_dead_worker_becomes_trial_execution_error(self):
        specs = _specs(4)
        specs[2] = TrialSpec.make(SELFTEST, n=2, seed=2, hard_exit=True)
        with pytest.raises(TrialExecutionError) as err:
            TrialPool(workers=2, chunk_size=1).run(specs)
        assert "worker process died" in str(err.value)

    def test_last_stats_shape(self):
        pool = TrialPool(workers=2, chunk_size=3)
        pool.run(_specs(7))
        stats = pool.last_stats
        assert stats["workers"] == 2
        assert stats["chunks"] == 3
        assert stats["trials"] == 7
        assert sum(t["trials"] for t in stats["worker_timings"]) == 7


# ----------------------------------------------------------------------
# Merged telemetry
# ----------------------------------------------------------------------


class TestPoolTelemetry:
    def _run(self, workers):
        telemetry = Telemetry.create()
        pool = TrialPool(workers=workers, chunk_size=2, telemetry=telemetry)
        pool.run(_specs(6))
        return telemetry

    def test_counters_worker_count_invariant(self):
        serial = self._run(1).metrics
        parallel = self._run(2).metrics
        assert serial.counters == parallel.counters
        assert serial.counters["parallel.trials_completed"] == 6
        assert serial.counters["parallel.chunks"] == 3

    def test_chunk_events_worker_count_invariant(self):
        def shape(telemetry):
            return [
                (r["kind"], r["start"], r["trials"])
                for r in telemetry.metrics.events
            ]

        assert shape(self._run(1)) == shape(self._run(2))
        assert shape(self._run(1)) == [
            ("trial_chunk", 0, 2),
            ("trial_chunk", 2, 2),
            ("trial_chunk", 4, 2),
        ]

    def test_trial_timings_collected(self):
        telemetry = self._run(2)
        assert len(telemetry.metrics.histograms["parallel.trial_seconds"]) == 6

    def test_manifest_records_parallelism(self):
        from repro.obs.manifest import RunManifest

        manifest = RunManifest.capture(algorithm="selftest")
        telemetry = Telemetry.create(manifest)
        TrialPool(workers=2, chunk_size=2, telemetry=telemetry).run(_specs(4))
        recorded = manifest.extra["parallel"]
        assert recorded["workers"] == 2
        assert recorded["chunk_size"] == 2
        assert sum(t["trials"] for t in recorded["worker_timings"]) == 4

    def test_disabled_telemetry_is_a_noop(self):
        telemetry = Telemetry.disabled()
        TrialPool(workers=1, telemetry=telemetry).run(_specs(3))
        assert telemetry.metrics.counters == {}
        assert telemetry.metrics.events == []
