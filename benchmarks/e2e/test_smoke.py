"""Smoke tests of the end-to-end benchmark.

Not part of the tier-1 suite (``testpaths`` is ``tests``); run them
explicitly from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_per_workload(tmp_path, trace):
    spec = _spec()
    proc = _bench(ROOT, "--workload", "all", "--smoke", "--trace", trace,
                  "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        for metric in wanted:
            got = last["metrics"][f"{workload}/{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], float)
    assert len(last["metrics"]) == len(WORKLOADS) * len(wanted)
    if trace == "1":
        assert len(list(tmp_path.glob("*.trace.json"))) == len(WORKLOADS)
        assert len(list(tmp_path.glob("*.layers.json"))) == len(WORKLOADS)


def test_speed_probe_leaves_peak_rss_alone():
    """The probe runs in the workload's process, so it may neither load
    numpy nor allocate: the peak RSS stays the program's own."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, harness; before = harness.peak_rss_mb(); "
         "harness.speed_probe(); "
         "print(harness.peak_rss_mb() - before, 'numpy' in sys.modules)"],
        cwd=HERE, stdout=subprocess.PIPE, text=True, check=True, timeout=60,
    )
    grown, numpy_loaded = proc.stdout.split()
    assert float(grown) < 1.0
    assert numpy_loaded == "False"


@pytest.mark.parametrize("workload", ["asm_vec", "asm_python_mix"])
def test_corrupted_output_fails_checks(monkeypatch, workload):
    from repro.core.asm import ASMEngine
    from repro.core.matching import Matching

    honest = ASMEngine.current_matching

    def corrupted(self):
        pairs = list(honest(self).pairs())
        return Matching(pairs + [(self.n_men, self.n_women)])

    monkeypatch.setattr(ASMEngine, "current_matching", corrupted)
    record = run.run_workload(workload, 0, 0.0, False, True, None)
    assert not record["correct"]
    assert 0 < record["failed"] <= record["attempted"]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "asm_vec", "--seed", "0",
                  "--seconds", str(_spec()["run_seconds"]), "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_run_length_is_fixed():
    """``--seconds`` cannot make a run shorter or longer than
    ``run_seconds``."""
    seconds = _spec()["run_seconds"]
    proc = _bench(ROOT, "--workload", "congest_mix", "--smoke",
                  "--seconds", str(seconds + 1))
    assert proc.returncode == 2
    assert "correct" not in proc.stdout


def _record(seed, value, **extra):
    return {"seed": seed, "metrics": {"work_s": {"value": value}}, **extra}


def test_compare_needs_ten_pairs_for_a_gain():
    base = [_record(s, 1.0 + 0.01 * s) for s in range(10)]
    new = [_record(s, 0.5 + 0.01 * s) for s in range(10)]
    assert compare.verdict(base, new, "work_s", "lower", 0.25) == "gain"
    assert compare.verdict(base[:5], new[:5], "work_s", "lower",
                           0.25) == "too few pairs"


def test_compare_skips_smoke_and_refuses_mixed_lengths(tmp_path, capsys):
    def write(name, **record):
        record = {"workload": "w", "trace": 0, "smoke": False, "seconds": 10,
                  "probe_s": 0.03, "correct": True, "attempted": 1,
                  "failed": 0, **record}
        (tmp_path / name).write_text(json.dumps(record))

    write("full.json", seed=0)
    write("smoke.json", seed=1, smoke=True)
    assert [r["seed"] for r in compare.load(tmp_path)] == [0]
    write("short.json", seed=2, seconds=5)
    assert compare.main([str(tmp_path)]) == 2
    assert "different lengths" in capsys.readouterr().err
