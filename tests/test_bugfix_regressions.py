"""Regression tests pinning the PR-7 portability/clock bugfix sweep.

Two bugs, two pins:

1. CLI wall-time measurement used ``time.time()`` — not monotonic, so
   an NTP step mid-run could yield negative or wildly wrong durations.
   Durations now come from ``time.perf_counter()``; the test makes
   ``time.time()`` explode to prove no duration path touches it.
2. ``cli._git_rev`` swallowed *every* exception, hiding programming
   errors behind a silent ``"dev"`` fallback; it now catches only
   ``(OSError, subprocess.SubprocessError)``.
"""

from __future__ import annotations

import subprocess
import time

import pytest

import repro.cli as cli


class TestMonotonicClock:
    def test_cli_durations_never_read_wall_clock(self, monkeypatch, capsys):
        def boom():
            raise AssertionError(
                "time.time() consulted for a duration measurement"
            )

        monkeypatch.setattr(time, "time", boom)
        code = cli.main(
            ["run", "--workload", "complete", "--n", "10",
             "--eps", "0.5"]
        )
        assert code == 0
        assert "blocking" in capsys.readouterr().out

    def test_no_time_time_left_in_cli_source(self):
        import inspect

        assert "time.time()" not in inspect.getsource(cli)


class TestGitRevErrorNarrowing:
    def test_missing_git_falls_back_to_dev(self, monkeypatch):
        def no_git(*args, **kwargs):
            raise FileNotFoundError("git not on PATH")

        monkeypatch.setattr(subprocess, "run", no_git)
        assert cli._git_rev() == "dev"

    def test_subprocess_failure_falls_back_to_dev(self, monkeypatch):
        def not_a_repo(*args, **kwargs):
            raise subprocess.CalledProcessError(128, "git")

        monkeypatch.setattr(subprocess, "run", not_a_repo)
        assert cli._git_rev() == "dev"

    def test_timeout_falls_back_to_dev(self, monkeypatch):
        def hangs(*args, **kwargs):
            raise subprocess.TimeoutExpired("git", 10)

        monkeypatch.setattr(subprocess, "run", hangs)
        assert cli._git_rev() == "dev"

    def test_programming_errors_propagate(self, monkeypatch):
        def bug(*args, **kwargs):
            raise TypeError("broken call site")

        monkeypatch.setattr(subprocess, "run", bug)
        with pytest.raises(TypeError):
            cli._git_rev()
