"""Regression tests pinning fixed bugs.

From the portability/clock bugfix sweep:

1. CLI wall-time measurement used ``time.time()`` — not monotonic, so
   an NTP step mid-run could yield negative or wildly wrong durations.
   Durations now come from ``time.perf_counter()``; the test makes
   ``time.time()`` explode to prove no duration path touches it.
2. ``cli._git_rev`` swallowed *every* exception, hiding programming
   errors behind a silent ``"dev"`` fallback; it now catches only
   ``(OSError, subprocess.SubprocessError)``.

From the flat-array preference profile:

3. ``PreferenceProfile`` coerced every id with ``int()``, so
   ``[[0.9]]`` was silently woman 0 and ``[['1']]`` and ``[[True]]``
   both woman 1.  Float, str and bool ids now raise
   ``InvalidPreferencesError`` naming the player and the value; ints
   and numpy integers are still accepted.
"""

from __future__ import annotations

import subprocess
import time

import pytest

import repro.cli as cli
from repro.core.preferences import PreferenceProfile
from repro.errors import InvalidPreferencesError


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


class TestNonIntegerPlayerIds:
    @pytest.mark.parametrize(
        "men, women, message",
        [
            ([[0.9]], [[0]], "man 0 ranks non-integer player 0.9"),
            ([["1"]], [[], [0]], "man 0 ranks non-integer player '1'"),
            ([[True]], [[], [0]], "man 0 ranks non-integer player True"),
            ([[0], [1.0]], [[0], [1]], "man 1 ranks non-integer player 1.0"),
            ([[0]], [[False]], "woman 0 ranks non-integer player False"),
            ([[0]], [[0.0]], "woman 0 ranks non-integer player 0.0"),
        ],
    )
    def test_rejected_with_player_and_value(self, men, women, message):
        with pytest.raises(InvalidPreferencesError) as info:
            PreferenceProfile(men, women)
        assert str(info.value) == message

    def test_from_men_lists_rejects_them_too(self):
        with pytest.raises(InvalidPreferencesError) as info:
            PreferenceProfile.from_men_lists([[1], [0.5]], n_women=2)
        assert str(info.value) == "man 1 ranks non-integer player 0.5"

    def test_ints_and_numpy_integers_still_accepted(self):
        np = pytest.importorskip("numpy")
        prefs = PreferenceProfile(
            [np.array([1, 0], dtype=np.int32), [np.int64(0)]],
            [[np.int16(0), 1], [0]],
        )
        assert prefs.to_dict() == {
            "men_prefs": [[1, 0], [0]],
            "women_prefs": [[0, 1], [0]],
        }
        assert all(type(u) is int for u in prefs.man_list(0))
