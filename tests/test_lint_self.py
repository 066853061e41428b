"""The analyzer's self-check: the shipped tree must lint clean, every
rule family must be registered and enabled, and each family must detect
its seeded fixture violations (and stay quiet on the clean twins).

This is the test the CI lint gate mirrors: if it fails, either a model
violation crept into the source tree or a rule family stopped working.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import (
    LintConfig,
    all_rules,
    load_config,
    rule_families,
    run_lint,
)

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

REQUIRED_FAMILIES = ("CONGEST", "MSG", "DET", "TEL")


def _repo_config() -> LintConfig:
    return load_config(REPO / "pyproject.toml")


# ----------------------------------------------------------------------
# The shipped tree is clean.
# ----------------------------------------------------------------------


def test_shipped_tree_lints_clean():
    report = run_lint([SRC], _repo_config())
    assert report.ok, "shipped-tree violations:\n" + "\n".join(
        v.format() for v in report.violations
    )
    # Sanity: the run actually covered the tree and ran real rules.
    assert report.files_scanned >= 40
    assert len(report.rules_run) >= 8


def test_every_required_family_registered():
    assert set(REQUIRED_FAMILIES) <= rule_families()


def test_no_required_family_disabled_by_repo_config():
    config = _repo_config()
    for family in REQUIRED_FAMILIES:
        enabled = [
            rule
            for rule in all_rules()
            if rule.family == family
            and config.rule_enabled(rule.rule_id, rule.family)
        ]
        assert enabled, f"rule family {family} is disabled in pyproject.toml"


def test_each_family_has_at_least_one_rule():
    by_family = {}
    for rule in all_rules():
        by_family.setdefault(rule.family, []).append(rule.rule_id)
    for family in REQUIRED_FAMILIES:
        assert by_family.get(family), family


# ----------------------------------------------------------------------
# Seeded fixtures: every family detects a violation and accepts a
# clean twin.  Fixture files are written under a src/repro/... layout
# so the default path scoping applies to them.
# ----------------------------------------------------------------------

CONGEST_VIOLATING = '''\
SHARED_STATE = {}

def _node_program(v, prefs: "PreferenceProfile"):
    inbox = yield {}
    SHARED_STATE[v] = inbox
    return None
'''

CONGEST_CLEAN = '''\
from repro.congest.message import Await

def _node_program(v, pref_list):
    partner = None
    inbox = yield {}
    for sender in sorted(inbox, key=repr):
        partner = sender
    inbox, waited = yield Await(2)
    return partner
'''

MSG_VIOLATING = '''\
from repro.congest.message import Message

def build(kind_var, suitors):
    a = Message(kind_var)
    b = Message("PROPOSE", [s for s in suitors])
    c = Message("TOTALLY_UNDECLARED")
    d = Message("POINT", (1, 2))
    return a, b, c, d
'''

MSG_CLEAN = '''\
from repro.congest.message import Message

def build(w):
    return Message("PROPOSE"), Message("POINT", (w,))
'''

DET_VIOLATING = '''\
import multiprocessing
import random
from concurrent.futures import ProcessPoolExecutor

def pick(items):
    pool = set(items)
    out = []
    for x in pool:
        out.append(x)
    with ProcessPoolExecutor(max_workers=2) as executor:
        futures = [executor.submit(len, x) for x in out]
    return out, random.randrange(10), futures
'''

DET_CLEAN = '''\
import random

def pick(items, seed):
    pool = set(items)
    rng = random.Random(seed)
    out = []
    for x in sorted(pool):
        out.append(x)
    return out, rng.randrange(10)
'''

TEL_VIOLATING = '''\
import json
import time

def export(path, data):
    print("exporting")
    stamp = time.time()
    with open(path, "w") as fh:
        json.dump(data, fh)
    return stamp
'''

TEL_CLEAN = '''\
import json
import time

def export(data):
    t0 = time.perf_counter()
    blob = json.dumps(data)
    return blob, time.perf_counter() - t0
'''

# (family, relative fixture path, violating source, expected rule ids,
#  clean source)
FIXTURES = [
    (
        "CONGEST",
        "src/repro/congest/protocols/fixture_proto.py",
        CONGEST_VIOLATING,
        {"CONGEST001", "CONGEST002"},
        CONGEST_CLEAN,
    ),
    (
        "MSG",
        "src/repro/congest/protocols/fixture_msg.py",
        MSG_VIOLATING,
        {"MSG001", "MSG002", "MSG003"},
        MSG_CLEAN,
    ),
    (
        "DET",
        "src/repro/core/fixture_det.py",
        DET_VIOLATING,
        {"DET001", "DET002", "DET003"},
        DET_CLEAN,
    ),
    (
        "TEL",
        "src/repro/analysis/fixture_tel.py",
        TEL_VIOLATING,
        {"TEL001", "TEL002", "TEL003"},
        TEL_CLEAN,
    ),
]


def _lint_snippet(tmp_path: Path, relpath: str, source: str):
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return run_lint([target], LintConfig())


@pytest.mark.parametrize(
    "family, relpath, source, expected, _clean",
    FIXTURES,
    ids=[f[0] for f in FIXTURES],
)
def test_family_detects_seeded_violations(
    tmp_path, family, relpath, source, expected, _clean
):
    report = _lint_snippet(tmp_path, relpath, source)
    fired = {v.rule for v in report.violations}
    missing = expected - fired
    assert not missing, (
        f"{family}: rules {sorted(missing)} failed to fire on the seeded "
        f"fixture (fired: {sorted(fired)})"
    )


@pytest.mark.parametrize(
    "family, relpath, _source, _expected, clean",
    FIXTURES,
    ids=[f[0] for f in FIXTURES],
)
def test_family_accepts_clean_fixture(
    tmp_path, family, relpath, _source, _expected, clean
):
    report = _lint_snippet(tmp_path, relpath, clean)
    assert report.ok, f"{family} false positives:\n" + "\n".join(
        v.format() for v in report.violations
    )


# ----------------------------------------------------------------------
# The FLOW family is opt-in, so it gets its own fixture pass with
# flow=True instead of riding the FIXTURES parametrization.
# ----------------------------------------------------------------------

FLOW_VIOLATING = '''\
import random

from repro.congest.message import Message


def _eligible(graph, v):
    return set(graph[v])


def node_program(graph, v):
    active = _eligible(graph, v)
    inbox = yield {u: Message("PROPOSE") for u in active}
    jitter = random.random()
    yield {u: Message("POINT", jitter) for u in sorted(inbox)}
'''

FLOW_CLEAN = '''\
from repro.congest.message import Message
from repro.parallel.spec import derive_seed


def _eligible(graph, v):
    return sorted(set(graph[v]))


def node_program(graph, v, seed):
    active = _eligible(graph, v)
    token = derive_seed(seed, v)
    inbox = yield {u: Message("PROPOSE") for u in active}
    yield {u: Message("POINT", token) for u in sorted(inbox)}
'''


def test_flow_family_registered():
    assert "FLOW" in rule_families()


def test_flow_family_detects_seeded_violations(tmp_path):
    target = tmp_path / "src/repro/congest/protocols/fixture_flow.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(FLOW_VIOLATING)
    report = run_lint([target], LintConfig(flow=True))
    fired = {v.rule for v in report.violations}
    assert {"FLOW001", "FLOW002"} <= fired, sorted(fired)


def test_flow_family_accepts_clean_fixture(tmp_path):
    target = tmp_path / "src/repro/congest/protocols/fixture_flow.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(FLOW_CLEAN)
    report = run_lint([target], LintConfig(flow=True))
    flow = [v for v in report.violations if v.rule.startswith("FLOW")]
    assert flow == [], "\n".join(v.format() for v in flow)


def test_flow_family_is_opt_in_under_repo_config():
    """The repo pyproject leaves FLOW off for plain runs (CI opts in
    with --flow); the per-file families stay on."""
    config = _repo_config()
    assert not config.rule_enabled("FLOW001", "FLOW")
    assert config.rule_enabled("DET001", "DET")


def test_det003_exempts_the_parallel_package(tmp_path):
    """repro.parallel is the sanctioned home for process pools: the
    same source that fires DET003 elsewhere is exempt there."""
    source = (
        "from concurrent.futures import ProcessPoolExecutor\n"
        "import multiprocessing\n"
    )
    outside = _lint_snippet(
        tmp_path, "src/repro/analysis/fixture_fanout.py", source
    )
    assert any(v.rule == "DET003" for v in outside.violations)
    inside = _lint_snippet(
        tmp_path, "src/repro/parallel/fixture_fanout.py", source
    )
    assert not any(v.rule == "DET003" for v in inside.violations)


def test_det003_flags_a_pool_in_the_transport_module(tmp_path):
    """Only repro.parallel may own a process pool: the CONGEST
    transport module is back in DET003's scope like its siblings."""
    source = (
        "from concurrent.futures import ProcessPoolExecutor\n"
        "import multiprocessing\n"
    )
    transport = _lint_snippet(
        tmp_path, "src/repro/congest/transport.py", source
    )
    assert any(v.rule == "DET003" for v in transport.violations)


@pytest.mark.parametrize("family", REQUIRED_FAMILIES)
def test_disabling_a_family_would_be_detected(tmp_path, family):
    """The gate the acceptance criteria ask for: with any family
    disabled, its seeded fixture violation goes undetected — so this
    suite (which asserts detection with the *enabled* config) fails."""
    fixture = next(f for f in FIXTURES if f[0] == family)
    _, relpath, source, expected, _ = fixture
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    disabled = run_lint([target], LintConfig().with_disabled(family))
    fired = {v.rule for v in disabled.violations}
    assert not (fired & expected), (
        f"disabling family {family} should silence its rules"
    )
