"""Run the doctest examples embedded in the library's docstrings."""

from __future__ import annotations

import doctest
import importlib

import pytest

# Resolved via importlib because several package __init__ files
# re-export functions whose names shadow the submodule attribute
# (e.g. repro.core.asm the module vs repro.core.asm the function).
MODULE_NAMES = [
    "repro",
    "repro.analysis.tables",
    "repro.analysis.trace",
    "repro.baselines.gale_shapley",
    "repro.baselines.random_greedy",
    "repro.baselines.truncated_gs",
    "repro.congest.message",
    "repro.core.almost_regular",
    "repro.core.asm",
    "repro.core.matching",
    "repro.core.preferences",
    "repro.core.quantile",
    "repro.core.rand_asm",
    "repro.dynamic.engine",
    "repro.dynamic.index",
    "repro.dynamic.market",
    "repro.graphs",
    "repro.mm.bipartite",
    "repro.mm.g0",
    "repro.mm.greedy",
    "repro.obs.manifest",
    "repro.obs.metrics",
    "repro.obs.telemetry",
]

MODULES = [importlib.import_module(name) for name in MODULE_NAMES]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module.__name__}: {results.failed} failures"


def test_docstring_examples_exist_somewhere():
    """The public API keeps runnable examples in its docstrings."""
    total = sum(
        len(doctest.DocTestFinder().find(m)) for m in MODULES
    )
    assert total > 10
