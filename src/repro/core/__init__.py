"""Core problem model and the paper's algorithms (ASM and variants)."""

from repro.core.preferences import PreferenceProfile
from repro.core.matching import Matching, MutableMatching
from repro.core.quantile import quantile_index
from repro.core.asm import (
    ASMEngine,
    ASMObserver,
    ASMResult,
    asm,
    params_for_eps,
)
from repro.core.rand_asm import RandASMPlan, plan_rand_asm, rand_asm
from repro.core.almost_regular import (
    AlmostRegularPlan,
    almost_regular_asm,
    plan_almost_regular,
)

__all__ = [
    "PreferenceProfile",
    "Matching",
    "MutableMatching",
    "quantile_index",
    "ASMEngine",
    "ASMObserver",
    "ASMResult",
    "asm",
    "params_for_eps",
    "RandASMPlan",
    "plan_rand_asm",
    "rand_asm",
    "AlmostRegularPlan",
    "plan_almost_regular",
    "almost_regular_asm",
]
