"""Trial specifications and deterministic seed derivation.

A :class:`TrialSpec` is a *self-contained* description of one unit of
sweep work: the runner that executes it (a ``"module:callable"``
reference inside the ``repro`` package), the standard sweep
coordinates (algorithm, workload, n, ε, seed), and any extra
parameters.  Specs carry only JSON/pickle-safe values, so a worker
process can reconstruct the trial from the spec alone — no closures,
no shared state, no dependence on which worker runs it or when.

:func:`derive_seed` is the stable per-trial seed derivation: a SHA-256
hash of the root seed plus the trial's identifying coordinates.  It
never involves worker identity, process ids, submission order, or wall
time, which is what makes a sharded sweep bit-identical to its serial
run (see ``docs/parallel.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from hashlib import sha256
from typing import Any, Dict, Optional, Tuple

from repro.errors import InvalidParameterError

__all__ = ["TrialSpec", "derive_seed"]


#: Separates the canonical texts of consecutive components.
_SEP = "|"

#: Exact types whose canonical text is their ``repr``.  A subclass
#: (an ``IntEnum``, a numpy float) takes the generic path below, which
#: gives it the same text it always had.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _canonical(value: Any) -> str:
    """A stable textual form of one seed-derivation component.

    Only JSON-shaped values are accepted: their ``repr`` is identical
    across processes and Python runs (no hash randomization, no
    memory addresses), so the derived seed is too.
    """
    if type(value) in _SCALARS:
        return repr(value)
    if isinstance(value, (bool, int, float, str)):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        return (
            "{"
            + ",".join(f"{k!r}:{_canonical(v)}" for k, v in items)
            + "}"
        )
    raise InvalidParameterError(
        f"cannot derive a stable seed from {type(value).__name__!r} "
        f"component {value!r}; use JSON-shaped values"
    )


def _seed_of(text: str) -> int:
    """The 63-bit seed of one complete canonical text."""
    return int.from_bytes(sha256(text.encode("utf-8")).digest()[:8], "big") >> 1


def derive_seed(root_seed: int, *components: Any) -> int:
    """A stable 63-bit per-trial seed from a root seed and coordinates.

    The derivation is a SHA-256 hash over the canonical text of
    ``(root_seed, *components)`` — a pure function of its inputs,
    independent of worker identity, submission order, platform, and
    ``PYTHONHASHSEED``.  Distinct coordinate tuples get (with
    overwhelming probability) independent seeds, which is exactly what
    repeated-trial estimates like RandASM's success probability need.

    >>> derive_seed(0, "e3", 32, 0.25)  == derive_seed(0, "e3", 32, 0.25)
    True
    >>> derive_seed(0, "e3", 32, 0.25) == derive_seed(1, "e3", 32, 0.25)
    False
    """
    return SeedHead(root_seed).derive(*components)


class SeedHead:
    """:func:`derive_seed` with the text of its leading inputs built once.

    ``SeedHead(root_seed, *lead).derive(*rest)`` equals
    ``derive_seed(root_seed, *lead, *rest)`` for every input.  A caller
    that derives one seed per message under the same ``(seed, tag)``
    builds that head once, when it is constructed, instead of per call.

    >>> SeedHead(7, "drop").derive(3, "a") == derive_seed(7, "drop", 3, "a")
    True
    """

    __slots__ = ("text",)

    def __init__(self, root_seed: int, *components: Any) -> None:
        #: The canonical text of the head.
        self.text = _SEP.join(
            [repr(int(root_seed)), *map(_canonical, components)]
        )

    def derive(self, *components: Any) -> int:
        """The seed of the head followed by ``components``."""
        parts = [self.text]
        for value in components:
            # _canonical's scalar fast path, without the call.
            parts.append(
                repr(value) if type(value) in _SCALARS else _canonical(value)
            )
        return _seed_of(_SEP.join(parts))


@dataclass(frozen=True)
class TrialSpec:
    """One self-contained unit of sweep work.

    Attributes
    ----------
    runner:
        ``"module:callable"`` reference (inside the ``repro`` package)
        to the function executing this trial; it receives the spec and
        returns a pickle-safe result.
    algorithm:
        Algorithm under test ("asm", "rand-asm", ...) — descriptive.
    workload, n, eps, seed:
        Standard sweep coordinates; any may be None when meaningless
        for the trial kind.
    params:
        Extra coordinates as a canonically sorted key/value tuple
        (kept hashable so specs themselves are hashable and
        order-stable).
    """

    runner: str
    algorithm: str = ""
    workload: Optional[str] = None
    n: Optional[int] = None
    eps: Optional[float] = None
    seed: Optional[int] = None
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(
        cls,
        runner: str,
        *,
        algorithm: str = "",
        workload: Optional[str] = None,
        n: Optional[int] = None,
        eps: Optional[float] = None,
        seed: Optional[int] = None,
        **params: Any,
    ) -> "TrialSpec":
        """Build a spec, canonicalizing ``params`` into sorted pairs."""
        return cls(
            runner=runner,
            algorithm=algorithm,
            workload=workload,
            n=n,
            eps=eps,
            seed=seed,
            params=tuple(sorted(params.items())),
        )

    @property
    def params_dict(self) -> Dict[str, Any]:
        """The extra parameters as a plain dict."""
        return dict(self.params)

    def param(self, name: str, default: Any = None) -> Any:
        """One extra parameter by name."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    def identity(self) -> Tuple[Any, ...]:
        """The seed-independent coordinates identifying this trial."""
        return (
            self.runner,
            self.algorithm,
            self.workload,
            self.n,
            self.eps,
            list(map(list, self.params)),
        )

    def derived_seed(self, root_seed: int) -> int:
        """The stable seed this trial gets under ``root_seed``."""
        return derive_seed(root_seed, *self.identity())

    def with_seed(self, seed: int) -> "TrialSpec":
        """A copy with ``seed`` set."""
        return replace(self, seed=seed)

    def describe(self) -> str:
        """Short human-readable identification (for error messages)."""
        coords = [
            f"{name}={value}"
            for name, value in (
                ("algorithm", self.algorithm),
                ("workload", self.workload),
                ("n", self.n),
                ("eps", self.eps),
                ("seed", self.seed),
            )
            if value not in (None, "")
        ]
        coords.extend(f"{k}={v}" for k, v in self.params)
        return f"{self.runner}({', '.join(coords)})"
