"""Per-round timeline of an ASM run, read from its event records.

:class:`~repro.core.asm.ASMEngine` emits one ``proposal_round`` /
``quantile_match`` / ``outer_iteration`` record per executed step into
its telemetry's registry
(:attr:`~repro.obs.metrics.MetricsRegistry.events`).  :class:`Timeline`
is a read-only view over such records: one row per executed
ProposalRound (proposals, accepts, rejects, the accepted-proposal graph
size, the matching size so far) plus per-outer-iteration summaries,
rendered as an ASCII table or exported as plain dicts.  The live
``telemetry.metrics.events`` and the ``["metrics"]["events"]`` of a
reloaded ``--metrics-out`` file (:func:`repro.io.load_metrics`) give
the same timeline.

Example
-------
>>> from repro.core.asm import asm
>>> from repro.obs.telemetry import Telemetry
>>> from repro.workloads.generators import complete_uniform
>>> tel = Telemetry.create()
>>> _ = asm(complete_uniform(16, seed=0), eps=0.5, telemetry=tel)
>>> len(Timeline(tel.metrics.events).proposal_rounds) > 0
True
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, List, Optional

from repro.analysis.tables import format_table
from repro.core.asm import OuterIterationStats

__all__ = ["ProposalRoundRecord", "Timeline"]


@dataclass(frozen=True)
class ProposalRoundRecord:
    """Snapshot taken at the end of one executed ProposalRound."""

    index: int
    proposals: int
    accepts: int
    rejects: int
    g0_nodes: int
    g0_edges: int
    matched_in_m0: int
    mm_rounds: int
    max_player_work: int
    matching_size: int
    good_men: int
    bad_men: int


_RECORD_FIELDS = tuple(f.name for f in fields(ProposalRoundRecord))
_OUTER_FIELDS = tuple(f.name for f in fields(OuterIterationStats))


class Timeline:
    """The per-round timeline of an ASM (or variant) run.

    Parameters
    ----------
    events:
        The run's flat event records (``{"kind", "seq", "t",
        **fields}``); read on every access, never written.
    """

    def __init__(self, events: List[Dict[str, Any]]) -> None:
        self.events = events

    # ------------------------------------------------------------------
    # Views over the event records
    # ------------------------------------------------------------------

    @property
    def proposal_rounds(self) -> List[ProposalRoundRecord]:
        """One record per executed ProposalRound, in order."""
        return [
            ProposalRoundRecord(**{name: r[name] for name in _RECORD_FIELDS})
            for r in self.events
            if r["kind"] == "proposal_round"
        ]

    @property
    def quantile_match_boundaries(self) -> List[int]:
        """Cumulative ProposalRound count at each QuantileMatch end."""
        return [
            r["proposal_rounds_so_far"]
            for r in self.events
            if r["kind"] == "quantile_match"
        ]

    @property
    def outer_iterations(self) -> List[OuterIterationStats]:
        """Per-outer-iteration summaries (Algorithm 3's ``i`` loop)."""
        return [
            OuterIterationStats(**{name: r[name] for name in _OUTER_FIELDS})
            for r in self.events
            if r["kind"] == "outer_iteration"
        ]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """The per-round timeline as plain dictionaries."""
        return [asdict(r) for r in self.proposal_rounds]

    def timeline_table(self, max_rows: int = 50) -> str:
        """Render the first ``max_rows`` proposal rounds as a table."""
        records = self.records()
        rows = records[:max_rows]
        suffix = ""
        if len(records) > max_rows:
            suffix = f"\n... {len(records) - max_rows} more rounds"
        return (
            format_table(rows, title="ASM proposal-round timeline") + suffix
        )

    def convergence_summary(self) -> Dict[str, Any]:
        """Headline facts about how the run converged.

        ``rounds_to_90pct_matched`` is ``None`` when nothing was ever
        matched — an empty final matching has no meaningful "90% of
        final size" round (every round trivially satisfies ``|M| ≥ 0``).
        """
        rounds = self.proposal_rounds
        if not rounds:
            return {
                "proposal_rounds": 0,
                "final_matching_size": 0,
                "rounds_to_90pct_matched": None,
                "total_proposals": 0,
            }
        final = rounds[-1].matching_size
        if final == 0:
            reach: Optional[int] = None
        else:
            target = 0.9 * final
            reach = next(
                (
                    r.index + 1
                    for r in rounds
                    if r.matching_size >= target
                ),
                None,
            )
        return {
            "proposal_rounds": len(rounds),
            "final_matching_size": final,
            "rounds_to_90pct_matched": reach,
            "total_proposals": sum(r.proposals for r in rounds),
        }
