"""The one run path every CONGEST protocol driver takes.

:func:`run_protocol` builds the :class:`~repro.congest.simulator.Simulator`
over the given node programs, runs it, and assembles the nodes'
outputs with :func:`assemble` by one rule: a pair counts only when
both endpoints' results name each other.  Any other
node — no result (crashed or timed out) or a claim its partner does
not confirm — is *unresolved*.  A caller holding only a finished
simulator (``run_congest_gale_shapley`` returns one) reassembles it
with the same function.

The mode is decided once, here.  A run with a fault plan, or over a
transport that reorders delivery (nonzero latency,
``docs/transport.md``), is *tolerant*: it runs under the protocol's
round bound, if it has one, with ``on_timeout="stop"`` and reports
the unresolved nodes.  Every other run is *strict*: it runs to completion, and an
unresolved node raises :class:`~repro.errors.SimulationError`
(``docs/robustness.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.congest.simulator import NodeProgram, Simulator
from repro.core.matching import Matching
from repro.errors import SimulationError
from repro.faults.plan import FaultPlan, RetryTally
from repro.graphs import (
    Graph,
    NodeId,
    is_man_node,
    man_node,
    node_index,
    woman_node,
)

__all__ = ["ProtocolRun", "assemble", "player_partner", "run_protocol"]


def _same(v: NodeId, result: Any) -> NodeId:
    return result


def player_partner(v: NodeId, index: int) -> NodeId:
    """The node a player's result names: an index on the other side."""
    return woman_node(index) if is_man_node(v) else man_node(index)


@dataclass
class ProtocolRun:
    """A finished run: the simulator, mutual pairs and unresolved nodes.

    ``partner`` maps both nodes of each confirmed pair to each other.
    """

    sim: Simulator
    partner: Dict[NodeId, NodeId]
    unresolved: List[NodeId]

    def matching(self) -> Matching:
        """The confirmed pairs of a man/woman market as a matching."""
        return Matching(
            (node_index(v), node_index(u))
            for v, u in self.partner.items()
            if is_man_node(v)
        )

    def unresolved_players(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Sorted indices of the unresolved men and of the unresolved
        women of a man/woman market."""
        men = sorted(node_index(v) for v in self.unresolved if is_man_node(v))
        women = sorted(
            node_index(v) for v in self.unresolved if not is_man_node(v)
        )
        return tuple(men), tuple(women)


def assemble(
    sim: Simulator,
    partner_node: Callable[[NodeId, Any], NodeId] = _same,
) -> ProtocolRun:
    """Assemble a finished simulator's node results into mutual pairs
    and unresolved nodes.

    ``partner_node(v, result)`` is the node a non-``None`` result of
    ``v`` names (the result itself by default).
    """
    # A crashed node never has a result (the simulator crashes only
    # running programs), so "no result" covers crashes and timeouts.
    results = sim.results
    partner: Dict[NodeId, NodeId] = {}
    unresolved: List[NodeId] = []
    for v, p in results.items():
        if p is None:
            continue
        u = partner_node(v, p)
        q = results.get(u)
        if q is not None and partner_node(u, q) == v:
            partner[v] = u
        else:
            unresolved.append(v)
    unresolved += [v for v in sim.programs if v not in results]
    return ProtocolRun(sim, partner, unresolved)


def run_protocol(
    graph: Graph,
    programs: Mapping[NodeId, NodeProgram],
    *,
    round_bound: Optional[int] = None,
    telemetry=None,
    faults: Optional[FaultPlan] = None,
    transport=None,
    tally: Optional[RetryTally] = None,
    partner_node: Callable[[NodeId, Any], NodeId] = _same,
) -> ProtocolRun:
    """Run ``programs`` over ``graph`` and assemble their outputs.

    ``round_bound`` caps tolerant runs; ``None`` runs them to
    completion too.  A ``tally``'s retries are added to
    ``congest.retries``.  ``partner_node`` is :func:`assemble`'s.
    """
    sim = Simulator(
        graph, programs, telemetry=telemetry,
        faults=faults, transport=transport,
    )
    tolerant = faults is not None or (
        transport is not None and transport.reorders
    )
    if tolerant:
        # Schedules are finite, so the run always terminates; a bound
        # is a backstop, and "stop" keeps degraded runs reporting
        # instead of raising.
        sim.run(round_bound, on_timeout="stop")
    else:
        sim.run()
    if tally is not None and tally.count > 0 and sim.telemetry.enabled:
        sim.telemetry.metrics.inc("congest.retries", tally.count)
    run = assemble(sim, partner_node)
    if run.unresolved and not tolerant:
        v = run.unresolved[0]
        raise SimulationError(
            f"inconsistent final state: {len(run.unresolved)} node(s) "
            f"unresolved, e.g. {v!r} (result "
            f"{sim.results.get(v, 'missing')!r}) is not confirmed by its "
            f"partner"
        )
    return run
