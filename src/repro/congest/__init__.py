"""CONGEST-model substrate (Section 2.2 of the paper).

A synchronous message-passing simulator in the style formalized by
Peleg: computation proceeds in rounds; in each round every processor
receives the messages its neighbors sent last round, computes locally,
and sends an ``O(log n)``-bit message to each neighbor (possibly a
different message per neighbor).

Node programs are Python generators: each ``inbox = yield outbox``
statement is one synchronous round, and ``yield Await(n)`` listens for
up to ``n`` rounds: the simulator resumes the node only once mail
reaches it or its ``n`` rounds are up.  Subprotocols compose with
``yield from``, which is how the ASM protocol nests its
maximal-matching phase.

Delivery has two rules: :class:`SyncTransport` (lockstep, the
default) and :class:`AsyncEventTransport` (seeded per-link latency for
robustness runs; bit-identical to lockstep at zero latency).  The
per-message record — round, sender, recipient, kind, fate — is kept by
:class:`~repro.trace.span.CausalTracer` (pass
``telemetry=Telemetry.tracing(CausalTracer())``) and read through
:class:`~repro.trace.analysis.CausalTrace`.

:mod:`repro.congest.protocols` contains true message-level
implementations of distributed Gale–Shapley, the maximal-matching
algorithms, and ASM itself, cross-validated against the logical engine.
"""

from repro.congest.message import (
    MESSAGE_SCHEMAS,
    Await,
    Message,
    MessageSchema,
)
from repro.congest.simulator import SimulationStats, Simulator
from repro.congest.transport import (
    AsyncEventTransport,
    SyncTransport,
    Transport,
)

__all__ = [
    "MESSAGE_SCHEMAS",
    "AsyncEventTransport",
    "Await",
    "Message",
    "MessageSchema",
    "SimulationStats",
    "Simulator",
    "SyncTransport",
    "Transport",
]
