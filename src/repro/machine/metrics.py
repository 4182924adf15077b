"""Per-rank and machine-wide accounting of virtual time, flops and traffic.

The paper's evaluation reports three derived statistics per run (Tables
1--6): average Mflops/node, parallel speedup, and percentage of time in
the connectivity solution.  All three come from per-phase virtual-time
accounting collected here and aggregated by
:class:`repro.obs.rollup.PhaseRollup`.  A *phase* is a caller-chosen label
("overflow", "dcf3d", "motion", ...) set through
:meth:`repro.machine.simmpi.Comm.set_phase`; within a phase, time is
split into ``compute`` (charged flops), ``comm`` (message injection and
polling) and ``wait`` (idle, blocked on a receive or collective).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

KINDS = ("compute", "comm", "wait")


def _kind_seconds() -> defaultdict:
    """kind -> seconds (module-level so RankMetrics pickles)."""
    return defaultdict(float)


def _phase_time() -> defaultdict:
    """phase -> kind -> seconds (module-level so RankMetrics pickles)."""
    return defaultdict(_kind_seconds)


@dataclass
class RankMetrics:
    """Accounting for a single rank.

    Picklable by design: checkpoints
    (:mod:`repro.resilience.checkpoint`) snapshot in-flight epoch
    accumulators which carry these objects across scheduler runs.
    """

    rank: int
    time: dict = field(default_factory=_phase_time)
    flops: dict = field(default_factory=_kind_seconds)
    messages_sent: int = 0
    bytes_sent: int = 0
    messages_received: int = 0
    final_clock: float = 0.0

    def add_time(self, phase: str, kind: str, dt: float) -> None:
        if dt < 0:
            raise ValueError(f"negative time increment {dt} in phase {phase!r}")
        self.time[phase][kind] += dt

    def add_flops(self, phase: str, flops: float) -> None:
        self.flops[phase] += flops

    def phase_time(self, phase: str) -> float:
        """Total virtual seconds attributed to ``phase`` on this rank."""
        return sum(self.time[phase].values())

    def total_time(self) -> float:
        return sum(self.phase_time(p) for p in self.time)

    def total_flops(self) -> float:
        return sum(self.flops.values())


class MachineMetrics:
    """The per-rank accounting of one run.

    A container only: per-phase aggregates (max/avg, imbalance,
    fractions) live in :class:`repro.obs.rollup.PhaseRollup`, built
    with ``PhaseRollup.from_metrics(metrics)``.
    """

    def __init__(self, ranks: list[RankMetrics]):
        if not ranks:
            raise ValueError("no rank metrics")
        self.ranks = ranks

    @property
    def nranks(self) -> int:
        return len(self.ranks)

    @property
    def elapsed(self) -> float:
        """Virtual wall-clock of the run: the latest final rank clock."""
        return max(r.final_clock for r in self.ranks)

    def total_flops(self) -> float:
        return sum(r.total_flops() for r in self.ranks)
