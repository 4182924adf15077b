"""Direct tests for per-rank and machine-wide metrics.

``MachineMetrics`` only holds the per-rank records; its per-phase
aggregates are read through ``PhaseRollup.from_metrics``.
"""

import pytest

from repro.machine.metrics import MachineMetrics, RankMetrics
from repro.obs.rollup import PhaseRollup


def rank(r, phases):
    m = RankMetrics(r)
    for phase, kind, dt in phases:
        m.add_time(phase, kind, dt)
    m.final_clock = m.total_time()
    return m


class TestRankMetrics:
    def test_phase_time_sums_kinds(self):
        m = rank(0, [("a", "compute", 1.0), ("a", "wait", 0.5),
                     ("b", "comm", 0.25)])
        assert m.phase_time("a") == pytest.approx(1.5)
        assert m.total_time() == pytest.approx(1.75)

    def test_negative_increment_rejected(self):
        m = RankMetrics(0)
        with pytest.raises(ValueError):
            m.add_time("a", "compute", -1.0)

    def test_flops_accounting(self):
        m = RankMetrics(0)
        m.add_flops("a", 100.0)
        m.add_flops("b", 50.0)
        assert m.total_flops() == 150.0


class TestMachineMetrics:
    def test_elapsed_is_max_clock(self):
        mm = MachineMetrics([rank(0, [("a", "compute", 1.0)]),
                             rank(1, [("a", "compute", 3.0)])])
        assert mm.elapsed == 3.0

    def test_imbalance(self):
        mm = MachineMetrics([rank(0, [("a", "compute", 1.0)]),
                             rank(1, [("a", "compute", 3.0)])])
        roll = PhaseRollup.from_metrics(mm)
        assert roll.imbalance("a") == pytest.approx(3.0 / 2.0)

    def test_perfect_balance_is_one(self):
        mm = MachineMetrics([rank(0, [("a", "compute", 2.0)]),
                             rank(1, [("a", "compute", 2.0)])])
        roll = PhaseRollup.from_metrics(mm)
        assert roll.imbalance("a") == pytest.approx(1.0)

    def test_phase_fraction(self):
        mm = MachineMetrics([
            rank(0, [("flow", "compute", 3.0), ("dcf", "compute", 1.0)]),
            rank(1, [("flow", "compute", 3.0), ("dcf", "compute", 1.0)]),
        ])
        roll = PhaseRollup.from_metrics(mm)
        assert roll.phase_fraction("dcf") == pytest.approx(0.25)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MachineMetrics([])

    def test_phases_preserve_order(self):
        mm = MachineMetrics([
            rank(0, [("z", "compute", 1.0), ("a", "compute", 1.0)]),
        ])
        assert PhaseRollup.from_metrics(mm).phases() == ["z", "a"]
