"""The simulator backend: the existing scheduler behind the backend API.

This is a thin adapter — it builds a
:class:`repro.machine.scheduler.Simulator` with exactly the arguments it
always took and spawns the programs in rank order, so a run through
``get_backend("sim")`` is *bit-identical* (virtual clocks, metrics,
trace events, sanitizer findings) to constructing the scheduler
directly.  The golden-trace regression battery pins this equivalence.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.backend.api import (
    BackendResult,
    ExecutionBackend,
    RankProgram,
    check_run_args,
)
from repro.machine.scheduler import Simulator

__all__ = ["SimBackend"]


class SimBackend(ExecutionBackend):
    """Conservative discrete-event execution over modeled virtual time.

    * deterministic: results and traces are a pure function of inputs;
    * ``shared_state=True``: all rank generators live in one process and
      may close over (and mutate) shared driver objects;
    * supports the full feature surface — fault injection, sanitizer
      shadow layer, warm-started clocks/metrics.
    """

    name = "sim"
    shared_state = True
    measured = False

    def run(
        self,
        machine: Any,
        programs: Sequence[RankProgram],
        *,
        tracer: Any = None,
        sanitizer: Any = None,
        fault_plan: Any = None,
        initial_clocks: Sequence[float] | None = None,
        initial_metrics: Sequence[Any] | None = None,
    ) -> BackendResult:
        check_run_args(
            machine,
            programs,
            initial_clocks=initial_clocks,
            initial_metrics=initial_metrics,
        )
        sim = Simulator(
            machine,
            tracer=tracer,
            fault_plan=fault_plan,
            initial_clocks=initial_clocks,
            initial_metrics=initial_metrics,
            sanitizer=sanitizer,
        )
        for program in programs:
            sim.spawn(program)
        return sim.run()
