"""The epoch core shared by the two timestep drivers.

:class:`repro.core.OverflowD1` and :class:`repro.offbody.OffBodyDriver`
run the same barrier-separated timestep (flow / motion / connectivity)
in chunks on an execution backend, under the same fault and recovery
plumbing.  Their main loops differ — checkpoint sub-chunks and
Algorithm 2 in one, per-epoch patch regeneration and Algorithm 3
regrouping in the other — so the shared parts are plain functions plus
one result base class, not a driver base class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from repro.backend import (
    BackendResult,
    ExecutionBackend,
    check_run_args,
    get_backend,
)
from repro.machine.faults import FaultPlan, FaultSpec, RankFailure
from repro.machine.metrics import MachineMetrics
from repro.machine.spec import MachineSpec
from repro.obs.rollup import IgbpRollup, PhaseRollup
from repro.resilience.recovery import RecoveryRecord, run_failure_detection

PHASE_FLOW = "overflow"
PHASE_MOTION = "motion"
PHASE_DCF = "dcf3d"

#: Each measured timestep executes exactly this many ``set_phase``
#: barriers (flow / motion / dcf3d) — the conversion factor between
#: driver-level ``step`` fault triggers and scheduler phase triggers.
PHASES_PER_STEP = 3


@dataclass
class StepStats:
    """Per-rank, per-step connectivity statistics."""

    step: int
    igbps_received: int
    search_steps: int
    donors_found: int
    orphans: int


@dataclass
class ChunkAccum:
    """Folds the chunks of one epoch into its I(p) rows and totals.

    Per-rank metrics and clocks are carried from chunk to chunk
    (``initial_metrics=`` / ``initial_clocks=``), so a split epoch's
    rollup is bit-identical to an unsplit one's.
    """

    first_step: int          # driver step the epoch starts at
    planned: int             # steps this epoch will cover
    steps_done: int = 0
    per_step: list = field(default_factory=list)  # one I(p) row per step
    search_total: int = 0
    orphans_total: int = 0
    donors_total: int = 0
    #: Per-rank virtual clocks at the last completed chunk.
    clocks: list | None = None
    #: Per-rank RankMetrics carried across chunks (see class doc).
    metrics: list | None = None

    @property
    def elapsed(self) -> float:
        """Epoch-local virtual time covered so far (max final clock)."""
        return max(self.clocks) if self.clocks else 0.0

    def add(self, out: BackendResult, nsteps: int) -> None:
        nprocs = len(out.returns)
        mat = np.zeros((nsteps, nprocs), dtype=np.int64)
        for rank, stats in enumerate(out.returns):
            for s, st in enumerate(stats):
                mat[s, rank] = st.igbps_received
                self.search_total += st.search_steps
                self.orphans_total += st.orphans
                self.donors_total += st.donors_found
        for s in range(nsteps):
            self.per_step.append(mat[s])
        self.metrics = list(out.metrics.ranks)
        self.clocks = [rm.final_clock for rm in out.metrics.ranks]
        self.steps_done += nsteps

    def igbp(self) -> IgbpRollup:
        igbp = IgbpRollup()
        for row in self.per_step:
            igbp.record(row)
        return igbp

    def rollup(self, nprocs: int) -> PhaseRollup:
        if self.metrics is None:
            return PhaseRollup(nprocs)
        return PhaseRollup.from_metrics(MachineMetrics(self.metrics))


@dataclass
class RunResultBase:
    """Merged outcome of a full run: the metrics both drivers report.

    ``epochs`` holds the driver's epoch records; each must carry
    ``elapsed``, a :class:`PhaseRollup` ``rollup`` and an
    :class:`IgbpRollup` ``igbp``.
    """

    case: str
    machine: str
    nprocs: int
    nsteps: int
    epochs: list = field(default_factory=list)
    #: Completed failure/restore/repartition episodes, in order.
    recoveries: list[RecoveryRecord] = field(default_factory=list)
    #: Total virtual timeline including lost (rolled-back) work and
    #: recovery overheads.  Equals :attr:`elapsed` for fault-free runs.
    wall_elapsed: float = 0.0

    @property
    def elapsed(self) -> float:
        return sum(e.elapsed for e in self.epochs)

    @property
    def time_per_step(self) -> float:
        return self.elapsed / self.nsteps

    @property
    def downtime(self) -> float:
        """Virtual seconds spent in detection + restore + repartition."""
        return sum(r.downtime for r in self.recoveries)

    def phase_total(self, phase: str) -> float:
        return sum(e.rollup.phase_total(phase) for e in self.epochs)

    @property
    def pct_dcf3d(self) -> float:
        """Percentage of total (rank-summed) time in the connectivity
        solution — the paper's '% Time in DCF3D' column."""
        total = sum(e.rollup.total_seconds() for e in self.epochs)
        if total == 0:
            return 0.0
        return 100.0 * self.phase_total(PHASE_DCF) / total

    @property
    def total_flops(self) -> float:
        return sum(e.rollup.total_flops() for e in self.epochs)

    @property
    def mflops_per_node(self) -> float:
        if self.elapsed == 0:
            return 0.0
        return self.total_flops / self.elapsed / self.nprocs / 1e6

    def rollup(self) -> PhaseRollup:
        """Merged per-rank/per-phase rollup over every epoch."""
        if not self.epochs:
            raise ValueError("run has no epochs")
        merged = PhaseRollup(self.nprocs)
        for e in self.epochs:
            merged.merge(e.rollup)
        return merged

    def igbp_rollup(self) -> IgbpRollup:
        """Merged I(p) series over every epoch.

        Note the merged window restarts whenever a repartition changed
        the rank count (see :meth:`repro.obs.rollup.IgbpRollup.record`).
        """
        merged = IgbpRollup()
        for e in self.epochs:
            merged.merge(e.igbp)
        return merged


def driver_options(
    tracer, fault_plan, sanitizer, backend: str | ExecutionBackend
) -> tuple[ExecutionBackend, Any, FaultPlan | None]:
    """Normalise a driver's constructor arguments into ``(backend,
    tracer, fault_plan)``: registry lookup, ``None`` for a disabled
    tracer or an empty plan, spec strings parsed.  The engine's feature
    checks (:func:`repro.backend.check_run_args`) run here, so a
    driver fails before any set-up work.
    """
    if not isinstance(backend, ExecutionBackend):
        backend = get_backend(backend)
    tracer = check_run_args(
        measured=backend.measured,
        tracer=tracer,
        sanitizer=sanitizer,
        fault_plan=fault_plan,
    )
    if isinstance(fault_plan, str):
        fault_plan = FaultPlan.parse(fault_plan)
    elif isinstance(fault_plan, (list, tuple)):
        fault_plan = FaultPlan(fault_plan)
    return backend, tracer, fault_plan if fault_plan else None


def chunk_fault_plan(
    pending: list[FaultSpec],
    nranks: int,
    first_step: int,
    nsteps: int,
    steps_done: int,
    vt: float,
) -> FaultPlan | None:
    """Translate pending run-level faults into one chunk's triggers.

    ``first_step`` is the measured step the chunk starts at,
    ``steps_done`` the measured steps executed before it (``phase``
    triggers count their barriers) and ``vt`` the global virtual time
    at the chunk clocks' origin.  Faults on ranks lost to a shrink are
    dropped.
    """
    if not pending:
        return None
    specs = []
    for f in pending:
        if f.rank >= nranks:
            continue
        if f.step is not None:
            if first_step <= f.step < first_step + nsteps:
                specs.append(FaultSpec(
                    rank=f.rank,
                    phase_index=PHASES_PER_STEP * (f.step - first_step),
                ))
        elif f.time is not None:
            specs.append(FaultSpec(rank=f.rank, time=max(0.0, f.time - vt)))
        else:
            local = f.phase_index - PHASES_PER_STEP * steps_done
            if 0 <= local < PHASES_PER_STEP * nsteps:
                specs.append(FaultSpec(rank=f.rank, phase_index=local))
    return FaultPlan(specs) if specs else None


def charge_span(tracer, ranks: Iterable[int], phase: str, seconds: float) -> None:
    """Lay a driver-level ``phase`` span of ``seconds`` on ``ranks`` and
    move the trace origin past it (no-op without a tracer)."""
    if tracer is None:
        return
    for r in ranks:
        tracer.phase(r, 0.0, phase)
        tracer.op(r, phase, "compute", 0.0, seconds)
    tracer.advance(seconds)


def start_recovery(
    driver,
    machine: MachineSpec,
    failure: RankFailure,
    vt: float,
    step: int,
    nrecoveries: int,
) -> tuple[tuple[int, ...], float, float]:
    """First half of an elastic-shrink episode: failure detection.

    ``driver`` supplies ``tracer``, ``policy``, ``sanitizer`` and
    ``_pending_faults``; ``vt`` is the global virtual time at the failed
    chunk's origin.  Re-raises ``failure`` once the recovery budget is
    spent; otherwise marks ``recovery``, runs detection on ``machine``
    and drops faults pending on dead ranks.  Returns ``(dead ranks,
    global failure time, detection seconds)``.
    """
    if nrecoveries >= driver.policy.max_recoveries:
        raise failure
    tracer = driver.tracer
    vt_fail = vt + failure.time
    if tracer is not None:
        tracer.advance(failure.time)
        tracer.mark(
            0.0, "recovery",
            failed_ranks=list(failure.failed_ranks),
            step=step,
        )
    dead, t_detect = run_failure_detection(
        machine,
        failure.failed_ranks,
        tracer=tracer,
        timeout=driver.policy.detection_timeout,
        sanitizer=driver.sanitizer,
    )
    if tracer is not None:
        tracer.advance(t_detect)
    dead_set = set(dead)
    driver._pending_faults = [
        f for f in driver._pending_faults if f.rank not in dead_set
    ]
    return dead, vt_fail, t_detect


def finish_recovery(
    driver,
    dead: tuple[int, ...],
    nprocs_before: int,
    step_failed: int,
    step_restored: int,
    vt_fail: float,
    t_detect: float,
    checkpoint_bytes: int = 0,
    procs_per_grid: tuple[int, ...] = (),
) -> RecoveryRecord:
    """Second half: ``restore`` spans on the survivors (reading
    ``checkpoint_bytes``), ``repartition`` spans on the renumbered
    ranks, the ``recovered`` mark, and the episode's record."""
    tracer = driver.tracer
    policy = driver.policy
    n_new = nprocs_before - len(dead)
    t_restore = (
        policy.restore_latency + checkpoint_bytes / policy.restore_bandwidth
    )
    charge_span(
        tracer,
        [r for r in range(nprocs_before) if r not in dead],
        "restore",
        t_restore,
    )
    t_rep = policy.repartition_seconds
    charge_span(tracer, range(n_new), "repartition", t_rep)
    record = RecoveryRecord(
        failed_ranks=dead,
        nprocs_before=nprocs_before,
        nprocs_after=n_new,
        step_failed=step_failed,
        step_restored=step_restored,
        t_failure=vt_fail,
        t_detect=t_detect,
        t_restore=t_restore,
        t_repartition=t_rep,
        checkpoint_bytes=checkpoint_bytes,
        procs_per_grid=procs_per_grid,
    )
    if tracer is not None:
        extra = {"procs_per_grid": list(procs_per_grid)} if procs_per_grid else {}
        tracer.mark(
            0.0, "recovered", step=step_restored, nprocs=n_new, **extra
        )
    return record

