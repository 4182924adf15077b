"""The OVERFLOW-D1 performance driver.

Runs the paper's per-timestep loop on the simulated machine:

1. **flow solve** — each rank charges the work-model arithmetic for its
   subdomain and exchanges halo faces with its neighbours on the same
   component grid (one round per factored sweep direction);
2. **grid motion** — ranks of moving grids charge the rigid-transform
   update; the shared world state advances (new coordinates, holes cut,
   IGBPs identified);
3. **domain connectivity** — the real distributed DCF3D protocol
   (:mod:`repro.connectivity.dcf`) runs, producing per-rank received-
   IGBP counts I(p) and walk-step work.

Barriers separate the three modules, as in the paper ("barriers are put
in place to synchronize each of the solution modules").

Dynamic load balancing (Algorithm 2) happens between *epochs*: the
driver simulates ``lb_check_interval`` timesteps, inspects the
accumulated I(p), and — when f0 is finite and some processor exceeds it
— rebuilds the partition and continues.  Virtual time accumulates
across epochs.

Resilience (:mod:`repro.resilience`)
------------------------------------
The driver optionally runs with a fault plan, periodic checkpoints and
elastic recovery:

* **checkpointing** splits an epoch into sub-chunks at checkpoint
  boundaries.  Sub-chunks are resumed with *carried clocks*
  (``Simulator(initial_clocks=...)``): the scheduler's matching, waking
  and tie-breaking depend only on virtual clocks, so a split epoch is
  bit-identical to the unsplit one — checkpointing perturbs nothing.
  Checkpoint *writes* are modeled as free (overlapped with
  computation); only *restores* carry a modeled cost.
* **fault injection** and **elastic recovery** (detection, restore of
  the last checkpoint, Algorithm 1 over the survivors) share their
  code with the off-body driver (:mod:`repro.core.epoch`); the episode
  lands on the trace timeline as ``failure-detection`` / ``restore`` /
  ``repartition`` spans with continuous epoch offsets.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.backend import BackendResult, ExecutionBackend
from repro.connectivity.dcf import DcfConfig, DcfWorld, dcf_rank_program
from repro.connectivity.holecut import cut_holes
from repro.connectivity.igbp import IgbpSet, find_igbps
from repro.connectivity.restart import RestartCache
from repro.core.config import CaseConfig
from repro.core.epoch import (
    PHASE_DCF,
    PHASE_FLOW,
    PHASE_MOTION,
    ChunkAccum,
    RunResultBase,
    StepStats,
    chunk_fault_plan,
    driver_options,
    finish_recovery,
    start_recovery,
)
from repro.machine.faults import FaultSpec, RankFailure
from repro.obs.rollup import IgbpRollup, PhaseRollup
from repro.partition.assignment import Partition, build_partition
from repro.partition.dynamic_lb import DynamicRebalancer
from repro.resilience.checkpoint import Checkpoint, CheckpointStore
from repro.resilience.recovery import RecoveryPolicy

TAG_HALO = 201


@dataclass
class EpochResult:
    """One contiguous run at a fixed partition.

    All timing/counter data lives in the two :mod:`repro.obs` rollups.
    """

    partition: Partition
    first_step: int
    nsteps: int
    elapsed: float
    rollup: PhaseRollup     # per-rank/per-phase compute/comm/wait + flops
    igbp: IgbpRollup        # per-step, per-rank I(p)
    search_steps_total: int
    orphans_total: int

    @property
    def igbp_per_rank_step(self) -> np.ndarray:
        """(nsteps, nprocs) I(p) matrix (derived from the IGBP rollup)."""
        return self.igbp.per_step()


@dataclass
class RunResult(RunResultBase):
    """Merged outcome of a full OVERFLOW-D1 run (epochs are
    :class:`EpochResult`)."""

    def phase_elapsed(self, phase: str) -> float:
        """Critical-path seconds of one phase (slowest rank per epoch)."""
        return sum(e.rollup.phase_max(phase) for e in self.epochs)

    @property
    def partition_history(self) -> list[tuple[int, tuple[int, ...]]]:
        return [(e.first_step, e.partition.procs_per_grid) for e in self.epochs]


class _WorldState:
    """Shared (read-mostly) overset system state, advanced by rank 0."""

    def __init__(self, config: CaseConfig) -> None:
        self.config = config
        self.reference = list(config.grids)
        self.grids = list(config.grids)
        self.time = 0.0
        self.iblanks: list[np.ndarray] = []
        self.igbp_sets: list[IgbpSet] = []
        self.advance(0.0)

    def advance(self, t: float) -> None:
        cfg = self.config
        grids = []
        for gi, ref in enumerate(self.reference):
            motion = cfg.motions.get(gi)
            if motion is None:
                grids.append(self.grids[gi] if t > 0.0 else ref)
            else:
                grids.append(ref.with_coordinates(motion.at(t).apply(ref.xyz)))
        self.grids = grids
        self.time = t
        self._recompute()

    def restore(self, t: float, xyz_list) -> None:
        """Reset to checkpointed poses (no motion recomputation).

        Restoring the stored coordinates directly — rather than
        re-evaluating the motions at ``t`` — keeps restore exact even
        for stateful motions (e.g. the 6-DoF integrator) whose
        trajectory depends on history, and is bit-identical by
        construction for the prescribed ones.
        """
        self.grids = [
            ref.with_coordinates(xyz)
            for ref, xyz in zip(self.reference, xyz_list)
        ]
        self.time = t
        self._recompute()

    def _recompute(self) -> None:
        cfg = self.config
        self.iblanks = cut_holes(self.grids)
        self.igbp_sets = [
            find_igbps(g, gi, self.iblanks[gi], cfg.fringe_layers)
            for gi, g in enumerate(self.grids)
        ]

    def own_igbps(
        self, partition: Partition, rank: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """(flat ids, coordinates) of the IGBPs this rank owns."""
        gi = partition.grid_of_rank(rank)
        box = partition.subdomain_of(rank).box
        s = self.igbp_sets[gi]
        if s.count == 0:
            return (
                np.zeros(0, dtype=np.int64),
                np.zeros((0, self.grids[0].ndim)),
            )
        multi = np.stack(
            np.unravel_index(s.flat_indices, self.grids[gi].dims), axis=-1
        )
        mine = np.all((multi >= box.lo) & (multi < box.hi), axis=1)
        return s.flat_indices[mine], s.points[mine]


def _halo_neighbors(partition: Partition) -> list[list[tuple[int, int]]]:
    """Per rank: (neighbour rank, shared face points) on the same grid."""
    out: list[list[tuple[int, int]]] = [[] for _ in range(partition.nprocs)]
    for gi in range(partition.ngrids):
        ranks = partition.ranks_of_grid(gi)
        for a in ranks:
            for b in ranks:
                if b <= a:
                    continue
                shared = _shared_face(
                    partition.subdomain_of(a).box, partition.subdomain_of(b).box
                )
                if shared > 0:
                    out[a].append((b, shared))
                    out[b].append((a, shared))
    return out


def _shared_face(a, b) -> int:
    """Points on the face shared by two abutting boxes (0 if not)."""
    touch_axis = None
    overlap = 1
    for d in range(a.ndim):
        if a.hi[d] == b.lo[d] or b.hi[d] == a.lo[d]:
            if touch_axis is not None:
                return 0  # touch along two axes: edge, not face
            touch_axis = d
        else:
            lo = max(a.lo[d], b.lo[d])
            hi = min(a.hi[d], b.hi[d])
            if hi <= lo:
                return 0
            overlap *= hi - lo
    return overlap if touch_axis is not None else 0


def _epoch_result(acc: ChunkAccum, partition: Partition) -> EpochResult:
    """Commit an epoch's accumulated chunks at ``partition``."""
    return EpochResult(
        partition=partition,
        first_step=acc.first_step,
        nsteps=acc.steps_done,
        elapsed=acc.elapsed,
        rollup=acc.rollup(partition.nprocs),
        igbp=acc.igbp(),
        search_steps_total=acc.search_total,
        orphans_total=acc.orphans_total,
    )


@dataclass
class _DriverState:
    """Everything the driver needs to continue (and to checkpoint)."""

    step: int                       # next absolute step (incl. warmup)
    partition: Partition
    rebalancer: DynamicRebalancer
    cache: RestartCache | None
    epochs: list = field(default_factory=list)
    recoveries: list = field(default_factory=list)
    #: Global virtual time at the current epoch's origin — mirrors the
    #: tracer offset, and works identically with ``tracer=None``.
    vt: float = 0.0
    #: Partial epoch in flight (None exactly at epoch boundaries); it
    #: always runs at ``partition``.
    epoch: ChunkAccum | None = None


class OverflowD1:
    """Run a :class:`CaseConfig` on N simulated nodes.

    Pass a :class:`repro.obs.SpanTracer` to record per-rank span events
    for the measured epochs (warm-up is excluded, matching the paper's
    statistics).  With ``tracer=None`` (default) nothing is recorded
    and the simulated timings are bit-identical.

    Resilience parameters (all optional; defaults reproduce the
    historical infallible-machine behaviour exactly):

    fault_plan:
        A :class:`repro.machine.faults.FaultPlan`, a fault-spec string
        (``"rank=3@step=40"``), or a list of specs/strings.  ``step``
        triggers count *measured* timesteps (warm-up excluded); ``t``
        triggers are global measured virtual seconds; ``phase`` triggers
        count ``set_phase`` barriers over measured steps.
    checkpoint_every:
        Snapshot the full driver state every N measured steps.
        Checkpoint boundaries may fall inside an epoch; carried clocks
        keep the run bit-identical either way.
    checkpoint_store:
        A :class:`repro.resilience.checkpoint.CheckpointStore` (or a
        directory path) that persists checkpoints to disk.  Without it,
        checkpoints stay in memory (still usable for recovery).
    recovery_policy:
        Modeled restore/repartition costs and the detection timeout
        (:class:`repro.resilience.recovery.RecoveryPolicy`).
    backend:
        Execution engine for the rank programs: a registry name
        (``"sim"``/``"mp"``) or an
        :class:`repro.backend.ExecutionBackend` instance.  The default
        ``"sim"`` runs on the deterministic discrete-event simulator,
        bit-identical to every release before backends existed.
        ``"mp"`` runs each rank as a real process with measured
        wall-clock accounting; physics outputs (step stats, IGBP
        counts) are identical, timings are measured rather than
        modeled.  Fault injection and the sanitizer require ``"sim"``.
    """

    def __init__(
        self,
        config: CaseConfig,
        tracer=None,
        fault_plan=None,
        checkpoint_every: int | None = None,
        checkpoint_store=None,
        recovery_policy: RecoveryPolicy | None = None,
        sanitizer=None,
        backend: str | ExecutionBackend = "sim",
    ) -> None:
        self.config = config
        self.backend, self.tracer, self.fault_plan = driver_options(
            tracer, fault_plan, sanitizer, backend
        )
        #: Optional :class:`repro.analysis.sanitizer.Sanitizer`.  Purely
        #: observational — threading it through every chunk (including
        #: warm-up and recovery re-runs) never perturbs virtual time.
        self.sanitizer = sanitizer
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.checkpoint_every = checkpoint_every
        if isinstance(checkpoint_store, (str, Path)):
            checkpoint_store = CheckpointStore(checkpoint_store)
        self.checkpoint_store = checkpoint_store
        self.policy = recovery_policy or RecoveryPolicy()
        self._pending_faults: list[FaultSpec] = []
        self._steps_done = 0       # measured steps actually executed
        self._last_ckpt: Checkpoint | None = None

    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        cfg = self.config
        nprocs = cfg.machine.nodes
        partition = build_partition([g.dims for g in cfg.grids], nprocs)
        rebalancer = DynamicRebalancer(
            f0=cfg.f0, check_interval=cfg.lb_check_interval
        )
        # One cache shared by all ranks: restart data lives with the
        # IGBPs (keyed by receiver grid + point id), so it survives
        # repartitioning just as block data redistributed by a real
        # dynamic rebalance would.
        cache = RestartCache() if cfg.use_restart else None
        world = _WorldState(cfg)

        # Warm-up: the paper's statistics exclude preprocessing, and the
        # first connectivity solve (everything searched from scratch) is
        # exactly that; these steps warm the nth-level-restart caches
        # and their metrics are discarded.  Warm-up is never traced,
        # never checkpointed and never faulted.
        if cfg.warmup_steps:
            self._run_chunk(
                world, partition, cache, 0, cfg.warmup_steps,
                clocks=None, tracer=None, fault_plan=None,
            )

        state = _DriverState(
            step=cfg.warmup_steps,
            partition=partition,
            rebalancer=rebalancer,
            cache=cache,
        )
        self._pending_faults = (
            list(self.fault_plan.faults) if self.fault_plan else []
        )
        self._steps_done = 0
        if self.fault_plan is not None or getattr(self.backend, "elastic", False):
            # Implicit step-0 restore point: recovery works even before
            # the first periodic checkpoint (or with checkpointing off).
            # Elastic backends (cluster) get one too — their faults are
            # real node losses that arrive without any plan.
            self._last_ckpt = self._snapshot(state, world)
        return self._main_loop(state, world)

    def resume(self, checkpoint) -> RunResult:
        """Continue a run from a checkpoint (path, bytes-level
        :class:`Checkpoint`, or store's latest).

        The resumed run's :class:`RunResult` covers the *whole* run —
        restored epochs plus the continuation — and, on the same
        processor count with no faults, is bit-identical to the
        uninterrupted run.
        """
        if isinstance(checkpoint, (str, Path)):
            checkpoint = Checkpoint.load(checkpoint)
        data = checkpoint.unpack()
        cfg = data["config"]
        if cfg.name != self.config.name:
            raise ValueError(
                f"checkpoint is for case {cfg.name!r}, "
                f"driver built for {self.config.name!r}"
            )
        self.config = cfg
        state: _DriverState = data["driver"]
        world = _WorldState.__new__(_WorldState)
        world.config = cfg
        world.reference = list(cfg.grids)
        world.grids = list(cfg.grids)
        world.restore(data["world"]["t"], data["world"]["xyz"])
        if self.tracer is not None and state.vt > 0:
            # Align the trace origin with the restored virtual time so
            # resumed spans continue the original timeline.
            self.tracer.advance(state.vt)
        self._pending_faults = (
            list(self.fault_plan.faults) if self.fault_plan else []
        )
        self._steps_done = 0
        self._last_ckpt = checkpoint
        return self._main_loop(state, world)

    # ------------------------------------------------------------------

    def _main_loop(self, state: _DriverState, world: _WorldState) -> RunResult:
        cfg = self.config
        last = cfg.warmup_steps + cfg.nsteps
        while state.step < last or state.epoch is not None:
            try:
                self._advance(state, world, last)
            except RankFailure as failure:
                state = self._recover(state, world, failure)
        return RunResult(
            case=cfg.name,
            machine=cfg.machine.name,
            nprocs=cfg.machine.nodes,
            nsteps=cfg.nsteps,
            epochs=state.epochs,
            recoveries=state.recoveries,
            wall_elapsed=state.vt,
        )

    def _advance(self, state: _DriverState, world: _WorldState, last: int) -> None:
        """Run one sub-chunk; commit the epoch when it completes."""
        cfg = self.config
        tracer = self.tracer
        if state.epoch is None:
            remaining = last - state.step
            planned = (
                remaining
                if math.isinf(cfg.f0)
                else min(cfg.lb_check_interval, remaining)
            )
            if tracer is not None:
                tracer.mark(
                    0.0, "epoch",
                    first_step=state.step - cfg.warmup_steps,
                    nsteps=planned,
                    procs_per_grid=list(state.partition.procs_per_grid),
                )
            state.epoch = ChunkAccum(first_step=state.step, planned=planned)
        acc = state.epoch
        epoch_end = acc.first_step + acc.planned
        chunk_end = epoch_end
        if self.checkpoint_every:
            k = self.checkpoint_every
            measured = state.step - cfg.warmup_steps
            next_ckpt = cfg.warmup_steps + (measured // k + 1) * k
            chunk_end = min(chunk_end, next_ckpt)
        nsteps = chunk_end - state.step

        out = self._run_chunk(
            world, state.partition, state.cache, state.step, nsteps,
            clocks=acc.clocks, metrics=acc.metrics, tracer=tracer,
            fault_plan=chunk_fault_plan(
                self._pending_faults, state.partition.nprocs,
                state.step - cfg.warmup_steps, nsteps, self._steps_done,
                state.vt,
            ),
        )
        acc.add(out, nsteps)
        state.step = chunk_end
        self._steps_done += nsteps

        if state.step == epoch_end:
            epoch = _epoch_result(acc, state.partition)
            state.epochs.append(epoch)
            state.rebalancer.record_epoch(epoch.igbp)
            state.epoch = None
            if tracer is not None:
                tracer.advance(epoch.elapsed)
            state.vt += epoch.elapsed
            new = state.rebalancer.maybe_rebalance(state.partition, state.step)
            if new is not None:
                state.partition = new
                if tracer is not None:
                    tracer.mark(
                        0.0, "rebalance",
                        step=state.step - cfg.warmup_steps,
                        procs_per_grid=list(new.procs_per_grid),
                    )

        if (
            self.checkpoint_every
            and (state.step - cfg.warmup_steps) % self.checkpoint_every == 0
            and state.step < last
        ):
            ckpt = self._snapshot(state, world)
            self._last_ckpt = ckpt
            if self.checkpoint_store is not None:
                self.checkpoint_store.write(ckpt)
            if tracer is not None:
                tracer.mark(
                    0.0, "checkpoint",
                    step=state.step - cfg.warmup_steps,
                    nbytes=ckpt.nbytes,
                )

    # ------------------------------------------------------------------
    # recovery

    def _recover(
        self, state: _DriverState, world: _WorldState, failure: RankFailure
    ) -> _DriverState:
        """Detection -> restore -> repartition; returns the new state."""
        cfg = self.config
        old_n = state.partition.nprocs
        ckpt = self._last_ckpt
        if ckpt is None:
            raise failure  # no restore point: surface the failure
        # failure.time is epoch-local; the tracer offset and state.vt
        # sit at the epoch origin.
        dead, vt_fail, t_detect = start_recovery(
            self, cfg.machine.with_nodes(old_n), failure, state.vt,
            state.step - cfg.warmup_steps, len(state.recoveries),
        )
        if old_n - len(dead) < len(cfg.grids):
            # Not enough survivors to give every grid a processor.
            raise failure

        # Restore the last checkpoint.
        data = ckpt.unpack()
        restored: _DriverState = data["driver"]
        world.restore(data["world"]["t"], data["world"]["xyz"])
        restored.recoveries = state.recoveries  # superset of checkpointed

        # A restored partial epoch ran under the pre-failure partition;
        # the shrink forces an epoch boundary, so commit it as a short
        # epoch (its spans already sit at the right timeline position).
        if restored.epoch is not None and restored.epoch.steps_done > 0:
            partial = _epoch_result(restored.epoch, restored.partition)
            restored.epochs.append(partial)
            restored.rebalancer.record_epoch(partial.igbp)
        restored.epoch = None

        # Repartition: Algorithm 1 over the surviving processor set,
        # survivors renumbered contiguously (ULFM shrink).
        new_partition = build_partition(
            [g.dims for g in cfg.grids], old_n, exclude_ranks=dead
        )
        record = finish_recovery(
            self, dead, old_n,
            step_failed=state.step - cfg.warmup_steps,
            step_restored=restored.step - cfg.warmup_steps,
            vt_fail=vt_fail,
            t_detect=t_detect,
            checkpoint_bytes=ckpt.nbytes,
            procs_per_grid=new_partition.procs_per_grid,
        )
        restored.partition = new_partition
        restored.vt = record.t_resumed
        restored.recoveries.append(record)

        # The post-recovery state is the new restore point: any later
        # failure must not resurrect the dead ranks.
        self._last_ckpt = self._snapshot(restored, world)
        if self.checkpoint_store is not None:
            self.checkpoint_store.write(self._last_ckpt)
        return restored

    # ------------------------------------------------------------------
    # checkpointing

    def _snapshot(self, state: _DriverState, world: _WorldState) -> Checkpoint:
        """Serialise the full driver state (deep-copy semantics)."""
        cfg = self.config
        meta = {
            "case": cfg.name,
            "machine": cfg.machine.name,
            "step": state.step,
            "measured_step": state.step - cfg.warmup_steps,
            "nprocs": state.partition.nprocs,
            "vt": state.vt + (state.epoch.elapsed if state.epoch else 0.0),
            "recoveries": len(state.recoveries),
        }
        return Checkpoint.pack(meta, {
            "config": cfg,
            "driver": state,
            "world": {"t": world.time, "xyz": [g.xyz for g in world.grids]},
        })

    # ------------------------------------------------------------------

    def _run_chunk(
        self,
        world: _WorldState,
        partition: Partition,
        cache,
        first_step: int,
        nsteps: int,
        clocks=None,
        metrics=None,
        tracer=None,
        fault_plan=None,
    ) -> BackendResult:
        """Simulate ``nsteps`` timesteps at a fixed partition.

        ``clocks``/``metrics`` warm-start the per-rank virtual clocks
        and counter accumulators (continuing a split epoch); returns the
        engine's :class:`repro.backend.BackendResult`.

        Backends without shared state (real processes) need three
        deviations, all behind ``shared_state``:

        * every rank advances its *private* world copy in the motion
          phase (rank 0 alone would leave peers' copies stale);
        * each rank returns its private restart cache alongside its
          step stats, and the driver merges them back (ownership of
          IGBP points is disjoint within a chunk, so the union equals
          the shared cache's content at every read point — the
          backend-equivalence tests pin this);
        * the driver re-synchronises its own world copy to the chunk's
          end time (``at(t)`` motions are deterministic functions of
          absolute time, so this is exact).
        """
        cfg = self.config
        nprocs = partition.nprocs
        shared_state = self.backend.shared_state
        caches = [cache] * nprocs
        base_hits = cache.hits if cache is not None else 0
        base_misses = cache.misses if cache is not None else 0
        neighbors = _halo_neighbors(partition)
        dcf_cfg = DcfConfig(
            search_lists=cfg.search_lists, use_restart=cfg.use_restart
        )
        grid_of_rank = [partition.grid_of_rank(r) for r in range(nprocs)]
        rank_boxes = [partition.subdomain_of(r).box for r in range(nprocs)]
        ranks_of_grid = {
            gi: partition.ranks_of_grid(gi) for gi in range(partition.ngrids)
        }

        from repro.grids.subdomain import interior_face_points

        def program(comm):
            rank = comm.rank
            gi = grid_of_rank[rank]
            grid0 = cfg.grids[gi]
            box = rank_boxes[rank]
            own_pts = box.npoints
            # Fraction of this subdomain's points in the halo-adjacent
            # strip (the part that must wait for neighbour data when
            # overlapping communication with computation).
            strip = min(
                0.9, interior_face_points(box, grid0.dims) / max(1, own_pts)
            )
            flow_flops = cfg.work.flow_flops(
                own_pts, grid0.viscous, grid0.turbulence, grid0.ndim
            )
            moves = gi in cfg.motions
            stats_out: list[StepStats] = []

            for s in range(nsteps):
                step = first_step + s
                # ---- (1) flow solve -------------------------------------
                yield from comm.set_phase(PHASE_FLOW)
                if cfg.overlap_halo:
                    # Section-5 latency hiding: inject halos, sweep the
                    # interior while they fly, then finish the strip.
                    for _ in range(cfg.work.halo_exchanges_per_step):
                        for nbr, shared in neighbors[rank]:
                            yield from comm.send(
                                nbr, TAG_HALO, None,
                                nbytes=cfg.work.halo_bytes(shared),
                            )
                        yield from comm.compute(
                            flops=flow_flops
                            * (1.0 - strip)
                            / cfg.work.halo_exchanges_per_step,
                            points_per_node=own_pts,
                        )
                        for nbr, _ in neighbors[rank]:
                            yield from comm.recv(nbr, TAG_HALO)
                        yield from comm.compute(
                            flops=flow_flops
                            * strip
                            / cfg.work.halo_exchanges_per_step,
                            points_per_node=own_pts,
                        )
                else:
                    yield from comm.compute(
                        flops=flow_flops, points_per_node=own_pts
                    )
                    for _ in range(cfg.work.halo_exchanges_per_step):
                        for nbr, shared in neighbors[rank]:
                            yield from comm.send(
                                nbr, TAG_HALO, None,
                                nbytes=cfg.work.halo_bytes(shared),
                            )
                        for nbr, _ in neighbors[rank]:
                            yield from comm.recv(nbr, TAG_HALO)
                yield from comm.barrier()

                # ---- (2) grid motion ------------------------------------
                yield from comm.set_phase(PHASE_MOTION)
                if moves:
                    yield from comm.compute(
                        flops=cfg.work.motion_flops(own_pts)
                    )
                if rank == 0 or not shared_state:
                    # Shared state: rank 0 advances the one world every
                    # rank reads.  Private state (mp): every rank must
                    # advance its own copy — deterministic in absolute
                    # time, so all copies agree bit-for-bit.
                    world.advance((step + 1) * cfg.dt)
                yield from comm.barrier()

                # ---- (3) domain connectivity ----------------------------
                yield from comm.set_phase(PHASE_DCF)
                yield from comm.compute(
                    flops=cfg.work.holecut_flops_per_point * own_pts
                )
                dcf_world = DcfWorld(
                    grid_xyz=[g.xyz for g in world.grids],
                    grid_of_rank=grid_of_rank,
                    rank_boxes=rank_boxes,
                    ranks_of_grid=ranks_of_grid,
                    config=dcf_cfg,
                    work=cfg.work,
                )
                flat, pts = world.own_igbps(partition, rank)
                _, cstats = yield from dcf_rank_program(
                    comm, dcf_world, flat, pts, caches[rank]
                )
                stats_out.append(
                    StepStats(
                        step=step,
                        igbps_received=cstats.igbps_received,
                        search_steps=cstats.search_steps,
                        donors_found=cstats.donors_found,
                        orphans=cstats.orphans,
                    )
                )
                yield from comm.barrier()
            if shared_state:
                return stats_out
            # Private-state backends ship the rank's cache copy home so
            # the driver can merge this chunk's warm-start data.
            return stats_out, caches[rank]

        out = self.backend.run(
            cfg.machine.with_nodes(nprocs),
            [program] * nprocs,
            tracer=tracer,
            fault_plan=fault_plan,
            initial_clocks=clocks,
            initial_metrics=metrics,
            sanitizer=self.sanitizer,
        )
        if not shared_state:
            returns = []
            for ret in out.returns:
                stats, rank_cache = ret
                returns.append(stats)
                if cache is not None and rank_cache is not None:
                    cache.merge(
                        rank_cache,
                        base_hits=base_hits,
                        base_misses=base_misses,
                    )
            out.returns = returns
            # Bring the driver's own world copy up to the chunk end.
            world.advance((first_step + nsteps) * cfg.dt)
        return out


def resume_run(
    checkpoint,
    tracer=None,
    fault_plan=None,
    checkpoint_every: int | None = None,
    checkpoint_store=None,
    recovery_policy: RecoveryPolicy | None = None,
    sanitizer=None,
    backend: str | ExecutionBackend = "sim",
) -> RunResult:
    """Resume an OVERFLOW-D1 run from a checkpoint file/object.

    Convenience wrapper: reads the case config out of the checkpoint,
    builds the driver and continues.  Used by ``repro resume``.
    """
    if isinstance(checkpoint, (str, Path)):
        checkpoint = Checkpoint.load(checkpoint)
    cfg = pickle.loads(checkpoint.sections["config"])
    driver = OverflowD1(
        cfg,
        tracer=tracer,
        fault_plan=fault_plan,
        checkpoint_every=checkpoint_every,
        checkpoint_store=checkpoint_store,
        recovery_policy=recovery_policy,
        sanitizer=sanitizer,
        backend=backend,
    )
    return driver.resume(checkpoint)
