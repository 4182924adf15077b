"""Conservative discrete-event scheduler for SimMPI rank programs.

The engine always advances the rank with the globally minimum virtual
time among (a) runnable ranks (key = their clock) and (b) blocked ranks
with a matching message already in their mailbox (key = the wake time,
``max(clock, arrival)``).  Because every future send must be issued by a
rank whose clock is at least that minimum, no message that could alter a
receive matching can arrive at or before the chosen key — the classic
conservative-PDES safety argument — so execution is deterministic and
independent of host scheduling.

The candidates live in a binary heap of ``(key, rank)`` entries, so one
pick is O(log n) instead of a scan of every rank's mailbox.  Each rank
records its currently valid key (``None`` while it is blocked with no
matching message); a popped entry that differs from it, or belongs to a
dead rank, is stale and skipped.  Only two events change a key:

* **the rank steps** — it alone advances its clock and removes from its
  own mailbox, so after a step its key is its clock if runnable, and
  ``None`` if it just blocked (a blocking receive consumes any matching
  message it finds, so none is left);
* **a matching deposit** — a send whose message matches the receiver's
  pending receive can only lower the receiver's wake time, and the
  receiver is pushed with the new key when it does.

Ties are broken by rank id — heap entries order exactly like the
``(time, rank)`` tuples a full scan would compare — so the pick
sequence, and with it every float and trace, is that of the scan, and
runs are byte-for-byte reproducible.

Two extensions support resilience experiments (:mod:`repro.resilience`):

* **Fault injection** — a :class:`repro.machine.faults.FaultPlan`
  fail-stops ranks at a virtual time or phase barrier.  A killed rank's
  mailbox is drained, messages addressed to it are black-holed, and,
  once no survivor can make progress, the scheduler raises a typed
  :class:`repro.machine.faults.RankFailure` (never a misleading
  :class:`DeadlockError`).
* **Warm-started clocks** — ``initial_clocks`` lets a driver split one
  logical epoch into several scheduler runs without perturbing virtual
  time: because matching, waking and tie-breaking depend only on
  virtual clocks (not host order), a run resumed from carried clocks is
  bit-identical to the unsplit run.  This is what makes checkpointing
  timing-neutral.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Any, Callable, Generator, Sequence

if TYPE_CHECKING:  # circular at runtime (analysis, backend -> machine)
    from repro.analysis.sanitizer import Sanitizer
    from repro.backend.api import BackendResult
    from repro.obs.tracer import Tracer

from repro.machine import event
from repro.machine.event import ANY_SOURCE, ANY_TAG, Mailbox, Message
from repro.machine.faults import FaultPlan, RankFailure
from repro.machine.metrics import MachineMetrics, RankMetrics
from repro.machine.simmpi import Comm, describe_tag
from repro.machine.spec import MachineSpec


class DeadlockError(RuntimeError):
    """Live ranks are blocked on receives that can never complete.

    Distinct from :class:`repro.machine.faults.RankFailure`: a deadlock
    is a protocol bug among healthy ranks, a rank failure is injected
    fail-stop loss.  The message reports every blocked rank, what it is
    waiting on (source, tag — with reserved tags named) and what its
    mailbox still holds, so protocol bugs are diagnosable from the
    exception alone.
    """


class _RankState:
    """Book-keeping for one rank's coroutine."""

    __slots__ = (
        "rank",
        "gen",
        "clock",
        "mailbox",
        "blocked_on",
        "phase",
        "metrics",
        "alive",
        "failed",
        "retval",
        "send_value",
        "fault_time",
        "fault_phase",
        "phases_set",
        "tacc",
        "key",
    )

    def __init__(self, rank: int, gen: Generator):
        self.rank = rank
        self.gen = gen
        self.clock = 0.0
        self.mailbox = Mailbox()
        self.blocked_on: tuple[int, int] | None = None  # (src, tag) of a recv
        self.phase = "default"
        self.metrics = RankMetrics(rank)
        # Cached kind->seconds accumulator for the *current* phase,
        # bound lazily on first charge (so a phase with no charged time
        # never appears in the metrics — matching add_time semantics
        # bit-for-bit) and invalidated on every set_phase.
        self.tacc: dict | None = None
        self.alive = True
        self.failed = False  # fail-stopped by the fault plan
        self.retval: Any = None
        self.send_value: Any = None  # value to feed into the next gen.send
        self.fault_time: float | None = None
        self.fault_phase: int | None = None
        self.phases_set = 0  # set_phase calls executed so far
        # Valid scheduler key (see module docstring): the clock while
        # runnable, the wake time once a matching message is pending,
        # None while blocked with nothing to wake on.
        self.key: float | None = 0.0


class Simulator:
    """Run a set of rank programs over a :class:`MachineSpec`.

    Programs are generator functions ``program(comm, *args) -> Generator``;
    their return value (via ``return``) is collected into
    :attr:`repro.backend.api.BackendResult.returns` indexed by rank.

    Parameters
    ----------
    fault_plan:
        Optional :class:`repro.machine.faults.FaultPlan`; only its
        scheduler-level triggers (virtual time / phase index) are
        enacted — driver-level ``step`` triggers are ignored here.
    initial_clocks:
        Optional per-rank starting clocks (one per spawned rank).  Used
        to resume a split epoch: virtual time continues exactly where
        the previous run's clocks ended.
    initial_metrics:
        Optional per-rank :class:`repro.machine.metrics.RankMetrics` to
        continue accumulating into (one per spawned rank).  A split
        epoch that carries both clocks and metrics produces counters
        bit-identical to the unsplit run — the same additions happen in
        the same order on the same accumulators.
    """

    def __init__(
        self,
        machine: MachineSpec,
        tracer: Tracer | None = None,
        fault_plan: FaultPlan | None = None,
        initial_clocks: Sequence[float] | None = None,
        initial_metrics: Sequence[RankMetrics] | None = None,
        sanitizer: Sanitizer | None = None,
        eager_hooks: bool = False,
    ):
        self.machine = machine
        # Span tracing (repro.obs).  Disabled tracers are dropped here so
        # the per-event hot path is a single `is not None` test and the
        # simulated timings are bit-identical with tracing on or off.
        self._tracer = (
            tracer if tracer is not None and tracer.enabled else None
        )
        # Runtime correctness checking (repro.analysis.sanitizer).  Like
        # the tracer it is purely observational: hooks never charge
        # virtual time or change matching, so sanitized runs are
        # bit-identical to plain runs.
        self._sanitizer = sanitizer
        # Hook batching (default): the full Python ``on_send`` hook runs
        # only for the first message of each (tag, phase) key — every
        # later send with a seen key is a plain counter increment, and
        # plain receives are counted locally; both are folded back into
        # the sanitizer via ``add_batched_counts`` when the run ends.
        # This is lossless for findings (every sanitizer check keys on
        # the (tag, phase) pair, deduplicated) and drops the per-send
        # overhead on message-heavy runs (see repro.obs.perf.bench's
        # hook micro-benchmark).  ``eager_hooks=True`` restores one
        # hook call per message — same findings, same counts, more
        # Python overhead.
        self._eager_hooks = bool(eager_hooks)
        self._san_send_seen: set[tuple[int, str]] = set()
        self._san_sends = 0  # elided on_send calls (batched mode)
        self._san_recvs = 0  # elided on_recv calls (batched mode)
        self.fault_plan = fault_plan if fault_plan else None
        self.initial_clocks = (
            list(initial_clocks) if initial_clocks is not None else None
        )
        self.initial_metrics = (
            list(initial_metrics) if initial_metrics is not None else None
        )
        self._programs: list[tuple[Callable, tuple, dict]] = []
        self._failed: dict[int, float] = {}  # rank -> virtual kill time
        self.dropped_messages = 0  # sends black-holed at dead ranks

    # ------------------------------------------------------------------

    def spawn(self, program: Callable, *args, **kwargs) -> int:
        """Register one rank program; returns the rank it will run as."""
        if len(self._programs) >= self.machine.nodes:
            raise ValueError(
                f"machine has {self.machine.nodes} nodes; cannot spawn more ranks"
            )
        self._programs.append((program, args, kwargs))
        return len(self._programs) - 1

    def spawn_all(self, program: Callable, *args, **kwargs) -> None:
        """Register the same program on every node (SPMD style)."""
        for _ in range(self.machine.nodes):
            self.spawn(program, *args, **kwargs)

    # ------------------------------------------------------------------

    def run(
        self,
        max_events: int = 500_000_000,
        raise_on_failure: bool = True,
    ) -> BackendResult:
        """Execute all rank programs to completion; returns the result.

        With ``raise_on_failure=False`` a run in which ranks were
        fail-stopped still returns (failed ranks contribute ``None``
        returns and appear in ``failed_ranks``); survivors blocked
        forever still raise :class:`RankFailure`, because their returns
        would be silently missing otherwise.
        """
        # Imported here: repro.backend imports this module.
        from repro.backend.api import BackendResult, check_run_args

        check_run_args(
            self.machine,
            self._programs,
            initial_clocks=self.initial_clocks,
            initial_metrics=self.initial_metrics,
        )
        n = len(self._programs)
        # Message seq numbers restart at 0 every run: they are pure
        # tiebreakers (relative order within a run is unchanged), and
        # resetting makes mailbox provenance — including sanitizer race
        # witnesses — deterministic regardless of interpreter history.
        event.reset_sequence()
        if self._sanitizer is not None:
            self._sanitizer.begin_run(n)
        states = []
        for rank, (program, args, kwargs) in enumerate(self._programs):
            comm = Comm(rank, n, self.machine)
            if self._sanitizer is not None:
                comm._san = self._sanitizer
            state = _RankState(rank, program(comm, *args, **kwargs))
            if self.initial_clocks is not None:
                state.clock = float(self.initial_clocks[rank])
            if self.initial_metrics is not None:
                state.metrics = self.initial_metrics[rank]
            if self.fault_plan is not None:
                state.fault_time = self.fault_plan.time_fault(rank)
                state.fault_phase = self.fault_plan.phase_fault(rank)
            state.key = state.clock
            states.append(state)
        self._states = states
        self._heap = heap = [(s.clock, s.rank) for s in states]
        heapify(heap)

        events = 0
        while True:
            picked = self._pick()
            if picked is None:
                # No runnable or wakeable rank.  Blocked ranks whose
                # fault time is due die now (virtual time would pass
                # their fail point while the machine idles).
                if self._kill_overdue(states):
                    continue
                break
            state, key_time = picked
            if state.fault_time is not None and key_time >= state.fault_time:
                self._kill(state, max(state.clock, state.fault_time))
                continue
            events += 1
            if events > max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events")
            self._step(state)
            # A step is one of the two key changes (module docstring).
            if state.alive:
                if state.blocked_on is None:
                    state.key = state.clock
                    heappush(heap, (state.clock, state.rank))
                else:
                    state.key = None

        if self._sanitizer is not None and not self._eager_hooks:
            # Fold the batched (elided-hook) counters back in before any
            # exit path, so sanitizer totals match eager mode even when
            # the run ends in RankFailure/DeadlockError below.
            self._sanitizer.add_batched_counts(
                sends=self._san_sends, recvs=self._san_recvs
            )
            self._san_sends = self._san_recvs = 0

        blocked = [s for s in states if s.alive]
        if self._failed and (blocked or raise_on_failure):
            raise RankFailure(
                failed=dict(self._failed),
                time=max(s.clock for s in states),
                blocked=[
                    (s.rank, s.blocked_on[0], s.blocked_on[1])
                    for s in blocked
                ],
                completed=[
                    s.rank
                    for s in states
                    if not s.alive and not s.failed
                ],
                nranks=n,
            )
        if blocked:
            raise DeadlockError(self._deadlock_message(states, blocked))

        if self._sanitizer is not None:
            # Finalize checks (collective cross-check, mailbox leaks)
            # only make sense for runs that completed cleanly; a
            # fail-stopped run legitimately leaves both inconsistent.
            self._sanitizer.end_run(states, failed=bool(self._failed))

        for s in states:
            s.metrics.final_clock = s.clock
        metrics = MachineMetrics([s.metrics for s in states])
        return BackendResult(
            elapsed=metrics.elapsed,
            returns=[s.retval for s in states],
            metrics=metrics,
            failed_ranks=tuple(sorted(self._failed)),
        )

    # ------------------------------------------------------------------

    @staticmethod
    def _deadlock_message(states: list[_RankState], blocked) -> str:
        """Diagnostic text: who is blocked, on what, with what pending."""
        n = len(states)
        completed = sum(1 for s in states if not s.alive and not s.failed)
        lines = [
            f"deadlock: {len(blocked)} of {n} ranks blocked forever "
            f"({completed} completed normally)"
        ]
        for s in blocked:
            src, tag = s.blocked_on
            src_txt = "ANY_SOURCE" if src == ANY_SOURCE else str(src)
            pending = [
                f"(src={m.src}, tag={describe_tag(m.tag)})"
                for m in s.mailbox.pending()
            ]
            lines.append(
                f"  rank {s.rank} blocked on recv(src={src_txt}, "
                f"tag={describe_tag(tag)}) at t={s.clock:.6g}; "
                f"mailbox holds {len(pending)} unmatched: "
                f"[{', '.join(pending)}]"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------

    def _kill(self, state: _RankState, time: float) -> None:
        """Fail-stop one rank: close its program, drain its mailbox."""
        state.clock = time
        state.alive = False
        state.failed = True
        state.blocked_on = None
        state.gen.close()
        lost = state.mailbox.drain()
        self.dropped_messages += len(lost)
        self._failed[state.rank] = time
        if self._tracer is not None:
            self._tracer.mark(
                time, "rank_failure", rank=state.rank, lost_messages=len(lost)
            )

    def _kill_overdue(self, states: list[_RankState]) -> bool:
        """Kill blocked ranks whose virtual-time fault is due; True if any."""
        killed = False
        horizon = max((s.clock for s in states), default=0.0)
        for s in states:
            if s.alive and s.fault_time is not None:
                self._kill(s, max(horizon, s.fault_time))
                killed = True
        return killed

    # ------------------------------------------------------------------

    def _pick(self) -> tuple[_RankState, float] | None:
        """Rank with minimal ``(key, rank)`` and its key, or None."""
        heap, states = self._heap, self._states
        while heap:
            key, rank = heappop(heap)
            s = states[rank]
            if s.alive and s.key == key:
                return s, key
        return None

    def _step(self, state: _RankState) -> None:
        """Advance one rank by one primitive operation."""
        if state.blocked_on is not None:
            # Wakeable blocked receive: complete it now.
            src, tag = state.blocked_on
            if self._sanitizer is not None and src == ANY_SOURCE:
                # Messages may have accumulated while the rank slept;
                # re-check the wildcard race at wake time (findings are
                # deduplicated by message sequence set).
                self._sanitizer.on_wildcard_recv(
                    state.clock, state.rank, tag, state.mailbox, blocking=True
                )
            msg = state.mailbox.pop_matching(src, tag, state.clock, allow_future=True)
            assert msg is not None, "scheduler picked a non-wakeable blocked rank"
            self._complete_recv(state, msg)
            state.blocked_on = None
            return
        try:
            op = state.gen.send(state.send_value)
        except StopIteration as stop:
            state.alive = False
            state.retval = stop.value
            return
        state.send_value = None
        self._dispatch(state, op)

    # ------------------------------------------------------------------

    def _dispatch(self, state: _RankState, op: tuple) -> None:
        kind = op[0]
        if kind == "compute":
            _, dt, flops = op
            if dt < 0:
                raise ValueError(
                    f"negative time increment {dt} in phase {state.phase!r}"
                )
            t0 = state.clock
            state.clock += dt
            acc = state.tacc
            if acc is None:
                acc = state.tacc = state.metrics.time[state.phase]
            acc["compute"] += dt
            if flops:
                state.metrics.add_flops(state.phase, flops)
            if self._tracer is not None:
                self._tracer.op(
                    state.rank, state.phase, "compute", t0, state.clock, flops
                )
        elif kind == "inject":
            _, dst, tag, payload, nbytes = op
            self._inject(state, dst, tag, payload, nbytes)
        elif kind == "recv":
            _, src, tag = op
            if self._sanitizer is not None and src == ANY_SOURCE:
                self._sanitizer.on_wildcard_recv(
                    state.clock, state.rank, tag, state.mailbox, blocking=True
                )
            msg = state.mailbox.pop_matching(src, tag, state.clock, allow_future=True)
            if msg is not None:
                self._complete_recv(state, msg)
            else:
                state.blocked_on = (src, tag)
        elif kind == "tryrecv":
            _, src, tag = op
            self._charge_poll(state)
            if self._sanitizer is not None and src == ANY_SOURCE:
                self._sanitizer.on_wildcard_recv(
                    state.clock, state.rank, tag, state.mailbox,
                    blocking=False,
                )
            msg = state.mailbox.pop_matching(src, tag, state.clock, allow_future=False)
            if msg is not None:
                state.metrics.messages_received += 1
                if self._sanitizer is not None:
                    if self._eager_hooks:
                        self._sanitizer.on_recv(state.clock, state.rank, msg)
                    else:
                        self._san_recvs += 1
                if self._tracer is not None:
                    self._tracer.recv(
                        state.clock, state.rank, msg.src, msg.tag,
                        msg.nbytes, state.phase,
                    )
            state.send_value = msg
        elif kind == "drain":
            _, src, tag = op
            self._charge_poll(state)
            msgs = state.mailbox.pop_all_matching(src, tag, state.clock)
            if msgs:
                state.metrics.messages_received += len(msgs)
                if self._tracer is not None:
                    for m in msgs:
                        self._tracer.recv(
                            state.clock, state.rank, m.src, m.tag,
                            m.nbytes, state.phase,
                        )
            if self._sanitizer is not None:
                self._sanitizer.on_drain(
                    state.clock, state.rank, src, tag, msgs
                )
            state.send_value = msgs
        elif kind == "iprobe":
            _, src, tag = op
            self._charge_poll(state)
            msg = state.mailbox.peek_matching(src, tag, state.clock, allow_future=False)
            state.send_value = msg is not None
        elif kind == "now":
            state.send_value = state.clock
        elif kind == "set_phase":
            if (
                state.fault_phase is not None
                and state.phases_set >= state.fault_phase
            ):
                self._kill(state, state.clock)
                return
            state.phases_set += 1
            old, state.phase = state.phase, op[1]
            state.tacc = None  # re-bind the time accumulator lazily
            state.send_value = old
            if self._tracer is not None:
                self._tracer.phase(state.rank, state.clock, state.phase)
        else:  # pragma: no cover - API misuse guard
            raise ValueError(f"unknown primitive op {kind!r} from rank {state.rank}")

    def _inject(self, state: _RankState, dst: int, tag: int, payload, nbytes: int) -> None:
        net = self.machine.network
        if dst == state.rank:
            dt = net.overhead + nbytes * net.self_copy
            arrival = state.clock + dt
        else:
            dt = net.injection_time(nbytes)
            arrival = state.clock + dt + net.latency
        t0 = state.clock
        state.clock += dt
        acc = state.tacc
        if acc is None:
            acc = state.tacc = state.metrics.time[state.phase]
        acc["comm"] += dt
        state.metrics.messages_sent += 1
        state.metrics.bytes_sent += nbytes
        if self._tracer is not None:
            self._tracer.op(
                state.rank, state.phase, "comm", t0, state.clock,
                nbytes=nbytes,
            )
            self._tracer.send(
                t0, state.rank, dst, tag, nbytes, state.phase
            )
        target = self._states[dst]
        if self._sanitizer is not None:
            if self._eager_hooks:
                self._sanitizer.on_send(
                    t0, state.rank, dst, tag, nbytes, state.phase,
                    dropped=target.failed,
                )
            else:
                key = (tag, state.phase)
                if key in self._san_send_seen:
                    # Every sanitizer send check keys on (tag, phase)
                    # and is deduplicated, so a repeat is pure counting.
                    self._san_sends += 1
                else:
                    self._san_send_seen.add(key)
                    self._sanitizer.on_send(
                        t0, state.rank, dst, tag, nbytes, state.phase,
                        dropped=target.failed,
                    )
        if target.failed:
            # Fail-stop semantics: the network can tell nobody is
            # listening; the message is black-holed (sender still paid
            # the injection cost, as on a real machine).
            self.dropped_messages += 1
            return
        msg = Message(
            src=state.rank,
            dst=dst,
            tag=tag,
            payload=payload,
            nbytes=nbytes,
            send_time=state.clock,
            arrival_time=arrival,
        )
        target.mailbox.deposit(msg)
        if target.blocked_on is not None:
            src, tag = target.blocked_on
            if msg.matches(src, tag):
                wake = max(target.clock, arrival)
                if target.key is None or wake < target.key:
                    target.key = wake
                    heappush(self._heap, (wake, dst))

    def _complete_recv(self, state: _RankState, msg: Message) -> None:
        t0 = state.clock
        wait = max(0.0, msg.arrival_time - state.clock)
        state.clock = max(state.clock, msg.arrival_time)
        acc = state.tacc
        if acc is None:
            acc = state.tacc = state.metrics.time[state.phase]
        acc["wait"] += wait
        state.metrics.messages_received += 1
        if self._sanitizer is not None:
            if self._eager_hooks:
                self._sanitizer.on_recv(state.clock, state.rank, msg)
            else:
                self._san_recvs += 1
        state.send_value = msg
        if self._tracer is not None:
            self._tracer.op(
                state.rank, state.phase, "wait", t0, state.clock,
                nbytes=msg.nbytes,
            )
            self._tracer.recv(
                state.clock, state.rank, msg.src, msg.tag,
                msg.nbytes, state.phase,
            )

    def _charge_poll(self, state: _RankState) -> None:
        dt = self.machine.network.poll_overhead
        t0 = state.clock
        state.clock += dt
        acc = state.tacc
        if acc is None:
            acc = state.tacc = state.metrics.time[state.phase]
        acc["comm"] += dt
        if self._tracer is not None:
            self._tracer.op(state.rank, state.phase, "comm", t0, state.clock)
