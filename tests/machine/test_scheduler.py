"""The heap picker against a full-scan oracle, and its work bound.

:meth:`Simulator._pick` keeps candidate ranks in a heap keyed by
``(time, rank)``.  The differential test swaps in the reference
O(nranks) scan below — every live rank's key recomputed from its clock
and mailbox at every event — and asserts that random rank programs,
faults and deadlocks included, produce identical event streams,
results and errors either way.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.machine import (
    ANY_SOURCE,
    ANY_TAG,
    DeadlockError,
    FaultPlan,
    FaultSpec,
    MachineSpec,
    NetworkSpec,
    NodeSpec,
    RankFailure,
    Simulator,
)
from repro.machine.event import Mailbox
from repro.machine.metrics import RankMetrics
from repro.obs import SpanTracer


def scan_pick(states):
    """Reference picker: rank with minimal next-event time, by full scan."""
    best = None
    best_key = None
    for s in states:
        if not s.alive:
            continue
        if s.blocked_on is None:
            key = (s.clock, s.rank)
        else:
            src, tag = s.blocked_on
            msg = s.mailbox.peek_matching(src, tag, s.clock, allow_future=True)
            if msg is None:
                continue  # blocked, not wakeable yet
            key = (max(s.clock, msg.arrival_time), s.rank)
        if best_key is None or key < best_key:
            best, best_key = s, key
    if best is None:
        return None
    return best, best_key[0]


def make_machine(nodes):
    # 100-byte messages inject in 1e-4 s plus overhead and arrive 1e-4 s
    # later, so compute steps of 1e-4 s produce tied keys.
    return MachineSpec("sched", nodes, NodeSpec(1e6), NetworkSpec(1e-4, 1e6))


def program(comm, ops):
    """Interpret one rank's op list; return what the rank observed."""
    seen = []
    for op in ops:
        kind = op[0]
        if kind == "compute":
            yield from comm.elapse(op[1])
        elif kind == "send":
            _, dst, tag, nbytes = op
            yield from comm.send(dst % comm.size, tag, (comm.rank, len(seen)), nbytes)
        elif kind == "recv":
            payload, status = yield from comm.recv(op[1], op[2])
            seen.append(("recv", payload, status.source, status.tag))
        elif kind == "tryrecv":
            req = yield from comm.irecv(op[1], op[2])
            done = yield from comm.test(req)
            seen.append(("try", done, req.payload))
        elif kind == "drain":
            got = yield from comm.drain_recv(op[1], op[2])
            seen.append(("drain", [(p, st.source) for p, st in got]))
        elif kind == "iprobe":
            seen.append(("iprobe", (yield from comm.iprobe(op[1], op[2]))))
        elif kind == "phase":
            seen.append(("phase", (yield from comm.set_phase(op[1]))))
        seen.append(("now", (yield from comm.now())))
    return seen


@st.composite
def scenarios(draw):
    nranks = draw(st.integers(2, 9))
    rank = st.integers(0, nranks - 1)
    tag = st.sampled_from([0, 1])
    # Point-to-point messages, the sender itself a possible destination;
    # sizes 0/100/400 B make later sends overtake earlier ones.  Each
    # rank posts its sends and receives in message order, so only the
    # stray receives and polls below (which may steal messages) can
    # deadlock a run.
    messages = draw(
        st.lists(
            st.tuples(
                rank, rank, tag, st.sampled_from([0, 100, 400]),
                st.booleans(), st.booleans(),
            ),
            min_size=nranks, max_size=4 * nranks,
        )
    )
    ops = [[] for _ in range(nranks)]
    for src, dst, t, nbytes, any_src, any_tag in messages:
        ops[src].append(("send", dst, t, nbytes))
        ops[dst].append(
            ("recv", ANY_SOURCE if any_src else src, ANY_TAG if any_tag else t)
        )
    src = st.one_of(st.just(ANY_SOURCE), rank)
    rtag = st.sampled_from([0, 1, ANY_TAG])
    # Filler: tied and zero compute, polls and phase switches.
    filler = st.one_of(
        st.tuples(st.just("compute"), st.sampled_from([0.0, 1e-4, 2e-4])),
        st.tuples(st.sampled_from(["tryrecv", "drain", "iprobe"]), src, rtag),
        st.tuples(st.just("phase"), st.sampled_from(["a", "b"])),
    )
    stray = st.tuples(st.just("recv"), src, rtag)
    programs = []
    for prog in ops:
        for op in draw(st.lists(filler, max_size=8)):
            prog.insert(draw(st.integers(0, len(prog))), op)
        if draw(st.integers(0, 7)) == 0:
            prog.insert(draw(st.integers(0, len(prog))), draw(stray))
        programs.append(prog)
    fault = st.one_of(
        st.builds(
            FaultSpec, rank=rank,
            time=st.sampled_from([0.0, 1e-4, 3e-4, 1e-3]),
        ),
        st.builds(
            FaultSpec, rank=rank,
            phase_index=st.integers(0, 2),
        ),
    )
    faults = draw(st.lists(fault, max_size=2)) if draw(st.booleans()) else []
    return programs, faults


def run_once(programs, faults):
    """Run the scenario; everything observable about the run."""
    n = len(programs)
    tracer = SpanTracer()
    metrics = [RankMetrics(r) for r in range(n)]
    sim = Simulator(
        make_machine(n), tracer=tracer,
        fault_plan=FaultPlan(faults) if faults else None,
        initial_metrics=metrics,
    )
    for ops in programs:
        sim.spawn(program, ops)
    try:
        res = sim.run(raise_on_failure=False)
        outcome = ("ok", res.returns, res.failed_ranks, res.elapsed)
    except (DeadlockError, RankFailure) as exc:
        outcome = (type(exc).__name__, str(exc))
    return {
        "outcome": outcome,
        "ops": tracer.ops,
        "sends": tracer.sends,
        "recvs": tracer.recvs,
        "phase_marks": tracer.phase_marks,
        "marks": tracer.marks,
        "metrics": metrics,
        "dropped": sim.dropped_messages,
    }


class TestPickerDifferential:
    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(scenario=scenarios())
    def test_heap_matches_scan(self, scenario, monkeypatch):
        programs, faults = scenario
        heap = run_once(programs, faults)
        with monkeypatch.context() as m:
            m.setattr(Simulator, "_pick", lambda self: scan_pick(self._states))
            scan = run_once(programs, faults)
        assert heap == scan

    def test_oracle_is_swapped_in(self, monkeypatch):
        """The monkeypatched scan really drives the run."""
        calls = []

        def counting(self):
            calls.append(1)
            return scan_pick(self._states)

        monkeypatch.setattr(Simulator, "_pick", counting)
        run_once([[("send", 1, 0, 100)], [("recv", 0, 0)]], [])
        assert calls


def test_mailbox_peeks_linear_in_messages(monkeypatch):
    """Peeks stay O(messages + ranks), not O(events x blocked ranks).

    256 ranks pass a ring message and then all report to rank 0 on
    ``ANY_SOURCE``; a full scan would peek every blocked rank's mailbox
    at every event.
    """
    n = 256
    peeks = 0
    orig = Mailbox.peek_matching

    def counting(self, *args, **kwargs):
        nonlocal peeks
        peeks += 1
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(Mailbox, "peek_matching", counting)

    def ring(comm):
        right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
        yield from comm.elapse(1e-4 * (comm.rank % 7))
        yield from comm.send(right, 0, comm.rank, 100)
        got, _ = yield from comm.recv(left, 0)
        if comm.rank == 0:
            total = got
            for _ in range(comm.size - 1):
                payload, _ = yield from comm.recv(ANY_SOURCE, 1)
                total += payload
            return total
        yield from comm.send(0, 1, got, 100)
        return got

    sim = Simulator(make_machine(n))
    sim.spawn_all(ring)
    res = sim.run()
    messages = sum(rm.messages_sent for rm in res.metrics.ranks)
    assert messages == 2 * n - 1
    assert res.returns[0] == sum(range(n))
    assert peeks <= 2 * (messages + n), peeks

