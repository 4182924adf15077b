"""CommProtocol conformance: one battery, every execution engine.

The three engines (``sim``, ``mp``, ``cluster``) promise the *same*
communication semantics — per-source FIFO ordering, wildcard receive,
rank-ordered collectives, the reserved-tag guard — differing only in
how time is measured.  This module states that contract once and runs
it against each engine through a parametrized module-scoped fixture, so
a new engine earns conformance by appearing in one params list.

Engines that fork processes are quarantined behind their markers
(``mp`` for both process-backed engines, ``cluster`` additionally for
the TCP one) and skip cleanly on hosts that cannot run them.

The same holds for the run contract around the programs: invalid run
arguments are refused with identical text on every engine, and a run
that fails with messages still in flight leaves no shared-memory
segment behind.

Deliberately absent: barrier-then-drain assertions.  ``barrier()``
orders the token exchange it is built from, not independently routed
data frames, so "message visible after barrier" is not part of the
contract on the process-backed engines.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.backend import get_backend
from repro.backend.mp import mp_available
from repro.cluster import cluster_available
from repro.machine import RankMetrics, sp2
from repro.machine.simmpi import MAX_USER_TAG

NRANKS = 4
TAG = 5


def _make_engine(name):
    if name == "sim":
        return get_backend("sim")
    why = mp_available() if name == "mp" else cluster_available()
    if why is not None:
        pytest.skip(str(why))
    if name == "mp":
        return get_backend("mp")
    return get_backend("cluster", nnodes=2)


@pytest.fixture(
    scope="module",
    params=[
        pytest.param("sim"),
        pytest.param("mp", marks=pytest.mark.mp),
        pytest.param(
            "cluster", marks=[pytest.mark.mp, pytest.mark.cluster]
        ),
    ],
)
def engine(request):
    eng = _make_engine(request.param)
    yield eng
    eng.close()


def _run(engine, program):
    result = engine.run_spmd(sp2(nodes=NRANKS), program)
    assert result.backend == engine.name
    assert result.failed_ranks == ()
    return result.returns


# ---------------------------------------------------------------- programs
# Module-level so every engine ships/pickles them the same way.


def prog_ring(comm):
    dst = (comm.rank + 1) % comm.size
    src = (comm.rank - 1) % comm.size
    yield from comm.send(dst, TAG, ("tok", comm.rank), nbytes=64)
    payload, status = yield from comm.recv(src, TAG)
    return (payload[1], status.source, status.tag)


def prog_fifo(comm):
    if comm.rank == 0:
        for i in range(8):
            yield from comm.send(1, TAG, i, nbytes=8)
    elif comm.rank == 1:
        seen = []
        for _ in range(8):
            val, _ = yield from comm.recv(0, TAG)
            seen.append(val)
        return seen
    return None


def prog_tag_selectivity(comm):
    """Receiving a specific tag must not consume other-tag traffic."""
    if comm.rank == 0:
        yield from comm.send(1, TAG, "low", nbytes=8)
        yield from comm.send(1, TAG + 1, "high", nbytes=8)
    elif comm.rank == 1:
        hi, _ = yield from comm.recv(0, TAG + 1)
        lo, _ = yield from comm.recv(0, TAG)
        return (hi, lo)
    return None


def prog_wildcard(comm):
    if comm.rank == 0:
        got = []
        for _ in range(comm.size - 1):
            val, status = yield from comm.recv()
            got.append((status.source, status.tag, val))
        return sorted(got)
    yield from comm.send(0, TAG + comm.rank, comm.rank * 10, nbytes=8)
    return None


def prog_collectives(comm):
    r, n = comm.rank, comm.size
    total = yield from comm.allreduce(r + 1)
    word = yield from comm.bcast("tok" if r == 0 else None, root=0)
    rows = yield from comm.gather(r * r, root=0)
    # Back-to-back collectives on the same reserved tag (gather, then
    # allgather's internal gather) need an issuance fence: without it
    # the root's wildcard drain can take one rank's second contribution
    # in place of a slower rank's first.  Identical on all engines.
    yield from comm.barrier()
    everyone = yield from comm.allgather(r)
    spread = yield from comm.alltoall([r * 100 + d for d in range(n)])
    partner = n - 1 - r
    swapped, _ = yield from comm.sendrecv(partner, partner, TAG, r)
    yield from comm.barrier()
    return (total, word, rows, everyone, spread, swapped)


def prog_split(comm):
    members = [r for r in range(comm.size) if r % 2 == comm.rank % 2]
    sub = comm.split(members)
    subtotal = yield from sub.allreduce(comm.rank)
    return (sub.rank, sub.size, subtotal)


def prog_iprobe(comm):
    dst = (comm.rank + 1) % comm.size
    src = (comm.rank - 1) % comm.size
    yield from comm.send(dst, TAG, comm.rank, nbytes=8)
    while True:
        flag = yield from comm.iprobe(src, TAG)
        if flag:
            break
        yield from comm.elapse(1e-4)
    val, status = yield from comm.recv(src, TAG)
    return (val, status.source)


def prog_reserved_send(comm):
    yield from comm.send(
        (comm.rank + 1) % comm.size, MAX_USER_TAG, None, nbytes=8
    )


def prog_reserved_recv(comm):
    yield from comm.recv(0, MAX_USER_TAG + 7)


def prog_abandoned_big_sends(comm):
    """Rank 0 sends arrays far above the default 32 KiB shared-memory
    threshold to rank 1 (same node on cluster) and to the last rank
    (another node on cluster); neither ever receives.  Rank 1 raises
    at once; rank 0's sends never look at the control pipe, so its
    segments exist before the run is torn down."""
    if comm.rank == 0:
        big = np.arange(16_384, dtype=np.float64)
        yield from comm.send(1, TAG, big, nbytes=big.nbytes)
        yield from comm.send(comm.size - 1, TAG, big, nbytes=big.nbytes)
    elif comm.rank == 1:
        raise ValueError("rank 1 quits before receiving")
    return comm.rank


# ------------------------------------------------------------------- tests


def test_ring_send_recv(engine):
    expected = [
        ((r - 1) % NRANKS, (r - 1) % NRANKS, TAG) for r in range(NRANKS)
    ]
    assert _run(engine, prog_ring) == expected


def test_per_source_fifo_ordering(engine):
    returns = _run(engine, prog_fifo)
    assert returns[1] == list(range(8))


def test_tag_selective_receive(engine):
    returns = _run(engine, prog_tag_selectivity)
    assert returns[1] == ("high", "low")


def test_wildcard_receive_sees_every_sender(engine):
    returns = _run(engine, prog_wildcard)
    assert returns[0] == [
        (r, TAG + r, r * 10) for r in range(1, NRANKS)
    ]


def test_collectives(engine):
    returns = _run(engine, prog_collectives)
    n = NRANKS
    for r in range(n):
        total, word, rows, everyone, spread, swapped = returns[r]
        assert total == n * (n + 1) // 2
        assert word == "tok"
        assert rows == ([k * k for k in range(n)] if r == 0 else None)
        assert everyone == list(range(n))
        assert spread == [s * 100 + r for s in range(n)]
        assert swapped == n - 1 - r


def test_split_subcommunicators(engine):
    returns = _run(engine, prog_split)
    for r in range(NRANKS):
        sub_rank, sub_size, subtotal = returns[r]
        group = [k for k in range(NRANKS) if k % 2 == r % 2]
        assert sub_rank == group.index(r)
        assert sub_size == len(group)
        assert subtotal == sum(group)


def test_iprobe_then_recv(engine):
    returns = _run(engine, prog_iprobe)
    assert returns == [((r - 1) % NRANKS, (r - 1) % NRANKS) for r in range(NRANKS)]


def test_reserved_tag_send_rejected(engine):
    with pytest.raises(ValueError, match="reserved"):
        engine.run_spmd(sp2(nodes=NRANKS), prog_reserved_send)


def test_reserved_tag_recv_rejected(engine):
    with pytest.raises(ValueError, match="reserved"):
        engine.run_spmd(sp2(nodes=NRANKS), prog_reserved_recv)


@pytest.mark.parametrize(
    "nodes, nranks, kwargs, text",
    [
        (2, 3, {}, "machine has 2 nodes; cannot run 3 ranks"),
        (
            NRANKS, NRANKS, {"initial_clocks": [0.0] * (NRANKS - 1)},
            f"initial_clocks has {NRANKS - 1} entries for {NRANKS} ranks",
        ),
        (
            NRANKS, NRANKS,
            {"initial_metrics": [RankMetrics(r) for r in range(NRANKS + 1)]},
            f"initial_metrics has {NRANKS + 1} entries for {NRANKS} ranks",
        ),
        (NRANKS, 0, {}, "no rank programs given"),
    ],
    ids=["too-many-ranks", "initial-clocks", "initial-metrics", "no-programs"],
)
def test_invalid_run_arguments_rejected(engine, nodes, nranks, kwargs, text):
    with pytest.raises(ValueError) as info:
        engine.run(sp2(nodes=nodes), [prog_ring] * nranks, **kwargs)
    assert str(info.value) == text


def test_measured_engines_reject_sanitizer_and_fault_plan(engine):
    if not engine.measured:
        pytest.skip("the simulator runs both")
    from repro.analysis import Sanitizer
    from repro.machine.faults import FaultPlan, FaultSpec

    with pytest.raises(ValueError, match="sanitizer"):
        engine.run_spmd(sp2(nodes=NRANKS), prog_ring, sanitizer=Sanitizer())
    plan = FaultPlan([FaultSpec(rank=0, time=1.0)])
    with pytest.raises(ValueError, match="[Ff]ault"):
        engine.run_spmd(sp2(nodes=NRANKS), prog_ring, fault_plan=plan)


def test_failed_run_leaves_no_shared_memory(engine):
    with pytest.raises(ValueError, match="rank 1 quits before receiving"):
        engine.run_spmd(sp2(nodes=NRANKS), prog_abandoned_big_sends)
    # Run ids are repro_<engine>_<head pid>_<n>; this process is the head.
    assert glob.glob(f"/dev/shm/repro_*_{os.getpid()}_*") == []
