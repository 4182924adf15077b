"""``--backend cluster``: rank programs on a pool of node daemons.

The third execution engine in the registry.  Rank programs — the very
same generators ``sim`` interprets against virtual time and ``mp``
runs as forked processes — execute inside worker processes hosted by
per-host ``repro node`` daemons; the head (this process) ships the
programs over TCP, routes inter-node messages, and collects results.

Physics is byte-identical to ``sim`` and ``mp`` by construction: the
workers run the mp backend's primitive interpreter with the same
Mailbox, the same sender sequence numbers and the same canonical
``(src, seq)`` drain order, so every receive resolves to the same
message regardless of arrival jitter.  Only the *clock* differs (host
wall time, like mp), which is why results carry ``measured=True``.

What cluster adds over mp is ``elastic=True``: losing a node mid-run
raises the same typed :class:`RankFailure` the simulator's fault plans
produce, and the pool keeps serving chunks on the survivors — which is
exactly the contract ``repro.resilience`` needs to checkpoint-restore
and shrink-repartition the run to completion (see ``docs/cluster.md``).
"""

from __future__ import annotations

import itertools
import os
from typing import Any, Sequence

from repro.backend.api import (
    BackendResult,
    BackendUnavailable,
    ExecutionBackend,
    RankProgram,
    check_run_args,
)
from repro.backend.mp import mp_available, result_from_workers
from repro.cluster.head import ClusterSupervisor
from repro.cluster.placement import Placement
from repro.cluster.shipping import blobs_sha, ship_program
from repro.machine.metrics import RankMetrics

__all__ = ["ClusterBackend", "cluster_available"]

_run_counter = itertools.count()


def cluster_available() -> str | None:
    """``None`` when the cluster backend can run here, else the reason.

    Node daemons fork their rank workers, so the same host requirement
    as mp applies on every node; the head additionally needs working
    loopback TCP, which any host with sockets has.
    """
    return mp_available()


class ClusterBackend(ExecutionBackend):
    """Execute ranks across node daemons connected over TCP.

    Parameters
    ----------
    nnodes:
        Node-daemon pool size (default 2).  With ``spawn=True`` the
        pool is spawned on localhost at first use — the two-node
        localhost topology the docs and CI smoke job use.
    spawn:
        ``False`` means "operator brings the nodes": the supervisor
        only listens on ``host:port`` and waits for ``repro node
        --connect`` daemons to dial in.
    shm_threshold / timeout / poll_interval / sleep_cap:
        Same worker-level knobs as the mp backend, applied on every
        node.
    hb_interval / hb_timeout:
        Heartbeat cadence and the silence span after which a node is
        declared dead (driving elastic :class:`RankFailure`).

    Like mp, requesting the sanitizer or a fault plan raises
    ``ValueError`` — both need deterministic virtual time.  *Real*
    faults (kill a node daemon) need no plan at all.
    """

    name = "cluster"
    shared_state = False
    measured = True
    elastic = True

    def __init__(
        self,
        nnodes: int = 2,
        *,
        spawn: bool = True,
        host: str = "127.0.0.1",
        port: int = 0,
        shm_threshold: int = 32 * 1024,
        timeout: float | None = 120.0,
        poll_interval: float = 0.02,
        sleep_cap: float = 0.005,
        hb_interval: float = 0.5,
        hb_timeout: float = 5.0,
        connect_timeout: float = 20.0,
    ) -> None:
        reason = cluster_available()
        if reason is not None:
            raise BackendUnavailable(
                f"backend 'cluster' unavailable: {reason}"
            )
        self.nnodes = int(nnodes)
        self.spawn = bool(spawn)
        self.host = host
        self.port = int(port)
        self.shm_threshold = int(shm_threshold)
        self.timeout = timeout
        self.poll_interval = float(poll_interval)
        self.sleep_cap = float(sleep_cap)
        self.hb_interval = float(hb_interval)
        self.hb_timeout = float(hb_timeout)
        self.connect_timeout = float(connect_timeout)
        self._sup: ClusterSupervisor | None = None

    # ------------------------------------------------------------- pool

    @property
    def supervisor(self) -> ClusterSupervisor:
        """The node pool, started lazily on first use."""
        if self._sup is None:
            self._sup = ClusterSupervisor(
                self.nnodes,
                spawn=self.spawn,
                host=self.host,
                port=self.port,
                hb_interval=self.hb_interval,
                hb_timeout=self.hb_timeout,
                connect_timeout=self.connect_timeout,
            )
            self._sup.start()
        return self._sup

    def attach(self, supervisor: ClusterSupervisor) -> None:
        """Adopt an externally managed node pool (operator flow).

        The supervisor is started if it is not already (blocking until
        its ``nnodes`` daemons have dialed in); the backend then owns
        it — :meth:`close` shuts it down.  Lets a caller bind the
        listening port first, point ``repro node --connect HOST:PORT``
        daemons at :attr:`ClusterSupervisor.addr`, and only then hand
        the pool to the engine (see ``docs/cluster.md``).
        """
        if self._sup is not None:
            raise RuntimeError(
                "cluster backend already has a node pool; close() it "
                "before attaching another"
            )
        supervisor.start()
        self._sup = supervisor

    def close(self) -> None:
        if self._sup is not None:
            self._sup.close()
            self._sup = None

    # -------------------------------------------------------------- run

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
        tracer = check_run_args(
            machine,
            programs,
            measured=self.measured,
            tracer=tracer,
            sanitizer=sanitizer,
            fault_plan=fault_plan,
            initial_clocks=initial_clocks,
            initial_metrics=initial_metrics,
        )
        n = len(programs)
        sup = self.supervisor
        alive = sup.alive_ids()
        if not alive:
            raise BackendUnavailable(
                "backend 'cluster' unavailable: every node daemon is dead"
            )
        placement = Placement.contiguous(n, alive)

        # SPMD runs ship each distinct program object once.
        blob_index: dict[int, int] = {}
        blobs: list[bytes] = []
        program_of_rank: list[int] = []
        for prog in programs:
            idx = blob_index.get(id(prog))
            if idx is None:
                idx = len(blobs)
                blob_index[id(prog)] = idx
                blobs.append(ship_program(prog))
            program_of_rank.append(idx)
        config_sha = blobs_sha(blobs)

        runid = f"repro_cl_{os.getpid()}_{next(_run_counter)}"
        clocks = (
            [float(c) for c in initial_clocks]
            if initial_clocks is not None
            else [0.0] * n
        )
        metrics_in = (
            list(initial_metrics)
            if initial_metrics is not None
            else [RankMetrics(r) for r in range(n)]
        )
        done, errors, failed = sup.run_chunk(
            runid=runid,
            machine=machine,
            nranks=n,
            placement=placement,
            program_blobs=blobs,
            program_of_rank=program_of_rank,
            config_sha=config_sha,
            options={
                "shm_threshold": self.shm_threshold,
                "poll_interval": self.poll_interval,
                "sleep_cap": self.sleep_cap,
            },
            clocks=clocks,
            metrics=metrics_in,
            trace=tracer is not None,
            timeout=self.timeout,
        )
        return result_from_workers(self.name, n, done, errors, failed, tracer)
