"""Head-side supervisor: owns the node pool and routes chunk traffic.

The supervisor is the hub of the cluster's star topology.  It listens
on one TCP port, admits node daemons through the ``hello``/``welcome``
handshake (protocol string and CPython feature version must match —
shipped programs are marshalled byte-code), and then serves the
backend one *chunk* at a time: ship programs, route inter-node data
frames by destination rank, collect per-rank results, and tear the
chunk down on success or failure.

Failure detection is two-layered, both surfacing as the same typed
:class:`repro.machine.faults.RankFailure` the mp backend raises (the
two engines share :func:`repro.backend.mp.result_from_workers`):

* a node socket hitting EOF (daemon crashed, host died, SIGKILL) fails
  that node's still-pending ranks immediately;
* a node that stays silent past ``hb_timeout`` — no heartbeat, no
  result, no data — is declared dead even with the socket nominally
  open (half-open TCP after a power loss).

A dead node leaves the pool for good; the next chunk's placement
simply spans the survivors, which is what makes the backend's elastic
shrink-and-continue recovery possible without any rejoin choreography.
"""

from __future__ import annotations

import os
import select
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Any

from repro.cluster.placement import Placement
from repro.cluster.protocol import (
    CLUSTER_PROTOCOL_VERSION,
    ClusterProtocolError,
    HandshakeError,
    recv_message,
    send_control,
    send_data,
    send_payload,
)

__all__ = ["ClusterSupervisor", "NodeHandle"]


@dataclass
class NodeHandle:
    """One admitted node daemon, as the head sees it."""

    node_id: int
    sock: socket.socket
    name: str
    host: str
    pid: int
    proc: subprocess.Popen | None = None
    alive: bool = True
    last_seen: float = field(default_factory=time.monotonic)


class ClusterSupervisor:
    """Launch/admit node daemons and run chunks across them.

    Parameters
    ----------
    nnodes:
        Pool size to wait for before the first chunk may run.
    spawn:
        When true (the default, and what tests/CI use) the supervisor
        spawns ``nnodes`` local daemons itself via
        ``python -m repro.cluster.node``.  When false it only listens:
        operators start ``repro node --connect HOST:PORT`` on each
        host by hand.
    host / port:
        Listen address.  Port 0 picks a free port (read it back from
        :attr:`addr` to point manual nodes at it).
    hb_interval / hb_timeout:
        Heartbeat cadence pushed to nodes in ``welcome``, and the
        silence span after which a node is declared dead.
    """

    def __init__(
        self,
        nnodes: int = 2,
        *,
        spawn: bool = True,
        host: str = "127.0.0.1",
        port: int = 0,
        hb_interval: float = 1.0,
        hb_timeout: float = 10.0,
        connect_timeout: float = 20.0,
    ) -> None:
        if nnodes < 1:
            raise ValueError(f"nnodes must be >= 1, got {nnodes}")
        self.nnodes = int(nnodes)
        self.spawn = bool(spawn)
        self.hb_interval = float(hb_interval)
        self.hb_timeout = float(hb_timeout)
        self.connect_timeout = float(connect_timeout)
        self.nodes: dict[int, NodeHandle] = {}
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(self.nnodes + 2)
        self.addr: tuple[str, int] = self._listener.getsockname()[:2]
        self._started = False
        self._closed = False

    # ------------------------------------------------------------- pool

    def start(self) -> None:
        """Spawn (if configured) and admit the node pool."""
        if self._started:
            return
        if self.spawn:
            for i in range(self.nnodes):
                self._spawn_node(i)
        deadline = time.monotonic() + self.connect_timeout
        while len(self.nodes) < self.nnodes:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.close()
                raise HandshakeError(
                    f"only {len(self.nodes)}/{self.nnodes} node daemons "
                    f"connected within {self.connect_timeout:.0f}s"
                )
            self._listener.settimeout(remaining)
            try:
                sock, _ = self._listener.accept()
            except socket.timeout:
                continue
            self._admit(sock)
        self._started = True

    def _spawn_node(self, i: int) -> None:
        src = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        )))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-c",
                # -c (not -m): runpy would import repro.cluster.node
                # twice, once as a package member and once as __main__.
                "import sys; from repro.cluster.node import main; "
                "sys.exit(main(sys.argv[1:]))",
                "--connect", f"{self.addr[0]}:{self.addr[1]}",
                "--name", f"node{i}",
            ],
            env=env,
            stdin=subprocess.DEVNULL,
        )
        # The handle is attached to the NodeHandle at admit time by pid.
        self._spawned = getattr(self, "_spawned", [])
        self._spawned.append(proc)

    def _admit(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(30.0)
        msg = recv_message(sock)
        if msg is None or msg[0] != "control" or msg[1].get("op") != "hello":
            sock.close()
            raise HandshakeError("node connection did not open with hello")
        hello = msg[1]
        problems: list[str] = []
        if hello.get("protocol") != CLUSTER_PROTOCOL_VERSION:
            problems.append(
                f"protocol {hello.get('protocol')!r} != "
                f"{CLUSTER_PROTOCOL_VERSION!r}"
            )
        their_py = tuple(hello.get("python", ()))[:2]
        our_py = tuple(sys.version_info[:2])
        if their_py != our_py:
            problems.append(
                f"CPython {their_py} != head's {our_py} "
                "(shipped programs are marshalled byte-code)"
            )
        if problems:
            detail = "; ".join(problems)
            try:
                send_control(sock, {
                    "op": "welcome", "ok": False,
                    "error": {"type": "HandshakeError", "message": detail},
                })
            finally:
                sock.close()
            raise HandshakeError(f"node {hello.get('name')!r} rejected: {detail}")
        node_id = len(self.nodes)
        send_control(sock, {
            "op": "welcome", "ok": True,
            "node_id": node_id, "hb_interval": self.hb_interval,
        })
        handle = NodeHandle(
            node_id=node_id,
            sock=sock,
            name=str(hello.get("name", f"node{node_id}")),
            host=str(hello.get("host", "?")),
            pid=int(hello.get("pid", -1)),
        )
        for proc in getattr(self, "_spawned", []):
            if proc.pid == handle.pid:
                handle.proc = proc
        self.nodes[node_id] = handle

    def alive_ids(self) -> list[int]:
        return sorted(nid for nid, h in self.nodes.items() if h.alive)

    def _mark_dead(self, handle: NodeHandle, why: str) -> None:
        if not handle.alive:
            return
        handle.alive = False
        try:
            handle.sock.close()
        except OSError:  # pragma: no cover
            pass
        if handle.proc is not None and handle.proc.poll() is None:
            try:
                handle.proc.terminate()
            except OSError:  # pragma: no cover
                pass
        print(
            f"[repro cluster] node {handle.node_id} ({handle.name}) "
            f"lost: {why}",
            file=sys.stderr, flush=True,
        )

    # ------------------------------------------------------------ chunks

    def run_chunk(
        self,
        *,
        runid: str,
        machine: Any,
        nranks: int,
        placement: Placement,
        program_blobs: list[bytes],
        program_of_rank: list[int],
        config_sha: str,
        options: dict[str, Any],
        clocks: list[float],
        metrics: list[Any],
        trace: bool,
        timeout: float | None,
    ) -> tuple[dict[int, bytes], dict[int, tuple], dict[int, float]]:
        """Run one chunk until it completes or fails; tear it down.

        Returns the ``(done, errors, failed)`` rank outcomes in the
        shape :func:`repro.backend.mp.result_from_workers` turns into a
        result or an exception: ranks lost with a node, crashed or timed
        out are in ``failed``.
        """
        self.start()
        participants = [self.nodes[nid] for nid in placement.node_ids]
        if not all(h.alive for h in participants):
            dead = [h.node_id for h in participants if not h.alive]
            raise ClusterProtocolError(
                f"placement names dead node(s) {dead}"
            )
        launch = {
            "op": "launch",
            "runid": runid,
            "config_sha": config_sha,
            "nranks": nranks,
            "machine": machine,
            "placement": placement.to_wire(),
            "programs": program_blobs,
            "program_of_rank": program_of_rank,
            "options": options,
            "clocks": clocks,
            "metrics": metrics,
            "trace": trace,
        }
        t_start = time.monotonic()
        for h in participants:
            h.last_seen = t_start
            send_payload(h.sock, launch)

        node_of = placement.node_of_rank
        pending = set(range(nranks))
        done: dict[int, bytes] = {}
        errors: dict[int, tuple] = {}
        failed: dict[int, float] = {}

        def elapsed() -> float:
            return time.monotonic() - t_start

        def fail_node(handle: NodeHandle, why: str) -> None:
            self._mark_dead(handle, why)
            t = elapsed()
            for r in sorted(pending):
                if node_of[r] == handle.node_id:
                    failed[r] = t
                    pending.discard(r)

        def handle_msg(handle: NodeHandle, msg: tuple[str, Any]) -> None:
            handle.last_seen = time.monotonic()
            kind, body = msg
            if kind == "data":
                dst, frame = body
                target = self.nodes.get(node_of[dst])
                if target is not None and target.alive:
                    try:
                        send_data(target.sock, dst, frame)
                    except OSError:
                        fail_node(target, "send failed")
                return
            op = body.get("op")
            if op in ("hb", "ready"):
                return
            if op == "rank_done":
                r = int(body["rank"])
                if r in pending:
                    done[r] = body["payload"]
                    pending.discard(r)
            elif op == "rank_error":
                r = int(body["rank"])
                if r in pending:
                    errors[r] = body["payload"]
                    pending.discard(r)
            elif op == "rank_crash":
                r = int(body["rank"])
                if r in pending:
                    failed[r] = elapsed()
                    pending.discard(r)
            elif op == "launch_failed":
                raise ClusterProtocolError(
                    f"node {handle.node_id} refused launch: {body.get('error')}"
                )

        try:
            while pending and not errors and not failed:
                if timeout is not None and elapsed() > timeout:
                    t = elapsed()
                    for r in sorted(pending):
                        failed[r] = t
                    break
                now = time.monotonic()
                for h in participants:
                    if h.alive and now - h.last_seen > self.hb_timeout:
                        fail_node(h, f"no heartbeat for {self.hb_timeout:.0f}s")
                socks = [h.sock for h in participants if h.alive]
                if not socks:
                    break
                ready = connection.wait(socks, timeout=0.1)
                for h in participants:
                    if not h.alive or h.sock not in ready:
                        continue
                    while h.alive:
                        r_, _, _ = select.select([h.sock], [], [], 0)
                        if not r_:
                            break
                        try:
                            msg = recv_message(h.sock)
                        except (OSError, ClusterProtocolError) as exc:
                            fail_node(h, f"recv failed: {exc}")
                            break
                        if msg is None:
                            fail_node(h, "connection closed")
                            break
                        handle_msg(h, msg)
        except BaseException:
            self._abort_chunk(participants, runid)
            raise

        if errors or failed:
            self._abort_chunk(participants, runid)
        else:
            self._finish_chunk(participants, runid)

        return done, errors, failed

    def _abort_chunk(self, participants: list[NodeHandle], runid: str) -> None:
        for h in participants:
            if not h.alive:
                continue
            try:
                send_control(h.sock, {"op": "abort", "runid": runid})
            except OSError:
                self._mark_dead(h, "abort send failed")
        self._await_acks(participants, "chunk_aborted", deadline=3.0)

    def _finish_chunk(self, participants: list[NodeHandle], runid: str) -> None:
        for h in participants:
            if not h.alive:  # pragma: no cover - all alive on success
                continue
            try:
                send_control(h.sock, {"op": "exit_chunk", "runid": runid})
            except OSError:
                self._mark_dead(h, "exit_chunk send failed")
        self._await_acks(participants, "chunk_done", deadline=5.0)

    def _await_acks(
        self, participants: list[NodeHandle], op: str, deadline: float
    ) -> None:
        """Best-effort wait for per-node teardown acknowledgements (late
        data frames in flight are drained and dropped on the floor)."""
        waiting = {h.node_id for h in participants if h.alive}
        limit = time.monotonic() + deadline
        while waiting and time.monotonic() < limit:
            socks = [
                h.sock for h in participants
                if h.alive and h.node_id in waiting
            ]
            if not socks:
                break
            ready = connection.wait(
                socks, timeout=max(0.0, limit - time.monotonic())
            )
            for h in participants:
                if h.node_id not in waiting or not h.alive:
                    continue
                if h.sock not in ready:
                    continue
                try:
                    msg = recv_message(h.sock)
                except (OSError, ClusterProtocolError):
                    self._mark_dead(h, "teardown recv failed")
                    waiting.discard(h.node_id)
                    continue
                if msg is None:
                    self._mark_dead(h, "closed during teardown")
                    waiting.discard(h.node_id)
                    continue
                h.last_seen = time.monotonic()
                if msg[0] == "control" and msg[1].get("op") == op:
                    waiting.discard(h.node_id)

    # ------------------------------------------------------------- close

    def close(self) -> None:
        """Shut the pool down; idempotent."""
        if self._closed:
            return
        self._closed = True
        for h in self.nodes.values():
            if not h.alive:
                continue
            try:
                send_control(h.sock, {"op": "shutdown"})
            except OSError:
                pass
            try:
                h.sock.close()
            except OSError:  # pragma: no cover
                pass
            h.alive = False
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass
        for proc in getattr(self, "_spawned", []):
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    proc.kill()
                    proc.wait()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
