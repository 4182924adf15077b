"""``repro node`` — the per-host daemon of the cluster backend.

One daemon runs on every participating host.  It dials the head,
handshakes (protocol version + CPython version — shipped programs are
marshalled byte-code, so the interpreter feature version must match),
then serves *chunks*: for each ``launch`` it forks one worker process
per local rank, pumps messages for the duration, and tears the workers
down when the head says the chunk is over.

Data plane
----------
Workers run the very same primitive interpreter as the mp backend
(:class:`repro.backend.mp._Engine`), subclassed only in how a frame
leaves the host:

* **local destination** — the frame goes straight down the peer's
  inbox pipe, shared-memory fast path included, exactly as mp;
* **remote destination** — the frame rides the worker's *uplink* pipe
  to the daemon, which wraps it in a data frame and sends it to the
  head; the head routes it to the destination's daemon, which deposits
  it into the destination worker's inbox.  Frames larger than the
  shm threshold are re-staged through a local shared-memory segment on
  arrival so inbox pipe writes stay small (the same no-wedge argument
  the mp backend makes for its pipes).

Mailbox semantics, sender sequence numbers and the canonical
``(src, seq)`` drain order are untouched — physics stays byte-identical
to ``sim`` and ``mp`` by the same argument the mp backend documents.

Control plane
-------------
Heartbeats flow daemon -> head on the reserved control channel at the
interval the ``welcome`` frame sets; worker results (``rank_done``),
program errors (``rank_error``) and silent worker deaths
(``rank_crash``) are forwarded as they happen.  A daemon that loses
its head aborts its workers and exits — orphaned rank workers see
their control pipe close and kill themselves.
"""

from __future__ import annotations

import os
import pickle
import select
import socket
import sys
import time
from multiprocessing import connection, get_context, shared_memory
from typing import Any

from repro.backend.mp import (
    CTRL_TAG,
    _Engine,
    _FRAME_INLINE,
    _FRAME_SHM_PICKLE,
    _untrack_shm,
    _worker_main,
    stop_workers,
)
from repro.cluster import shipping
from repro.cluster.protocol import (
    CLUSTER_PROTOCOL_VERSION,
    ClusterProtocolError,
    recv_message,
    send_control,
    send_data,
    send_payload,
)

__all__ = ["NodeDaemon"]

#: Daemon-side deposits are restaged through shared memory above this
#: size so every inbox pipe write stays under POSIX ``PIPE_BUF`` (4096
#: on Linux): ``select`` reporting a pipe writable then *guarantees*
#: the write cannot block, which is what makes the daemon's routing
#: loop deadlock-free (a blocking deposit into a stalled worker would
#: otherwise stop heartbeats and frame routing for the whole node).
_PIPE_SAFE = 3072


class _HeadLost(Exception):
    """The head connection died (EOF or socket error)."""


def _arm_deathwatch() -> None:
    """Tie a rank worker's life to its daemon (Linux ``PDEATHSIG``).

    Workers fork after every local pipe *and* the head socket exist, so
    each inherits the others' pipe ends and the daemon's TCP fd — a
    SIGKILLed daemon would leave workers holding the socket open (the
    head never sees EOF) and each other's control pipes open (nobody
    sees EOF there either).  ``PR_SET_PDEATHSIG`` cuts the knot: the
    kernel kills every worker the moment the daemon dies, which closes
    the socket and turns a killed node into a prompt EOF at the head.
    """
    try:
        import ctypes
        import signal

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGKILL, 0, 0, 0)  # PR_SET_PDEATHSIG
        if os.getppid() == 1:  # daemon died before the watch was armed
            os._exit(4)
    except Exception:  # pragma: no cover - non-Linux fallback: the
        pass           # head's heartbeat timeout still catches the loss


class _RemoteEngine(_Engine):
    """mp's measured-time interpreter with an off-host uplink.

    ``writers[dst] is None`` marks a remote destination: those frames
    are handed to the daemon over the uplink pipe instead of a local
    inbox, and shared-memory staging is disabled for them (segments
    do not cross hosts — the raw bytes travel inline and the receiving
    daemon re-stages oversized ones locally).
    """

    def __init__(self, *args: Any, uplink: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.uplink = uplink

    def _shm_ok(self, dst: int) -> bool:
        return self.writers[dst] is not None

    def _transmit(self, dst: int, frame: bytes) -> None:
        if self.writers[dst] is not None:
            super()._transmit(dst, frame)
            return
        self._pump(0.0)
        self.uplink.send((dst, frame))


class NodeDaemon:
    """One cluster node: connects to a head and hosts rank workers."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        name: str | None = None,
        connect_timeout: float = 30.0,
    ) -> None:
        self.head_addr = (host, port)
        self.name = name or socket.gethostname()
        self.connect_timeout = connect_timeout
        self.node_id = -1
        self.hb_interval = 1.0
        self._sock: socket.socket | None = None
        self._next_hb = 0.0
        self._restage_count = 0

    # ----------------------------------------------------------- logging

    def _log(self, msg: str) -> None:
        print(f"[repro node {self.name}] {msg}", file=sys.stderr, flush=True)

    # ------------------------------------------------------------ daemon

    def run(self) -> int:
        """Connect, handshake, serve chunks until shutdown.  Returns the
        process exit code (0 = clean shutdown from the head)."""
        try:
            self._sock = socket.create_connection(
                self.head_addr, timeout=self.connect_timeout
            )
        except OSError as exc:
            self._log(f"cannot reach head at {self.head_addr}: {exc}")
            return 1
        sock = self._sock
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            send_control(sock, {
                "op": "hello",
                "protocol": CLUSTER_PROTOCOL_VERSION,
                "python": list(sys.version_info[:3]),
                "host": socket.gethostname(),
                "pid": os.getpid(),
                "name": self.name,
            })
            msg = recv_message(sock)
            if msg is None or msg[0] != "control":
                self._log("head closed the connection during handshake")
                return 1
            welcome = msg[1]
            if not welcome.get("ok", True):
                err = welcome.get("error", {})
                self._log(f"head refused handshake: {err.get('message', err)}")
                return 1
            self.node_id = int(welcome["node_id"])
            self.hb_interval = float(welcome.get("hb_interval", 1.0))
            self._next_hb = time.monotonic()
            self._log(
                f"joined head {self.head_addr[0]}:{self.head_addr[1]} "
                f"as node {self.node_id}"
            )
            return self._serve()
        except _HeadLost:
            self._log("head connection lost; exiting")
            return 1
        except ClusterProtocolError as exc:
            self._log(f"protocol error: {exc}")
            return 1
        finally:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass

    def _serve(self) -> int:
        sock = self._sock
        assert sock is not None
        while True:
            self._heartbeat()
            ready = connection.wait([sock], timeout=self._hb_slice())
            if not ready:
                continue
            msg = recv_message(sock)
            if msg is None:
                raise _HeadLost()
            kind, body = msg
            op = body.get("op")
            if kind == "control" and op == "shutdown":
                self._log("shutdown requested; exiting")
                return 0
            if kind == "payload" and op == "launch":
                self._chunk(body)
            # Anything else while idle (stray data from a chunk that
            # was just torn down, late aborts) is dropped.

    def _hb_slice(self) -> float:
        return min(0.2, max(0.0, self._next_hb - time.monotonic()))

    def _heartbeat(self) -> None:
        now = time.monotonic()
        if now < self._next_hb:
            return
        self._next_hb = now + self.hb_interval
        try:
            send_control(self._sock, {"op": "hb"})
        except OSError as exc:
            raise _HeadLost() from exc

    # ------------------------------------------------------------- chunk

    def _chunk(self, launch: dict[str, Any]) -> None:
        """Run one chunk: fork local workers, pump until torn down."""
        sock = self._sock
        assert sock is not None
        runid = launch["runid"]
        n = int(launch["nranks"])
        placement = list(launch["placement"])
        blobs = launch["programs"]
        index = launch["program_of_rank"]
        opts = launch["options"]
        declared = launch["config_sha"]
        got = shipping.blobs_sha(blobs)
        if got != declared:
            send_control(sock, {
                "op": "launch_failed", "runid": runid,
                "error": f"program sha mismatch: head declared "
                         f"{declared[:12]}, received {got[:12]}",
            })
            return
        try:
            programs = [shipping.load_program(b) for b in blobs]
        except Exception as exc:
            send_control(sock, {
                "op": "launch_failed", "runid": runid,
                "error": f"{type(exc).__name__}: {exc}",
            })
            return

        local = [r for r in range(n) if placement[r] == self.node_id]
        machine = launch["machine"]
        clocks = launch["clocks"]
        metrics = launch["metrics"]
        trace = bool(launch["trace"])
        shm_threshold = int(opts["shm_threshold"])

        ctx = get_context("fork")
        writers: list[Any] = [None] * n
        locks: list[Any] = [None] * n
        readers: dict[int, Any] = {}
        for r in local:
            rd, wr = ctx.Pipe(duplex=False)
            readers[r] = rd
            writers[r] = wr
            locks[r] = ctx.Lock()
        ctrls: dict[int, Any] = {}
        ctrl_childs: dict[int, Any] = {}
        uplinks: dict[int, Any] = {}
        uplink_ws: dict[int, Any] = {}
        for r in local:
            a, b = ctx.Pipe(duplex=True)
            ctrls[r], ctrl_childs[r] = a, b
            ur, uw = ctx.Pipe(duplex=False)
            uplinks[r], uplink_ws[r] = ur, uw

        procs: dict[int, Any] = {}
        for r in local:
            uplink = uplink_ws[r]

            def factory(*a: Any, _uplink: Any = uplink, **kw: Any) -> _RemoteEngine:
                _arm_deathwatch()
                return _RemoteEngine(*a, uplink=_uplink, **kw)

            p = ctx.Process(
                target=_worker_main,
                args=(
                    r, n, machine, programs[index[r]],
                    readers[r], writers, locks, ctrl_childs[r],
                ),
                kwargs=dict(
                    runid=runid,
                    shm_threshold=shm_threshold,
                    poll_interval=float(opts["poll_interval"]),
                    sleep_cap=float(opts["sleep_cap"]),
                    start_clock=float(clocks[r]),
                    metrics=metrics[r],
                    trace=trace,
                    engine_factory=factory,
                ),
                daemon=True,
                name=f"repro-cluster-{r}",
            )
            p.start()
            procs[r] = p
        # Parent keeps the inbox *writers* (it deposits inbound frames)
        # but not the worker-held ends.
        for r in local:
            readers[r].close()
            ctrl_childs[r].close()
            uplink_ws[r].close()

        send_control(sock, {"op": "ready", "runid": runid,
                            "config_sha": declared, "ranks": local})
        verb = "abort"  # also when the head is lost mid-chunk
        try:
            verb = self._pump_chunk(
                runid, local, writers, locks, ctrls, uplinks, procs,
            )
        finally:
            stop_workers(
                [procs[r] for r in local], [ctrls[r] for r in local],
                runid, verb,
            )
            for r in local:
                for conn in (writers[r], uplinks[r]):
                    try:
                        conn.close()
                    except OSError:  # pragma: no cover
                        pass
        send_control(sock, {
            "op": "chunk_done" if verb == "exit" else "chunk_aborted",
            "runid": runid,
        })

    def _pump_chunk(
        self,
        runid: str,
        local: list[int],
        writers: list[Any],
        locks: list[Any],
        ctrls: dict[int, Any],
        uplinks: dict[int, Any],
        procs: dict[int, Any],
    ) -> str:
        """Route frames and supervise local workers until the head ends
        the chunk or dies; returns the verb to stop the workers with
        (``"exit"`` for ``exit_chunk``, ``"abort"`` for ``abort``)."""
        sock = self._sock
        assert sock is not None
        pending = set(local)         # ranks with no done/error/crash yet
        open_uplinks = dict(uplinks)
        sentinels = {procs[r].sentinel: r for r in local}
        backlog: dict[int, list[bytes]] = {r: [] for r in local}

        def deposit(dst: int, frame: bytes) -> None:
            """Queue a frame for a local inbox; never blocks.

            Oversized frames are restaged through local shared memory
            first so each pipe write fits in one atomic ``PIPE_BUF``
            chunk, then :func:`flush` only writes while ``select``
            says the pipe can take it.
            """
            if writers[dst] is None:
                return  # stale frame for a rank we no longer host
            if len(frame) >= _PIPE_SAFE:
                frame = self._restage(runid, frame)
            backlog[dst].append(frame)
            flush(dst)

        def flush(dst: int) -> None:
            q = backlog[dst]
            w = writers[dst]
            while q:
                _, writable, _ = select.select([], [w], [], 0)
                if not writable:
                    return
                with locks[dst]:
                    w.send_bytes(q.pop(0))

        while True:
            self._heartbeat()
            for r in local:
                if backlog[r]:
                    flush(r)
            waitees: list[Any] = [sock]
            waitees += list(open_uplinks.values())
            waitees += [ctrls[r] for r in pending]
            waitees += [procs[r].sentinel for r in pending]
            backed_up = any(backlog[r] for r in local)
            timeout = 0.002 if backed_up else self._hb_slice()
            ready = connection.wait(waitees, timeout=timeout)
            ready_ids = {id(o) for o in ready}

            # -- frames from the head (drained greedily) ----------------
            if id(sock) in ready_ids or sock in ready:
                while True:
                    r_, _, _ = select.select([sock], [], [], 0)
                    if not r_:
                        break
                    msg = recv_message(sock)
                    if msg is None:
                        raise _HeadLost()
                    kind, body = msg
                    if kind == "data":
                        dst, frame = body
                        deposit(dst, frame)
                    elif kind == "control":
                        op = body.get("op")
                        if op == "abort":
                            return "abort"
                        if op == "exit_chunk":
                            return "exit"

            # -- frames from local workers ------------------------------
            for r, ur in list(open_uplinks.items()):
                try:
                    while ur.poll(0):
                        dst, frame = ur.recv()
                        if writers[dst] is not None:
                            deposit(dst, frame)
                        else:
                            send_data(sock, dst, frame)
                except (EOFError, OSError):
                    del open_uplinks[r]

            # -- worker control frames ----------------------------------
            for r in list(pending):
                ctrl = ctrls[r]
                try:
                    while r in pending and ctrl.poll(0):
                        frame = ctrl.recv()
                        if frame[0] != CTRL_TAG:  # pragma: no cover
                            continue
                        if frame[1] == "done":
                            pending.discard(r)
                            send_payload(sock, {
                                "op": "rank_done", "runid": runid,
                                "rank": r, "payload": frame[2],
                            })
                        elif frame[1] == "error":
                            pending.discard(r)
                            send_payload(sock, {
                                "op": "rank_error", "runid": runid,
                                "rank": r, "payload": frame[2],
                            })
                except (EOFError, OSError):
                    if r in pending:
                        pending.discard(r)
                        send_control(sock, {
                            "op": "rank_crash", "runid": runid, "rank": r,
                        })

            # -- silent worker deaths -----------------------------------
            for sentinel, r in list(sentinels.items()):
                if r in pending and sentinel in ready and not procs[r].is_alive():
                    pending.discard(r)
                    send_control(sock, {
                        "op": "rank_crash", "runid": runid, "rank": r,
                    })

    def _restage(self, runid: str, frame: bytes) -> bytes:
        """Move an oversized inline frame body into local shared memory
        so the inbox pipe write stays below the pipe-buffer bound."""
        try:
            src, tag, seq, nbytes, (kind, data) = pickle.loads(frame)
        except Exception:  # pragma: no cover - forward verbatim
            return frame
        if kind != _FRAME_INLINE:
            return frame
        self._restage_count += 1
        name = f"{runid}_fw{self.node_id}_{self._restage_count}"
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, len(data)), name=name
        )
        _untrack_shm(shm.name.lstrip("/"))
        shm.buf[: len(data)] = data
        shm.close()
        return pickle.dumps(
            (src, tag, seq, nbytes, (_FRAME_SHM_PICKLE, (name, len(data)))),
            protocol=pickle.HIGHEST_PROTOCOL,
        )


def main(argv: list[str] | None = None) -> int:  # pragma: no cover - CLI shim
    """Standalone entry (the CLI's ``repro node`` calls NodeDaemon
    directly; this exists for ``python -m repro.cluster.node``)."""
    import argparse

    from repro.cluster.protocol import parse_hostport

    p = argparse.ArgumentParser(prog="repro-node")
    p.add_argument("--connect", required=True, metavar="HOST:PORT")
    p.add_argument("--name", default=None)
    args = p.parse_args(argv)
    host, port = parse_hostport(args.connect)
    try:
        return NodeDaemon(host, port, name=args.name).run()
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
