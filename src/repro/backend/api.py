"""Backend-neutral execution API for rank programs.

The repo's rank programs — OVERFLOW-D1 steps, the 2-D ADI solver, the
DCF connectivity exchange — are generator functions ``program(comm)``
that yield primitive operation tuples and drive all communication
through the :class:`repro.machine.simmpi.Comm` surface.  Nothing in a
program says *how* those primitives execute: the conservative
discrete-event scheduler interprets them against modeled virtual time,
but any engine that honours the same primitive contract can run the
very same generators.

This module pins that contract down:

* :class:`CommProtocol` — the rank-facing communicator surface
  (structural; :class:`repro.machine.simmpi.Comm` satisfies it, and so
  does any group communicator derived from it).
* :class:`BackendResult` — what an execution produces, on every engine
  and from a bare :class:`repro.machine.scheduler.Simulator` alike:
  ``elapsed``, ``returns``, ``metrics``, ``failed_ranks`` plus backend
  provenance (``backend``, ``measured``).
* :class:`ExecutionBackend` — the engine interface: take a machine and a
  list of rank programs, run them to completion, return a result.
* :func:`check_run_args` — the one validation every engine's ``run``
  starts with, so a bad argument reads the same on every engine.
* a registry (:func:`register_backend` / :func:`get_backend` /
  :func:`available_backends`) so drivers and the CLI select engines by
  name (``--backend sim``, ``--backend mp``).

Two implementations ship in this package: :mod:`repro.backend.sim`
(the default; wraps the existing scheduler, bit-identical to calling it
directly) and :mod:`repro.backend.mp` (real ``multiprocessing`` ranks
with pickle-over-pipe transport and shared-memory bulk payloads).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Protocol, Sequence, runtime_checkable

from repro.machine.event import ANY_SOURCE, ANY_TAG
from repro.machine.simmpi import MAX_USER_TAG, Request, Status

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "MAX_USER_TAG",
    "Status",
    "Request",
    "CommProtocol",
    "RankProgram",
    "BackendResult",
    "BackendUnavailable",
    "check_run_args",
    "ExecutionBackend",
    "register_backend",
    "get_backend",
    "available_backends",
    "backend_help",
]

#: A rank program: called once per rank with that rank's communicator,
#: returns the generator the engine drives to completion.  The
#: generator's ``return`` value becomes the rank's entry in
#: :attr:`BackendResult.returns`.
RankProgram = Callable[..., Generator]


@runtime_checkable
class CommProtocol(Protocol):
    """The rank-facing communicator surface every backend must provide.

    This is the *contract* between rank programs and execution engines.
    All methods except the attributes are generator functions invoked
    with ``yield from``; see :class:`repro.machine.simmpi.Comm` for the
    reference semantics (tag space, collective algorithms, eager-send
    model).  Backends do not subclass this — they provide objects that
    structurally satisfy it (today both backends reuse ``Comm`` itself
    and differ only in how its primitive yields are interpreted).
    """

    rank: int
    size: int

    # -- time and work -------------------------------------------------
    def compute(
        self,
        flops: float = ...,
        seconds: float = ...,
        points_per_node: float | None = ...,
    ) -> Generator: ...
    def elapse(self, seconds: float) -> Generator: ...
    def now(self) -> Generator: ...
    def set_phase(self, phase: str) -> Generator: ...

    # -- point to point ------------------------------------------------
    def send(
        self, dst: int, tag: int, payload: Any = ..., nbytes: int | None = ...
    ) -> Generator: ...
    def isend(
        self, dst: int, tag: int, payload: Any = ..., nbytes: int | None = ...
    ) -> Generator: ...
    def recv(self, src: int = ..., tag: int = ...) -> Generator: ...
    def irecv(self, src: int = ..., tag: int = ...) -> Generator: ...
    def wait(self, req: Request) -> Generator: ...
    def test(self, req: Request) -> Generator: ...
    def waitall(self, reqs: Any) -> Generator: ...
    def iprobe(self, src: int = ..., tag: int = ...) -> Generator: ...
    def drain_recv(self, src: int = ..., tag: int = ...) -> Generator: ...

    # -- collectives ---------------------------------------------------
    def barrier(self) -> Generator: ...
    def bcast(
        self, payload: Any = ..., root: int = ..., nbytes: int | None = ...
    ) -> Generator: ...
    def gather(
        self, payload: Any, root: int = ..., nbytes: int | None = ...
    ) -> Generator: ...
    def allgather(self, payload: Any, nbytes: int | None = ...) -> Generator: ...
    def reduce(
        self,
        value: Any,
        op: Callable[[Any, Any], Any] = ...,
        root: int = ...,
        nbytes: int | None = ...,
    ) -> Generator: ...
    def allreduce(
        self,
        value: Any,
        op: Callable[[Any, Any], Any] = ...,
        nbytes: int | None = ...,
    ) -> Generator: ...
    def alltoall(self, payloads: list, nbytes: int | None = ...) -> Generator: ...
    def sendrecv(
        self,
        dst: int,
        src: int,
        tag: int,
        payload: Any = ...,
        nbytes: int | None = ...,
    ) -> Generator: ...

    # -- groups --------------------------------------------------------
    def split(self, members: list[int]) -> "CommProtocol": ...


@dataclass
class BackendResult:
    """Outcome of one execution on any engine.

    ``elapsed`` is the latest final rank clock, ``returns`` the rank
    programs' return values by rank, ``metrics`` the per-rank
    :class:`repro.machine.metrics.MachineMetrics`, ``failed_ranks`` the
    ranks a fault plan fail-stopped (only a bare simulator run with
    ``raise_on_failure=False`` returns a non-empty tuple).  Two
    provenance fields sit on top:

    ``backend``
        Registry name of the engine that produced this result.
    ``measured``
        ``False`` for modeled (virtual-time, deterministic) results,
        ``True`` for measured (host wall-clock, nondeterministic) ones.
        Anything downstream that demands bit-identical numbers (golden
        traces, canonical BENCH sections, trace-diff gates) must treat
        ``measured=True`` results as host-section data.
    """

    elapsed: float
    returns: list[Any]
    metrics: Any  # repro.machine.metrics.MachineMetrics
    failed_ranks: tuple[int, ...] = ()
    backend: str = "sim"
    measured: bool = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        unit = "s wall" if self.measured else "s virtual"
        return (
            f"BackendResult(backend={self.backend!r}, "
            f"elapsed={self.elapsed:.6g}{unit}, "
            f"ranks={self.metrics.nranks}, failed={list(self.failed_ranks)})"
        )


class BackendUnavailable(RuntimeError):
    """The requested backend cannot run on this host/configuration."""


class ExecutionBackend(abc.ABC):
    """An engine that runs rank programs over a machine description.

    Subclasses declare three capability attributes:

    ``name``
        Registry name (``"sim"``, ``"mp"``).
    ``shared_state``
        ``True`` when all ranks execute inside one address space (the
        simulator), ``False`` when each rank owns a private copy of the
        Python objects its program closed over (real processes).  Rank
        programs that mutate shared driver state must consult this —
        see ``OverflowD1`` for the pattern (world motion is applied by
        rank 0 only under shared state, by every rank otherwise).
    ``measured``
        Whether results are host wall-clock measurements rather than
        modeled virtual time.
    ``elastic``
        ``True`` when the engine can lose execution resources mid-run
        (a cluster node dying) and *keep running subsequent chunks on
        the survivors*.  Drivers use this to arm checkpoint/recovery
        machinery even without an explicit fault plan — see
        ``OverflowD1``'s implicit step-0 snapshot.
    """

    name: str = "?"
    shared_state: bool = True
    measured: bool = False
    elastic: bool = False

    @abc.abstractmethod
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
        """Run one program per rank to completion.

        ``programs[i]`` runs as rank ``i``; ``len(programs)`` must not
        exceed ``machine.nodes``.  Keyword arguments mirror
        :class:`repro.machine.scheduler.Simulator`.  Implementations
        start with :func:`check_run_args`, which raises
        :class:`ValueError` for a feature the engine cannot honour
        (fault injection on a measured engine) rather than ignoring it.
        """

    def run_spmd(
        self,
        machine: Any,
        program: RankProgram,
        nranks: int | None = None,
        **kwargs: Any,
    ) -> BackendResult:
        """Run the same program on every rank (SPMD convenience)."""
        n = machine.nodes if nranks is None else int(nranks)
        return self.run(machine, [program] * n, **kwargs)

    def close(self) -> None:
        """Release engine-held resources (daemon pools, sockets).

        No-op for in-process engines; the cluster backend overrides it
        to shut its node pool down.  Idempotent, and safe to call on a
        backend that never ran anything.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


def check_run_args(
    machine: Any = None,
    programs: Sequence[Any] | None = None,
    *,
    measured: bool = False,
    tracer: Any = None,
    sanitizer: Any = None,
    fault_plan: Any = None,
    initial_clocks: Sequence[float] | None = None,
    initial_metrics: Sequence[Any] | None = None,
) -> Any:
    """Reject a run its engine cannot honour; return the tracer to use.

    ``measured`` is the engine's :attr:`ExecutionBackend.measured`: the
    sanitizer and fault injection need deterministic virtual time, so
    a measured engine refuses both.  With ``programs=None`` only those
    feature checks run (drivers call it so at construction, before any
    set-up work).  Otherwise there must be 1 to ``machine.nodes``
    programs (only counted: a bare simulator passes its spawn entries)
    and one ``initial_clocks``/``initial_metrics`` entry per program.

    Returns ``None`` for a missing or disabled tracer; an enabled one
    is switched to the wall clock when the engine is measured.
    """
    if measured:
        if sanitizer is not None:
            raise ValueError(
                "the sanitizer shadow layer needs deterministic virtual "
                "time; use --backend sim for sanitized runs"
            )
        if fault_plan:
            raise ValueError(
                "fault injection needs deterministic virtual time; use "
                "--backend sim for fault experiments (a measured engine "
                "sees real faults: kill a worker or a node daemon)"
            )
    if programs is not None:
        n = len(programs)
        if n == 0:
            raise ValueError("no rank programs given")
        if n > machine.nodes:
            raise ValueError(
                f"machine has {machine.nodes} nodes; cannot run {n} ranks"
            )
        if initial_clocks is not None and len(initial_clocks) != n:
            raise ValueError(
                f"initial_clocks has {len(initial_clocks)} entries for {n} ranks"
            )
        if initial_metrics is not None and len(initial_metrics) != n:
            raise ValueError(
                f"initial_metrics has {len(initial_metrics)} entries for {n} ranks"
            )
    if tracer is None or not tracer.enabled:
        return None
    if measured:
        tracer.clock = "wall"
    return tracer


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

@dataclass
class _Entry:
    factory: Callable[..., ExecutionBackend]
    doc: str = ""
    available: Callable[[], str | None] = field(default=lambda: None)


_REGISTRY: dict[str, _Entry] = {}


def register_backend(
    name: str,
    factory: Callable[..., ExecutionBackend],
    *,
    doc: str = "",
    available: Callable[[], str | None] | None = None,
) -> None:
    """Register an engine under ``name``.

    ``factory(**options)`` builds a fresh backend instance.
    ``available()`` returns ``None`` when the backend can run here, or
    a human-readable reason string when it cannot (checked lazily by
    :func:`get_backend` so merely importing the package never fails on
    a restricted host).
    """
    if not name or not name.isidentifier():
        raise ValueError(f"bad backend name {name!r}")
    _REGISTRY[name] = _Entry(
        factory=factory, doc=doc, available=available or (lambda: None)
    )


def get_backend(name: str = "sim", **options: Any) -> ExecutionBackend:
    """Instantiate a registered backend by name.

    Raises :class:`ValueError` for unknown names and
    :class:`BackendUnavailable` when the backend exists but cannot run
    on this host (e.g. ``mp`` without the ``fork`` start method).
    """
    entry = _REGISTRY.get(name)
    if entry is None:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown backend {name!r}; known backends: {known}")
    reason = entry.available()
    if reason is not None:
        raise BackendUnavailable(f"backend {name!r} unavailable: {reason}")
    return entry.factory(**options)


def available_backends() -> list[str]:
    """Names of registered backends that can run on this host, sorted."""
    return sorted(
        name for name, e in _REGISTRY.items() if e.available() is None
    )


def backend_help() -> dict[str, str]:
    """``{name: one-line description}`` for every registered backend."""
    return {name: e.doc for name, e in sorted(_REGISTRY.items())}
