"""Pluggable execution backends for rank programs.

Rank programs are backend-neutral: they yield primitive operation
tuples through :class:`repro.machine.simmpi.Comm` and never observe how
those primitives execute.  This package provides the engine interface
(:mod:`repro.backend.api`) and two engines:

``sim`` (default)
    The conservative discrete-event simulator — deterministic modeled
    virtual time, full feature surface (fault injection, sanitizer,
    golden traces).  See :mod:`repro.backend.sim`.
``mp``
    Real ``multiprocessing`` processes with pickle-over-pipe transport
    and shared-memory bulk payloads — measured host wall-clock time,
    identical physics.  See :mod:`repro.backend.mp`.
``cluster``
    Multi-host execution over per-host ``repro node`` daemons speaking
    length-framed TCP, with elastic failure recovery — measured wall
    time, identical physics, survives node loss.  See
    :mod:`repro.cluster`.

Select by name::

    from repro.backend import get_backend
    out = get_backend("mp").run_spmd(machine, program, nranks=4)

The mp and cluster modules are imported lazily so hosts that cannot
run them (no ``fork``) still import this package and use ``sim``.
"""

from __future__ import annotations

from typing import Any

from repro.backend.api import (
    BackendResult,
    BackendUnavailable,
    CommProtocol,
    ExecutionBackend,
    RankProgram,
    available_backends,
    backend_help,
    check_run_args,
    get_backend,
    register_backend,
)
from repro.backend.sim import SimBackend

__all__ = [
    "BackendResult",
    "BackendUnavailable",
    "CommProtocol",
    "ExecutionBackend",
    "RankProgram",
    "SimBackend",
    "available_backends",
    "backend_help",
    "check_run_args",
    "get_backend",
    "register_backend",
]


def _mp_available() -> str | None:
    from repro.backend.mp import mp_available

    return mp_available()


def _mp_factory(**options: Any) -> ExecutionBackend:
    from repro.backend.mp import MpBackend

    return MpBackend(**options)


register_backend(
    "sim",
    SimBackend,
    doc="discrete-event simulator: modeled virtual time, deterministic",
)
register_backend(
    "mp",
    _mp_factory,
    doc="real multiprocessing ranks: measured wall time, identical physics",
    available=_mp_available,
)


def _cluster_available() -> str | None:
    from repro.cluster.backend import cluster_available

    return cluster_available()


def _cluster_factory(**options: Any) -> ExecutionBackend:
    from repro.cluster.backend import ClusterBackend

    return ClusterBackend(**options)


register_backend(
    "cluster",
    _cluster_factory,
    doc="multi-host node daemons over TCP: elastic, survives node loss",
    available=_cluster_available,
)
