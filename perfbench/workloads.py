"""The benchmark's four workloads and their output checks.

One *repetition* of a workload builds its case from scratch, runs it to
the end, and reports set-up time, host seconds per measured step and
the outputs the checks compare.  Every call goes through the program's
public API; nothing here reaches into ``repro`` internals.  Why each
workload exists, and which layer it stresses, is written down in
``README.md`` next to this file.

The caller must have put the program's ``src`` directory on
``sys.path`` before importing this module (``run.py`` does).
"""

from __future__ import annotations

import contextlib
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.analysis import Sanitizer
from repro.backend import ExecutionBackend, get_backend
from repro.cases import build_case
from repro.core import OverflowD1
from repro.machine import MACHINE_PRESETS
from repro.obs.perf import CommMatrix, analyze_critical_path
from repro.obs.store import StoreReader, StoreTracer
from repro.offbody import OffBodyDriver, build_offbody_case, generate_scenario

#: Run sizes.  ``store`` is the paper's finned-store case (Tables 4/5):
#: 16 moving grids, and with f0=2 Algorithm 2 repartitions once after
#: step 5.  ``offbody`` is the many-rank Algorithm-3 case, run on
#: ``OFFBODY_SCENARIOS`` scenarios per repetition.  ``airfoil`` is
#: Table 1's 3-grid case on the fewest ranks it allows.
SIZES: dict[str, dict[str, Any]] = {
    "store": {"nodes": 24, "scale": 0.05, "nsteps": 10, "f0": 2.0},
    "offbody": {"kind": "debris", "nbodies": 6, "nodes": 64, "nsteps": 4},
    "airfoil": {"nodes": 3, "scale": 1.0, "nsteps": 6},
}

#: Scenarios per off-body repetition: seed ``s`` generates scenarios
#: ``2s`` and ``2s+1``.  Host time per step differs by about 8% from one
#: scenario to the next; two per repetition halve that variance.
OFFBODY_SCENARIOS = 2

def _span(spans, name: str):
    return spans.span(name) if spans is not None else contextlib.nullcontext()


@dataclass
class Rep:
    """What one repetition measured and produced."""

    setup_s: list[float]
    step_s: float
    nsteps: int
    #: Modeled SP2 seconds per step (``RunResult.time_per_step``);
    #: ``None`` on engines that measure instead of model.
    model_step_s: float | None
    #: Per-rank I(p) summed over every measured step.
    ip: list[int]
    orphans: int
    analyze_s: float | None = None
    #: Layer counts only this repetition can see (store size, hooks).
    layer: dict[str, float] = field(default_factory=dict)


class _SetupClock(ExecutionBackend):
    """Delegates to a real engine and notes when its first run starts
    and when it returns: the boundaries of set-up and measured steps."""

    def __init__(self, inner: ExecutionBackend) -> None:
        self.inner = inner
        self.name = inner.name
        self.shared_state = inner.shared_state
        self.measured = inner.measured
        self.elastic = inner.elastic
        self.first_start: float | None = None
        self.first_return: float | None = None

    def run(self, machine, programs, **kwargs):
        if self.first_start is None:
            self.first_start = time.perf_counter()
        out = self.inner.run(machine, programs, **kwargs)
        if self.first_return is None:
            self.first_return = time.perf_counter()
        return out

    def close(self) -> None:
        self.inner.close()


def _accumulated_ip(rows) -> list[int]:
    total = None
    for row in rows:
        arr = np.asarray(row, dtype=np.int64)
        total = arr.copy() if total is None else total + arr
    return [] if total is None else [int(x) for x in total]


def _overflow_rep(
    case: str, engine: str, spans, store_dir: Path | None = None
) -> Rep:
    """One OverflowD1 repetition; set-up ends when the warm-up step (the
    cold connectivity solve) returns.  ``store_dir`` runs it the way
    ``repro trace --sanitize --trace-store`` does and reads it back."""
    size = dict(SIZES[case])
    nodes = size.pop("nodes")
    t0 = time.perf_counter()
    with _span(spans, "cases.build"):
        cfg = build_case(case, machine=MACHINE_PRESETS["sp2"](nodes=nodes), **size)
    backend = _SetupClock(get_backend(engine))
    tracer = san = None
    if store_dir is not None:
        tracer = StoreTracer(store_dir, meta={"case": case}, fresh=True)
        san = Sanitizer(tracer=tracer)
    try:
        run = OverflowD1(cfg, tracer=tracer, sanitizer=san, backend=backend).run()
    finally:
        backend.close()
        if tracer is not None:
            tracer.close()
    t_end = time.perf_counter()
    rep = Rep(
        setup_s=[backend.first_return - t0],
        step_s=(t_end - backend.first_return) / run.nsteps,
        nsteps=run.nsteps,
        model_step_s=None if backend.measured else run.time_per_step,
        ip=_accumulated_ip(
            row for e in run.epochs for row in e.igbp_per_rank_step
        ),
        orphans=sum(e.orphans_total for e in run.epochs),
    )
    if store_dir is not None:
        rep.layer["obs.store.records"] = tracer.records
        rep.layer["obs.store.bytes"] = sum(
            p.stat().st_size for p in store_dir.iterdir() if p.is_file()
        )
        rep.layer["analysis.sanitizer_hook_calls"] = san.hook_calls
        t_a = time.perf_counter()
        with _span(spans, "obs.readback"):
            trace = StoreReader(store_dir).to_tracer()
        with _span(spans, "obs.critical_path"):
            analyze_critical_path(trace, igbp=run.igbp_rollup())
        with _span(spans, "obs.comm_matrix"):
            CommMatrix.from_tracer(trace)
        rep.analyze_s = time.perf_counter() - t_a
    return rep


def _offbody_rep(seed: int, spans) -> Rep:
    """One OffBodyDriver run per scenario of ``seed``.  The driver has no
    warm-up step, so set-up ends where its first measured step starts:
    after scenario generation, case build, and the first patch
    generation and Algorithm-3 grouping."""
    size = SIZES["offbody"]
    setups: list[float] = []
    step_time = 0.0
    runs = []
    for k in range(OFFBODY_SCENARIOS):
        t0 = time.perf_counter()
        with _span(spans, "cases.build"):
            payload = generate_scenario(
                size["kind"], OFFBODY_SCENARIOS * seed + k, nbodies=size["nbodies"]
            )
            case = build_offbody_case(
                payload, nodes=size["nodes"], nsteps=size["nsteps"]
            )
        backend = _SetupClock(get_backend("sim"))
        runs.append(OffBodyDriver(case, backend=backend).run())
        step_time += time.perf_counter() - backend.first_start
        setups.append(backend.first_start - t0)
    epochs = [e for run in runs for e in run.epochs]
    nsteps = sum(run.nsteps for run in runs)
    rep = Rep(
        setup_s=setups,
        step_s=step_time / nsteps,
        nsteps=nsteps,
        model_step_s=sum(run.elapsed for run in runs) / nsteps,
        # Each scenario's accumulated I(p), one after the other.
        ip=[x for run in runs for x in _accumulated_ip(
            row for e in run.epochs for row in e.per_step_igbp)],
        orphans=sum(e.orphans_total for e in epochs),
    )
    rep.layer["partition.cut_points"] = sum(e.cut_points for e in epochs)
    return rep


@dataclass(frozen=True)
class Workload:
    name: str
    #: Engine the measured repetitions run on.
    engine: str
    #: Key of ``SIZES`` and of the orphan counts in ``reference.json``.
    case: str
    runner: Callable[[int, Any, Path], Rep]


def _store_traced(seed: int, spans, scratch: Path) -> Rep:
    store_dir = scratch / "store"
    try:
        return _overflow_rep("store", "sim", spans, store_dir=store_dir)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "store-sim", "sim", "store",
            lambda seed, spans, scratch: _overflow_rep("store", "sim", spans),
        ),
        Workload(
            "offbody-sim", "sim", "offbody",
            lambda seed, spans, scratch: _offbody_rep(seed, spans),
        ),
        Workload(
            "airfoil-mp", "mp", "airfoil",
            lambda seed, spans, scratch: _overflow_rep("airfoil", "mp", spans),
        ),
        Workload("store-traced", "sim", "store", _store_traced),
    )
}


def sim_reference_ip(workload: Workload) -> list[int] | None:
    """I(p) of the same case on ``sim``, for workloads on a real engine."""
    if workload.engine == "sim":
        return None
    return _overflow_rep(workload.case, "sim", None).ip


def check(
    rep: Rep,
    first: Rep | None,
    expected_orphans: int | None,
    sim_ip: list[int] | None,
) -> list[str]:
    """Why ``rep``'s outputs are wrong; empty when they are right."""
    bad = []
    if first is not None:
        if rep.model_step_s != first.model_step_s:
            bad.append(
                f"modeled s/step {rep.model_step_s!r} != first "
                f"repetition's {first.model_step_s!r}"
            )
        if rep.ip != first.ip:
            bad.append("accumulated I(p) differs from the first repetition's")
        if rep.orphans != first.orphans:
            bad.append(
                f"{rep.orphans} orphans != first repetition's {first.orphans}"
            )
    if expected_orphans is not None and rep.orphans != expected_orphans:
        bad.append(
            f"{rep.orphans} orphans != recorded reference {expected_orphans}"
        )
    if sim_ip is not None and rep.ip != sim_ip:
        bad.append("accumulated I(p) differs from the same case on sim")
    return bad


def peak_rss_mb() -> float:
    """Peak resident MiB of this process plus its largest forked rank."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0
