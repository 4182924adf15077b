"""Traced runs: spans and counts around calls into each layer.

A :class:`Recorder` replaces public functions and methods of the
program's layers with wrappers that record a span (name, start, end,
parent span, run id) and, where the call's arguments or result carry
work done, counts taken at the same boundary.  The program's own code
is untouched: the wrappers are installed for the traced run only and
removed afterwards.  Calls inside forked ``mp`` ranks are invisible
here, so the ``backend.mp`` metrics come from the per-rank wall
metrics that engine returns.

A layer's self time is its spans' duration minus the time their child
spans cover.  Spans nest on the Python call stack, which is exact here
because the ``sim`` engine runs every rank program in this thread.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

import repro.connectivity.dcf as dcf_mod
import repro.core.overflow_d1 as d1_mod
import repro.offbody.driver as offbody_mod
import repro.partition.dynamic_lb as dlb_mod
from repro.backend.mp import MpBackend
from repro.backend.sim import SimBackend
from repro.connectivity.restart import RestartCache
from repro.core import OverflowD1
from repro.machine import Comm, Mailbox
from repro.offbody import OffBodyDriver, OffBodyManager
from repro.partition.dynamic_lb import DynamicRebalancer

#: Per-layer metrics a traced repetition reports (units live in
#: BENCHMARK.json).  Layers a workload never calls read 0.
METRICS = (
    "machine.self_s",
    "machine.mailbox_peeks",
    "machine.polls",
    "machine.messages",
    "machine.bytes",
    "backend.mp.run_s",
    "backend.mp.runs",
    "backend.mp.compute_s",
    "backend.mp.comm_s",
    "backend.mp.wait_s",
    "backend.mp.motion_s",
    "backend.mp.dcf3d_s",
    "backend.mp.messages",
    "backend.mp.bytes",
    "connectivity.donor_search_s",
    "connectivity.donor_points",
    "connectivity.newton_steps",
    "connectivity.found_frac",
    "connectivity.holecut_s",
    "connectivity.restart_hit_rate",
    "partition.build_s",
    "partition.rebalances",
    "partition.group_s",
    "partition.cut_points",
    "offbody.regen_s",
    "offbody.patches",
    "offbody.churn",
    "offbody.driver_self_s",
    "core.driver_self_s",
    "cases.build_s",
    "obs.store.records",
    "obs.store.bytes",
    "obs.readback_s",
    "obs.critical_path_s",
    "analysis.sanitizer_hook_calls",
)

#: metric -> (span name, "total" or "self").
_SPAN_METRICS = {
    "machine.self_s": ("machine.sim", "self"),
    "backend.mp.run_s": ("backend.mp", "total"),
    "connectivity.donor_search_s": ("connectivity.donor_search", "total"),
    "connectivity.holecut_s": ("connectivity.holecut", "total"),
    "partition.build_s": ("partition.build", "total"),
    "partition.group_s": ("partition.group", "total"),
    "offbody.regen_s": ("offbody.regen", "total"),
    "offbody.driver_self_s": ("offbody.driver", "self"),
    "core.driver_self_s": ("core.driver", "self"),
    "cases.build_s": ("cases.build", "total"),
    "obs.readback_s": ("obs.readback", "total"),
    "obs.critical_path_s": ("obs.critical_path", "total"),
}


def _engine_counts(prefix: str) -> Callable:
    def after(counts: Counter, _args, out) -> None:
        for rm in out.metrics.ranks:
            counts[f"{prefix}.messages"] += rm.messages_sent
            counts[f"{prefix}.bytes"] += rm.bytes_sent
            if prefix == "backend.mp":
                for phase, kinds in rm.time.items():
                    for kind, sec in kinds.items():
                        counts[f"backend.mp.{kind}_s"] += sec
                        if phase in ("motion", "dcf3d"):
                            counts[f"backend.mp.{phase}_s"] += sec
    return after


def _donor_counts(counts: Counter, args, out) -> None:
    counts["connectivity.donor_points"] += len(out.found)
    counts["connectivity.found"] += int(out.found.sum())
    counts["connectivity.newton_steps"] += out.total_steps


def _restart_counts(counts: Counter, _args, out) -> None:
    _cells, known = out
    counts["connectivity.restart_hits"] += int(known.sum())
    counts["connectivity.restart_lookups"] += len(known)


def _rebalance_counts(counts: Counter, _args, out) -> None:
    if out is not None:
        counts["partition.rebalances"] += 1


def _layout_counts(counts: Counter, _args, layout) -> None:
    counts["offbody.patches"] += layout.npatches
    counts["offbody.churn"] += layout.created + layout.destroyed


class Recorder:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, run id]
        self.spans: list[list[Any]] = []
        self.counts: Counter = Counter()
        self.run_id = ""
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    # -- installing wrappers -------------------------------------------

    def _wrap(self, owner: Any, attr: str, name: str | None,
              after: Callable | None = None) -> None:
        orig = getattr(owner, attr)
        counts = self.counts
        span = self.span

        def wrapper(*args, **kwargs):
            if name is None:
                out = orig(*args, **kwargs)
            else:
                with span(name):
                    out = orig(*args, **kwargs)
            if after is not None:
                after(counts, args, out)
            return out

        self._patch(owner, attr, orig, wrapper)

    def _count(self, owner: Any, attr: str, key: str) -> None:
        orig = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return orig(*args, **kwargs)

        self._patch(owner, attr, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper) -> None:
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Recorder":
        self.counts.clear()
        self._wrap(SimBackend, "run", "machine.sim", _engine_counts("machine"))
        self._count(Mailbox, "peek_matching", "machine.mailbox_peeks")
        self._count(Comm, "iprobe", "machine.polls")
        self._count(Comm, "drain_recv", "machine.polls")
        self._wrap(MpBackend, "run", "backend.mp", _engine_counts("backend.mp"))
        # Names imported into the calling modules are patched where the
        # callers look them up.
        for mod in (dcf_mod, offbody_mod):
            self._wrap(mod, "donor_search", "connectivity.donor_search",
                       _donor_counts)
        self._wrap(d1_mod, "cut_holes", "connectivity.holecut")
        self._wrap(d1_mod, "find_igbps", "connectivity.holecut")
        self._wrap(RestartCache, "hints_with_mask", None, _restart_counts)
        self._wrap(d1_mod, "build_partition", "partition.build")
        self._wrap(dlb_mod, "build_partition", "partition.build")
        self._wrap(offbody_mod, "static_balance", "partition.build")
        self._wrap(DynamicRebalancer, "maybe_rebalance", None, _rebalance_counts)
        self._wrap(offbody_mod, "group_grids", "partition.group")
        self._wrap(OffBodyManager, "regenerate", "offbody.regen", _layout_counts)
        self._wrap(OverflowD1, "run", "core.driver")
        self._wrap(OffBodyDriver, "run", "offbody.driver")
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- reading the record --------------------------------------------

    def take(self) -> dict[str, float]:
        """Per-layer metrics of the current run id's spans and counts."""
        total: Counter = Counter()
        child: Counter = Counter()
        nspans: Counter = Counter()
        for name, t0, t1, parent, run_id in self.spans:
            if run_id != self.run_id:
                continue
            total[name] += t1 - t0
            nspans[name] += 1
            if parent >= 0:
                child[parent] += t1 - t0
        own: Counter = Counter()
        for i, (name, t0, t1, _parent, run_id) in enumerate(self.spans):
            if run_id == self.run_id:
                own[name] += (t1 - t0) - child[i]
        c = self.counts
        out: dict[str, float] = {k: 0 for k in METRICS}
        for metric, (name, kind) in _SPAN_METRICS.items():
            out[metric] = (own if kind == "self" else total)[name]
        for key in c:
            if key in out:
                out[key] = c[key]
        out["backend.mp.runs"] = nspans["backend.mp"]
        points = c["connectivity.donor_points"]
        out["connectivity.found_frac"] = c["connectivity.found"] / points if points else 0.0
        lookups = c["connectivity.restart_lookups"]
        out["connectivity.restart_hit_rate"] = (
            c["connectivity.restart_hits"] / lookups if lookups else 0.0
        )
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, t0, t1, parent, run_id in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": t0, "end": t1,
                    "parent": parent, "run": run_id,
                }) + "\n")
