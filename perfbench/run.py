#!/usr/bin/env python3
"""Host benchmark of the repro package: end-to-end and per-layer numbers.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload store-sim --seed 1 --seconds 25 --trace 0

Repetitions of the workload run until ``--seconds`` is spent (at least
``MIN_REPS``).  Each repetition builds its case from scratch and its
outputs are checked (see ``workloads.check``); a failed repetition is
counted, never fatal.  Human-readable lines come first; the last line
of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``
(medians over repetitions, tracing off).  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of
the traced ones, plus the tracing overhead; its spans are written to
``.perfbench/spans-<workload>-s<seed>.jsonl``.

The program is imported from ``src/`` of the checkout and nowhere
else; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
#: Default ``--seed``; it only generates the offbody-sim scenario.
DEFAULT_SEED = 1
#: Fewest repetitions a run makes, however long they take.
MIN_REPS = 3


def bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json, in order."""
    return {m["name"]: m["unit"] for m in bench()[section]}


def load_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or exit 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {src}/repro\n")
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.stderr.write(f"perfbench: imported repro from {repro.__file__}\n")
        raise SystemExit(2)


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload for ``seconds``; return the result object."""
    import workloads as wl

    w = wl.WORKLOADS[workload]
    reference = json.loads((Path(__file__).parent / "reference.json").read_text())
    expected = reference["orphans"][w.case]
    if isinstance(expected, dict):
        expected = expected.get(str(seed))
    # Outside the timed region: the same case on sim for the I(p) check.
    sim_ip = wl.sim_reference_ip(w)

    recorder = None
    if trace:
        import layers

        recorder = layers.Recorder()
    scratch = OUT_DIR / f"{workload}-{os.getpid()}"
    first = None
    attempted = failed = 0
    reps: list = []
    traced: list = []
    layer_runs: list[dict] = []
    start = time.perf_counter()
    while True:
        # Start every repetition from the same heap: the previous one's
        # garbage is collected here, not inside the next one's timing.
        gc.collect()
        t0 = time.perf_counter()
        # A traced run alternates untraced (base) and traced repetitions.
        traced_rep = recorder is not None and attempted % 2 == 1
        try:
            if traced_rep:
                recorder.run_id = f"{workload}-s{seed}-r{attempted}"
                with recorder:
                    rep = w.runner(seed, recorder, scratch)
                values = recorder.take()
                values.update(rep.layer)
                layer_runs.append(values)
            else:
                rep = w.runner(seed, None, scratch)
        except Exception:
            traceback.print_exc()
            reasons = ["raised"]
        else:
            reasons = wl.check(rep, first, expected, sim_ip)
            if first is None:
                first = rep
        attempted += 1
        if reasons:
            failed += 1
            print(f"repetition {attempted} failed: {'; '.join(reasons)}")
        elif traced_rep:
            traced.append(rep)
        else:
            reps.append(rep)
        now = time.perf_counter()
        enough = attempted >= MIN_REPS and (not trace or attempted % 2 == 0)
        if enough and now + (now - t0) > start + seconds:
            break
        if now - start > 3 * seconds and attempted >= 2:
            break
    shutil.rmtree(scratch, ignore_errors=True)

    metrics: dict = {}
    if trace:
        step = _median([r.step_s for r in traced])
        base = _median([r.step_s for r in reps])
        for name in layers.METRICS:
            values = [v.get(name, 0) for v in layer_runs]
            metrics[name] = (
                int(_median(values)) if all(isinstance(x, int) for x in values)
                else _median(values)
            )
        metrics["trace.step_s"] = step
        metrics["trace.base_step_s"] = base
        metrics["trace.overhead_frac"] = step / base - 1.0 if base else 0.0
        spans_path = OUT_DIR / f"spans-{workload}-s{seed}.jsonl"
        recorder.write(spans_path)
        units = bench_units("per_layer")
        print(f"workload {workload}, seed {seed}: {len(traced)} traced and "
              f"{len(reps)} untraced repetitions, {failed} failed")
        for name, unit in units.items():
            print(f"  {name:32s} {metrics[name]!r} {unit}")
        print(f"wrote {len(recorder.spans)} spans to {spans_path}")
    else:
        setups = [s for r in reps for s in r.setup_s]
        metrics = {
            "setup_s": _median(setups),
            "step_s": _median([r.step_s for r in reps]),
            "peak_rss_mb": wl.peak_rss_mb(),
        }
        units = bench_units("end_to_end")
        print(f"workload {workload}, seed {seed}: {attempted} repetitions, "
              f"{failed} failed")
        print(f"  setup_s       {metrics['setup_s']:.6f} s "
              f"(median of {len(setups)})")
        print(f"  step_s        {metrics['step_s']:.6f} s/step "
              f"(median of {len(reps)} repetitions of {reps[0].nsteps} steps)"
              if reps else "  step_s        no good repetition")
        if reps and reps[0].model_step_s is not None:
            print(f"  model_step_s  {_median([r.model_step_s for r in reps])!r} "
                  f"modeled s/step (median of {len(reps)})")
        if reps and reps[0].analyze_s is not None:
            print(f"  analyze_s     {_median([r.analyze_s for r in reps]):.6f} s "
                  f"(median of {len(reps)})")
        print(f"  peak_rss_mb   {metrics['peak_rss_mb']:.3f} MiB")
        print(f"  failed_frac   {failed / attempted:.4f} ratio "
              f"({failed}/{attempted})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": metrics[k], "unit": unit} for k, unit in units.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench()["workloads"]])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=bench()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    load_program()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
