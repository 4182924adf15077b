"""Fast self-test of the benchmark (tiny case sizes, two repetitions).

Run from the root of a source checkout::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_program()

import workloads as wl  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "store": {"nodes": 16, "scale": 0.05, "nsteps": 2, "f0": 2.0},
    "offbody": {"kind": "debris", "nbodies": 2, "nodes": 4, "nsteps": 2},
    "airfoil": {"nodes": 3, "scale": 1.0, "nsteps": 2},
}
#: No orphan reference is recorded for this seed, so the tiny off-body
#: scenario is checked against its own first repetition only.
UNRECORDED_SEED = "1000003"


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(wl, "SIZES", TINY)
    monkeypatch.setattr(run, "MIN_REPS", 2)


def _result(capsys, *argv: str) -> dict:
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _expect_units(result: dict, section: str) -> None:
    want = {m["name"]: m["unit"] for m in BENCH[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_pass_prints_every_metric(tiny, capsys, workload):
    args = ("--workload", workload, "--seed", UNRECORDED_SEED, "--seconds", "0")
    plain = _result(capsys, *args, "--trace", "0")
    assert plain["attempted"] >= 2
    assert plain["correct"] and plain["failed"] == 0
    _expect_units(plain, "end_to_end")
    traced = _result(capsys, *args, "--trace", "1")
    assert traced["correct"]
    _expect_units(traced, "per_layer")


def test_tampered_ip_counts_as_failed(tiny, capsys, monkeypatch):
    w = wl.WORKLOADS["airfoil-mp"]
    calls = []

    def tampered(seed, spans, scratch):
        rep = w.runner(seed, spans, scratch)
        calls.append(rep)
        if len(calls) == 2:
            ip = list(rep.ip)
            ip[0] += 1
            rep = dataclasses.replace(rep, ip=ip)
        return rep

    monkeypatch.setitem(
        wl.WORKLOADS, "airfoil-mp", dataclasses.replace(w, runner=tampered)
    )
    out = _result(capsys, "--workload", "airfoil-mp", "--seconds", "0",
                  "--trace", "0")
    assert out["attempted"] == 2
    assert out["failed"] == 1
    assert out["correct"] is False


def test_check_names_each_mismatch():
    good = wl.Rep(setup_s=[1.0], step_s=1.0, nsteps=2, model_step_s=0.5,
                  ip=[3, 4], orphans=0)
    assert wl.check(good, good, 0, [3, 4]) == []
    bad = dataclasses.replace(good, ip=[3, 5], orphans=1, model_step_s=0.6)
    reasons = wl.check(bad, good, 0, [3, 4])
    assert len(reasons) == 5
