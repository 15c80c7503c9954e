"""Tests of the benchmark itself: tracing must not change what it measures."""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import amsim
from amsim.config import load_config
from perfbench import layers, run, tracing, workloads
from perfbench.tracing import Span

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def short_runs():
    """grasp_estimate cut to just past the latch, untraced then traced."""
    cfg = dataclasses.replace(load_config("grasp_estimate"), duration=2.05)
    plain = amsim.scenario.run_scenario(cfg)
    targets, missing = layers.targets(amsim)
    assert missing == []
    tracer = tracing.Tracer()
    tracer.install(targets)
    try:
        traced = amsim.scenario.run_scenario(cfg)
    finally:
        tracer.uninstall()
    return cfg, plain, traced, tracer


def test_uninstall_restores_every_patched_attribute():
    targets, _ = layers.targets(amsim)
    before = [vars(t.owner)[t.attr] for t in targets]
    tracer = tracing.Tracer()
    tracer.install(targets)
    try:
        assert all(vars(t.owner)[t.attr] is not b for t, b in zip(targets, before))
        with pytest.raises(RuntimeError):
            tracer.install(targets)
    finally:
        tracer.uninstall()
    assert all(vars(t.owner)[t.attr] is b for t, b in zip(targets, before))
    assert isinstance(vars(amsim.scenario.RunLog)["from_csv"], classmethod)


def test_traced_run_is_bit_identical(short_runs):
    _, plain, traced, tracer = short_runs
    assert np.array_equal(plain.data, traced.data)
    assert plain.events == traced.events
    names = {s.name for s in tracer.spans}
    assert {"dynamics.step_rk4", "presense.fit_obb", "adaptation.update_total",
            "controller.iags_gain", "scenario.traj_eval"} <= names
    assert sum(s.name == "dynamics.step_rk4" for s in tracer.spans) == 4100
    assert tracer.counts["spatial.quat_to_rot"] > 4 * 4100
    assert layers.unaccounted_ns(tracer.spans) == 0


def test_log_checks_catch_wrong_answers(short_runs):
    cfg, plain, _, _ = short_runs
    assert workloads.check_log(cfg, plain, plain) == []
    bad = dataclasses.replace(plain, data=plain.data.copy(),
                              events={**plain.events, "control_ticks": 819})
    bad.data[7, 3] = np.nan
    problems = workloads.check_log(cfg, bad, plain)
    assert any("control_ticks" in p for p in problems)
    assert any("non-finite" in p for p in problems)
    assert any("differs" in p for p in problems)


def test_missing_targets_are_skipped(monkeypatch):
    monkeypatch.delattr(amsim.scenario.Trajectory, "eval")
    monkeypatch.delattr(amsim, "presense")
    targets, missing = layers.targets(amsim)
    assert {"scenario.traj_eval", "presense.fit_obb"} <= set(missing)
    assert not {"scenario.traj_eval", "presense.fit_obb"} & {t.name for t in targets}


def test_self_times_on_synthetic_tree():
    spans = [
        Span(1, -1, "root", 0, 100),
        Span(1, 0, "a", 10, 40),
        Span(1, 1, "leaf", 15, 25),
        Span(1, 0, "b", 50, 70),
        Span(1, 0, "b", 60, 80),    # overlaps its sibling: covered once
        Span(1, -1, "root", 200, 210),
        Span(1, 5, "a", 205, 220),  # runs past its parent: clipped
    ]
    assert tracing.self_times(spans) == [40, 20, 10, 20, 20, 5, 15]
    assert tracing.covered_ns([(5, 8), (0, 3), (2, 4)], 1, 7) == 5


def test_per_layer_arithmetic():
    spans = [Span(1, -1, "scenario.run_scenario", 0, 1000),
             Span(1, 0, "dynamics.step_rk4", 100, 300),
             Span(1, 0, "dynamics.step_rk4", 400, 500),
             Span(2, -1, "scenario.run_scenario", 2000, 3000)]
    got = layers.per_layer(spans, {"delta.kin_fallbacks": 4}, {"freefall_ticks": 2},
                           n_ops=2, op_wall_ns=4000)
    assert got["dynamics.step_rk4.calls"]["value"] == 1.0
    assert got["dynamics.step_rk4.us"]["value"] == pytest.approx(0.15)
    assert got["dynamics.step_rk4.share"]["value"] == pytest.approx(300 / 4000)
    assert got["scenario.self_share"]["value"] == pytest.approx(1700 / 4000)
    assert got["delta.kin_fallbacks"]["value"] == 2.0
    assert got["controller.freefall_ticks"]["value"] == 1.0
    assert got["presense.fit_obb.ms"]["value"] == 0.0


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    emitted = {name: unit for name, unit, _, _ in layers.PER_LAYER}
    emitted["trace.overhead_pct"] = "%"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == emitted
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "grasp_iags", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
