"""Self-tests of the benchmark: python3 -m pytest benchmark"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
from scenes import (R_MAX_M, R_MIN_M, V_MAX_MPS, V_MIN_MPS, WORKLOADS,
                    workload_scenes)

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, cwd=ROOT, script=ROOT / "benchmark" / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_in_its_seed(workload):
    a, b = workload_scenes(workload, 7), workload_scenes(workload, 7)
    assert [s.text() for s in a] == [s.text() for s in b]
    assert [s.sim_seed for s in a] == [s.sim_seed for s in b]
    assert [s.text() for s in a] != [s.text() for s in workload_scenes(workload, 8)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generated_scenes_stay_inside_capabilities(workload):
    scenes = workload_scenes(workload, 3)
    speeds = [v.speed_mps for s in scenes for v in s.vehicles]
    assert sum(v < 0 for v in speeds) == len(speeds) // 2
    assert all(V_MIN_MPS <= abs(v) <= V_MAX_MPS for v in speeds)
    for s in scenes:
        assert all(a < b for a, b in zip(s.times_s, s.times_s[1:]))
        for v in s.vehicles:
            for t in (s.times_s[0], s.times_s[-1]):
                assert R_MIN_M - 1e-3 <= v.range_at(t) <= R_MAX_M + 1e-3


def test_metric_and_workload_names_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.per_layer_units()
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_oracle_counts_range_and_velocity_hits():
    scene = workload_scenes("scene-sweep", 1)[0]
    v = scene.vehicles[0]
    truth = {checks.time_key(t): [(v.range_at(t), v.speed_mps)] for t in scene.times_s}
    flipped = {k: [(r, -vel)] for k, [(r, vel)] in truth.items()}
    n = len(scene.times_s)
    assert checks.hits(scene, truth) == (n, n, n)
    assert checks.hits(scene, flipped) == (n, n, 0)
    assert checks.hits(scene, {}) == (n, 0, 0)


def test_missing_output_is_a_failed_check(tmp_path):
    scene = workload_scenes("scene-sweep", 1)[0]
    assert checks.check_output(tmp_path, scene, WORKLOADS["scene-sweep"]).errors


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric(trace, section):
    proc = _run(["--workload", "scene-sweep", "--seed", "1", "--seconds", "0.1",
                 "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC[section])
    if trace:
        mults = {k: result["metrics"][f"transforms.mults_{k}_frame"]["value"]
                 for k in ("diag", "grid")}
        assert mults["grid"] == 2 * 480 * mults["diag"]


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmark", tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "scene-sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path, script=tmp_path / "benchmark" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
