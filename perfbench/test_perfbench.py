"""Fast self-test of the benchmark on a tiny grid.

Runs every workload's set-up and passes at a tiny scale, checks answers
against a reference recorded in the test, traces one pass, and checks that
the metric names agree with BENCHMARK.json. Run with
``python -m pytest perfbench/test_perfbench.py``.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import cvarsafe  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Scale  # noqa: E402

TINY = Scale({"x": [5, 5], "z": 5, "action": 3, "s": 5}, smoke_s=3,
             baseline_rollouts=200, mc_rollouts=2000, corpus_work=2000)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(name, seed, workdir, tracer=None):
    os.makedirs(workdir)
    workload = WORKLOADS[name](TINY, seed, str(workdir), 1)
    workload.setup()
    if tracer is not None:
        tracer.install()
    try:
        result = workload.run_pass(str(workdir / "pass"))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return workload, result


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_answers_match_a_reference_and_mismatches_fail(name, tmp_path):
    ref_workload, ref = _run(name, 0, tmp_path / "ref")
    reference = {"setup_answers": ref_workload.setup_answers, "answers": ref.answers}
    assert ref.ops and not [op for op in ref.ops if op[2]]

    workload, result = _run(name, 1, tmp_path / "run")
    assert workload.check_setup(reference["setup_answers"]) == []
    workload.check(result, reference["answers"])
    assert [op for op in result.ops if op[2]] == []
    assert result.seconds > 0

    broken = copy.deepcopy(reference)
    broken["answers"]["deploy"]["s_star"] += 0.5
    if name == "baseline-pipeline":
        broken["answers"]["sweep"]["v0"][1][0] += 1e-6
        broken["answers"]["safe-sets"]["cell_counts"]["alpha=0.05,r=1.0"] += 1
    else:
        broken["setup_answers"]["sweep"]["v0"][1][0] += 1e-6
        assert workload.check_setup(broken["setup_answers"])
    workload.check(result, broken["answers"])
    failed = {op[0] for op in result.ops if op[2]}
    expected = {"baseline-pipeline": {"sweep", "safe-sets", "deploy"},
                "deploy-mc": {"deploy"}}[name]
    assert failed == expected


def test_traced_pass_reports_every_layer_metric(tmp_path):
    original = cvarsafe.dp.value_iteration
    tracer = tracing.Tracer()
    workload, result = _run("baseline-pipeline", 0, tmp_path / "traced", tracer)
    assert cvarsafe.dp.value_iteration is original  # uninstalled
    metrics = tracing.layer_metrics(tracer, 1, result.seconds)
    names = set(metrics) | {"trace.total_s", "trace.untraced_total_s",
                            "trace.overhead_s"}
    assert names == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert tracing.unit(m["name"]) == m["unit"]
    # The sweep and deploy on the 5x5x5 grid, then the oracle's tiny sweeps.
    main_steps = [s for s in tracer.spans if s.name == "dp.sweep_kernel"
                  and s.work["dp.node_updates"] == 25 * 5]
    assert len(main_steps) == 5 * 20 + 20
    assert metrics["dp.bellman_steps"] > len(main_steps)
    assert metrics["dp.bellman_step_ms"] > 0
    assert metrics["oracle.instances"] == len(workload.corpus)
    assert metrics["solver.sweep_dual_params"] > 5
    assert metrics["rollout.rollout_steps"] == 200 * 20
    assert metrics["artifacts.bytes_written"] > 0
    assert 0 < metrics["dp_solver.wall_share"] <= 1


def test_end_to_end_units_match_the_spec():
    for m in SPEC["end_to_end"]:
        assert tracing.unit(m["name"]) == m["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracing.py"):
        shutil.copy(BENCH_DIR / name, bench / name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deploy-mc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
