"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

Smoke runs of every workload in both modes, the independent checks against
correct and corrupted answers, the scaling to the reference speed, the CLI
children's peak RSS, and the benchmark's refusal to run without the program.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tropopt import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, str(BENCH.relative_to(ROOT) / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_spec_matches_the_benchmark():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    )


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values()), values
    elif workload == "small_verify":
        assert values["oracle.points_per_problem"] > 0 and values["cli.verify_ms"] > 0
    else:
        assert values["oracle.points_per_problem"] == 0 and values["cli.verify_ms"] == 0


def test_timings_scale_to_the_reference_speed():
    assert speed.reference_s() > 0
    ref = speed.REFERENCE_S
    assert speed.scale([ref, ref, ref]) == 1
    # a machine at half speed: timings halve, whatever one stray pass read
    assert speed.scale([2 * ref, 2 * ref, 50 * ref]) == 0.5


def test_inputs_depend_on_the_seed_only(tmp_path):
    w = workloads.WORKLOADS["small_verify"]
    a = workloads.write_inputs(w, 5, tmp_path / "a")
    b = workloads.write_inputs(w, 5, tmp_path / "b")
    c = workloads.write_inputs(w, 6, tmp_path / "c")
    texts = lambda paths: [p.read_text() for k in w.kinds for p in paths[k]]  # noqa: E731
    assert texts(a) == texts(b) != texts(c)


def solved(kind, seed):
    """A small problem of ``kind`` and the program's solve output for it."""
    w = workloads.WORKLOADS["small_verify"]
    doc = workloads.make_problem(w, kind, np.random.default_rng(seed))
    lp = cli.parse_problem(doc)
    sol = cli.solve_loaded(lp)
    return doc, json.loads(json.dumps(cli.solution_to_dict(lp, sol))), lp, sol


ALL_KINDS = workloads.VECTOR_KINDS + workloads.MATRIX_KINDS


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("seed", range(20))
def test_checks_accept_program_output(kind, seed):
    doc, out, lp, sol = solved(kind, seed)
    checks.check_solution(doc, out)
    report = cli.report_to_dict(lp, sol, cli.verify_loaded(lp, sol, step=0.5, samples=100))
    checks.check_report(doc, report)


def rejected(check, doc, out):
    with pytest.raises(checks.CheckError):
        check(doc, out)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_checks_reject_raised_mu(kind):
    doc, out, lp, sol = solved(kind, 1)
    bad = copy.deepcopy(out)
    bad["mu"] += 0.5
    rejected(checks.check_solution, doc, bad)
    report = cli.report_to_dict(lp, sol, cli.verify_loaded(lp, sol, step=0.5, samples=100))
    for field in ("mu", "min_value"):
        bad = dict(report, **{field: report[field] + 0.5})
        rejected(checks.check_report, doc, bad)
    rejected(checks.check_report, doc, dict(report, agrees_with_solver=False))


@pytest.mark.parametrize("kind", workloads.VECTOR_KINDS)
@pytest.mark.parametrize("end", ["lower", "upper"])
def test_checks_reject_endpoint_moved_inwards(kind, end):
    for seed in range(20):
        doc, out, _, _ = solved(kind, seed)
        lower, upper = out["solution"]["lower"], out["solution"]["upper"]
        wide = [i for i in range(len(lower)) if lower[i] < upper[i]]
        if wide:
            break
    bad = copy.deepcopy(out)
    bad["solution"][end][wide[0]] += 0.5 if end == "lower" else -0.5
    rejected(checks.check_solution, doc, bad)


@pytest.mark.parametrize("kind", ["matrix_lower", "approximate"])
def test_checks_reject_x_below_g(kind):
    doc, out, _, _ = solved(kind, 1)
    bad = copy.deepcopy(out)
    bad["solution"]["x"][0] = doc["g"][0] - 0.5
    rejected(checks.check_solution, doc, bad)


@pytest.mark.parametrize("delta", [-0.5, 0.5])
def test_checks_reject_best_under_off_the_maximum(delta):
    doc, out, _, _ = solved("best_under", 1)
    bad = copy.deepcopy(out)
    bad["solution"]["x"][0] += delta  # lowered: a slack column; raised: A x > p
    rejected(checks.check_solution, doc, bad)


def test_cli_peak_rss_ignores_the_harness_size(tmp_path):
    fixture = ["-m", "tropopt", "solve", str(ROOT / "tests" / "fixtures" / "location_example.json")]
    spawner = run.Spawner(run.child_env())
    try:
        small = spawner.run(fixture, tmp_path / "small.json")["maxrss_kb"]
        ballast = b"\x01" * (100 * 2**20)
        large = spawner.run(fixture, tmp_path / "large.json")["maxrss_kb"]
    finally:
        spawner.close()
    assert abs(large - small) < 2 * 1024
    # a child started from this process inherits its high-water mark instead
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", "pass"], run.child_env())
    assert os.wait4(pid, 0)[2].ru_maxrss > len(ballast) // 1024


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = bench("--workload", "small_verify", "--seed", "1", "--seconds", "1", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
