"""Tests of the benchmark itself:  python3 -m pytest bench"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
import workloads

sys.path.insert(0, str(run.SRC))  # the gates import padicwave

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(tmp_path, workload):
    workloads.generate(workload, 7, tmp_path / "a")
    workloads.generate(workload, 7, tmp_path / "b")
    workloads.generate(workload, 8, tmp_path / "c")
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert a != c


def _benchmark_names() -> tuple[dict, dict]:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in doc["end_to_end"]},
        {m["name"]: m["unit"] for m in doc["per_layer"]},
    )


def _fake_pass(jobs, extra: float = 0.0) -> run.Pass:
    runs = [run.JobRun(workloads.REFERENCE, Path("."), seconds=0.25 + extra, cpu=0.2 + extra)]
    runs += [
        run.JobRun(job, Path("."), seconds=0.5 + i + extra, cpu=0.4 + i + extra)
        for i, job in enumerate(jobs)
    ]
    return run.Pass(wall=10.0, runs=runs)


def test_printed_metric_names_are_the_benchmark_json_names(tmp_path):
    end_to_end, per_layer = _benchmark_names()
    jobs = workloads.generate("solve-table", 1, tmp_path)
    e2e = run.end_to_end_metrics([0.1, 0.2], [_fake_pass(jobs)])
    layers = run.per_layer_metrics(_fake_pass(jobs), _fake_pass(jobs), 2**20, 12)
    assert set(e2e) == set(end_to_end)
    assert set(layers) == set(per_layer) == set(run.PER_LAYER)
    for name in [*end_to_end, *per_layer]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert end_to_end["setup_s"] == "s"


def test_every_span_metric_names_an_installed_wrapper():
    probe = (
        "import json, padicwave.fourier as f, padicwave.solver as s\n"
        "from spans import Tracer\n"
        "t = Tracer('probe'); t.install()\n"
        "assert s.inverse is f.inverse and hasattr(f.inverse, '__wrapped__')\n"
        "print(json.dumps(sorted(set(t.name_ids) | set(t.counts))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], cwd=run.BENCH, env=run.CHILD_ENV,
        capture_output=True, text=True, check=True,
    ).stdout
    installed = set(json.loads(out))
    for metric in run.SPAN_METRICS:
        assert metric.rsplit(".", 1)[0] in installed, metric


def _run_small_job(tmp_path, workload: str, job_id: str):
    runner = run.Runner(tmp_path / "inputs", started=run.time.perf_counter())
    jobs = {j.id: j for j in workloads.generate(workload, 3, tmp_path / "inputs")}
    return runner, runner.run(jobs[job_id], tmp_path / "out")


@pytest.mark.parametrize("workload,job_id", [
    ("solve-radial", "radial-p2-n1-K1-eigen"),
    ("solve-table", "table-p2-n2-M1-ell1"),
])
@pytest.mark.parametrize("column", [-4, -2], ids=["re", "num"])
def test_a_corrupted_slice_cell_is_a_failure(tmp_path, workload, job_id, column):
    runner, clean = _run_small_job(tmp_path, workload, job_id)
    runner.check([clean])
    assert (runner.attempted, runner.failed) == (1, 0)

    runner, bad = _run_small_job(tmp_path / "again", workload, job_id)
    path = sorted(bad.out.glob("slice_L*.csv"))[0]
    rows = path.read_text(encoding="utf-8").splitlines()
    cells = rows[1].split(",")
    cells[column] = str(int(float(cells[column])) + 1)  # first row's re or num
    rows[1] = ",".join(cells)
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    runner.check([bad])
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "expected value" in bad.error


def test_stale_slices_and_changed_repeats_are_failures(tmp_path):
    runner, first = _run_small_job(tmp_path, "solve-radial", "radial-p2-n1-K1-sphere-indicator")
    (first.out / "slice_L99.csv").write_text("x0,re,im,num,den\n", encoding="utf-8")
    runner.check([first])
    assert runner.failed == 1 and "sweep" in first.error

    runner, first = _run_small_job(tmp_path / "b", "solve-radial", "radial-p2-n1-K1-sphere-indicator")
    runner.check([first])
    repeat = runner.run(first.job, tmp_path / "b" / "repeat")
    (repeat.out / "u0.csv").write_text("changed\n", encoding="utf-8")
    runner.check([repeat])
    assert (runner.attempted, runner.failed) == (2, 1)
    assert "first pass" in repeat.error


def test_each_job_counts_with_its_fastest_run_over_the_reference(tmp_path):
    jobs = workloads.generate("solve-table", 1, tmp_path)
    slow, fast = _fake_pass(jobs, extra=2.0), _fake_pass(jobs)
    fast.runs[1].seconds += 5.0  # one slow run of the first job in the fast pass
    e2e = run.end_to_end_metrics([0.1], [slow, fast])
    best = [0.5 + i for i in range(len(jobs))]
    best[0] = 2.5
    assert e2e["wall_ref"] == (pytest.approx(sum(best) / 0.25), 2 * len(jobs))
    assert e2e["cpu_ref"][0] == pytest.approx(sum(0.4 + i for i in range(len(jobs))) / 0.2)
    big = [b for b, job in zip(best, jobs) if job.big]
    assert len(big) == 1 and e2e["big_job_ref"] == (pytest.approx(big[0] / 0.25), 2)


def test_the_reference_gate_checks_its_rows(tmp_path):
    path = tmp_path / "reference.csv"
    reference.write(str(path))
    assert reference.gate(path) is None
    path.write_text(path.read_text(encoding="utf-8").replace("1", "2", 1), encoding="utf-8")
    assert reference.gate(path) is not None


def test_verify_runs_every_check(tmp_path):
    from padicwave import acceptance

    checks = {name[len("check_"):] for name in dir(acceptance) if name.startswith("check_")}
    assert len(checks) == workloads.VERIFY_CHECKS
    timed, untimed = set(workloads.TIMED_CHECKS), set(workloads.TRACED_ONLY_CHECKS)
    assert timed | untimed == checks and not timed & untimed
    jobs = workloads.generate("verify", 1, tmp_path / "timed")
    assert [j.big for j in jobs].count(True) == 1
    [full] = workloads.generate("verify", 1, tmp_path / "traced", traced=True)
    assert full.argv(tmp_path)[0] == "verify"


def test_a_failed_check_is_a_failure():
    assert workloads._gate_check("uniqueness  PASS  unique\n") is None
    assert workloads._gate_check("uniqueness  FAIL  two solutions\n") is not None
    assert workloads._gate_check("") is not None


def test_spec_records_the_rungs_units_and_layer_map(tmp_path):
    spec = json.loads((run.BENCH / "spec.json").read_text(encoding="utf-8"))
    for workload in workloads.WORKLOADS:
        jobs = workloads.generate(workload, 1, tmp_path / workload)
        recorded = spec["workloads"][workload]["jobs"]
        assert recorded == {j.id: list(j.rung) if j.rung else None for j in jobs}
        traced = workloads.generate(workload, 1, tmp_path / "traced" / workload, traced=True)
        recorded = spec["workloads"][workload].get("traced_jobs", recorded)
        assert recorded == {j.id: list(j.rung) if j.rung else None for j in traced}
    end_to_end, per_layer = _benchmark_names()
    assert spec["metrics"] == {**end_to_end, **per_layer}
    mapped = [m for group in spec["layer_map"] for m in group["metrics"]]
    assert sorted(mapped) == sorted(run.PER_LAYER)
