"""padicwave benchmark: run one workload end to end, or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package under test is ``src/padicwave`` in the parent directory of
this one; the benchmark keeps its files under ``.bench_work/`` there and
removes them when it ends.  Workloads, their inputs and their correctness
gates are in workloads.py.  Each workload is a closed loop with one
client: one child process per job, each started after the previous one has
ended, so grid caches start cold as they do for a CLI user.

--trace 0 sets up the workload (input generation plus one untimed warm-up
child that compiles the bytecode), then runs the reference program
(reference.py) and the whole job list in passes until the next pass would
overrun --seconds (the first pass always runs), setting up once more after
each pass, and at least SETUP_REPEATS times in all; setup_s is the median
set-up time.  On a shared host, other tenants slow every process by up to
half, for seconds to minutes at a time, and sometimes for a whole run.
That only ever adds time, so each job's time is its fastest run of the
invocation; and it slows the reference program as much as the jobs, so
the timed metrics are those fastest runs divided by the reference's
fastest run, in units "ref": wall_ref and cpu_ref for the whole job list
(cpu over the reference's cpu time), job_ref.p50 for the median job and
big_job_ref for the workload's largest jobs.  A change to padicwave moves
them in proportion, and the host's speed does not.  peak_rss_mib is the
largest ru_maxrss of any child.  Every pass's wall time and every job's
fastest and median run are printed in seconds too.

--trace 1 runs one untraced pass, one pass with the span wrappers of
spans.py installed in every child, and, except on verify, the workload's
largest job once more under tracemalloc (about 4x slower, so one job only).
On verify the traced run's job list is the full 'padicwave verify', not the
timed run's short checks.

Every job's output is checked outside the timed region: its first pass
against an independent route (see workloads.py), every later pass against
the first pass's digest.  Once per invocation, untimed, the kernel oracle
must still reject the known-wrong floor bracket.  The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 8
JOB_LIMIT_S = 100.0
# the whole invocation must end within 180 s; no job starts after this
DEADLINE_S = 160.0
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))

# span summaries are read as "<span name>.<calls|s|self_s>"
SPAN_METRICS = (
    "fourier.forward.calls", "fourier.forward.self_s",
    "fourier.inverse.calls", "fourier.inverse.self_s",
    "phases.PhaseSum.as_rational.calls", "phases.PhaseSum.as_rational.self_s",
    "solver.spectral_data.s", "solver.solve_spectral.calls", "solver.solve_spectral.self_s",
    "solver.auto_time_sweep.self_s", "solver.l1_bound_check.self_s",
    "solver.solve_convolution.s",
    "vladimirov.apply_spectral.self_s", "vladimirov.apply_hypersingular_field.s",
    "vladimirov.apply_hypersingular.calls",
    "lattice.enumerate_cosets.calls", "lattice.enumerate_cosets.self_s",
    "lattice.sphere_representatives.self_s",
    "functions.CosetFunction.calls", "functions.CosetFunction.self_s",
    "functions.load_coset_function.self_s", "functions.l1_norm.self_s",
    "functions.is_in_Phi.self_s",
    "acceptance.check_integration_formulas.s", "acceptance.check_fourier_round_trip.s",
    "acceptance.check_eigenrelation.s", "acceptance.check_operator_duality.s",
    "acceptance.check_kernel_identity.s", "acceptance.check_solver_duality.s",
    "acceptance.check_time_pde.s", "acceptance.check_finite_dependence.s",
    "acceptance.check_l1_bound.s", "acceptance.check_uniqueness.s",
    "acceptance.check_refusal.s",
    "padic.fractional_part.calls",
    "cli.main.self_s",
)
DERIVED_METRICS = (
    "fourier.pairs", "fourier.exact_out_ratio", "phases.irrational_ratio",
    "lattice.cosets", "cli.output_bytes", "mem.peak_heap_mib",
    "exact.max_den_bits", "trace.overhead_ratio",
)
PER_LAYER = SPAN_METRICS + DERIVED_METRICS


@dataclass
class JobRun:
    job: workloads.Job
    out: Path
    seconds: float = 0.0
    cpu: float = 0.0  # user + system time of the child
    stdout: str = ""
    error: str | None = None
    report: dict = field(default_factory=dict)  # trace or heap file contents


@dataclass
class Pass:
    wall: float
    runs: list


def run_child(cmd, limit: float, **kwargs):
    """Run cmd to its end; (returncode, stdout, stderr, timed_out).

    subprocess.run(timeout=...) polls for the child's exit with sleeps of
    up to 50 ms, which would quantise every job time.  A timer thread kills
    the child at the limit instead, and the wait itself blocks.
    """
    with subprocess.Popen(cmd, **kwargs) as proc:
        fired = threading.Event()

        def kill():
            fired.set()
            proc.kill()

        timer = threading.Timer(limit, kill)
        timer.start()
        try:
            stdout, stderr = proc.communicate()
        finally:
            timer.cancel()
    return proc.returncode, stdout, stderr, fired.is_set()


class Runner:
    """Starts one child per job, strictly one after another."""

    def __init__(self, inputs: Path, started: float):
        self.inputs = inputs
        self.deadline = started + DEADLINE_S
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def warm_up(self) -> None:
        code, _, stderr, _ = run_child(
            [sys.executable, "-c", "import padicwave.cli"], JOB_LIMIT_S,
            env=CHILD_ENV, cwd=self.inputs, stderr=subprocess.PIPE, text=True,
        )
        if code != 0:
            raise RuntimeError(f"warm-up child failed: {stderr.strip()}")

    def run(self, job: workloads.Job, out: Path, mode: str | None = None) -> JobRun:
        run = JobRun(job, out)
        out.mkdir(parents=True)
        cmd = [sys.executable, str(BENCH / "child.py"), "--job", job.id]
        if mode:
            report = out.parent / f"{job.id}.{mode}.json"
            cmd += [f"--{mode}", str(report)]
        cmd += [job.kind, *job.argv(out)]
        limit = min(JOB_LIMIT_S, self.deadline - time.perf_counter())
        if limit <= 0:
            run.error = "not started: the benchmark's time limit was reached"
            return run
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        code, run.stdout, stderr, timed_out = run_child(
            cmd, limit, env=CHILD_ENV, cwd=self.inputs,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        run.seconds = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        run.cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        if timed_out:
            run.error = f"time limit of {limit:.0f} s exceeded"
        elif code != 0:
            tail = stderr.strip().splitlines()[-1:] or [""]
            run.error = f"exit code {code}: {tail[0]}"
        elif mode:
            run.report = json.loads(report.read_text(encoding="utf-8"))
        return run

    def run_pass(self, jobs, pass_dir: Path, mode: str | None = None) -> Pass:
        t0 = time.perf_counter()
        runs = [self.run(job, pass_dir / job.id, mode) for job in jobs]
        wall = time.perf_counter() - t0
        return Pass(wall, runs)

    def check(self, runs) -> None:
        """Gate first outputs, compare repeats with them; count failures."""
        for run in runs:
            self.attempted += 1
            if run.error is None:
                digest = _digest(run)
                first = self.digests.get(run.job.id)
                if first is None:
                    try:
                        run.error = run.job.gate(run.out, run.stdout)
                    except Exception as exc:  # a crashing gate is a failed job
                        run.error = f"gate raised {type(exc).__name__}: {exc}"
                    if run.error is None:
                        self.digests[run.job.id] = digest
                elif digest != first:
                    run.error = "output differs from the job's first pass"
            if run.error is not None:
                self.failed += 1
                print(f"FAIL {run.job.id}: {run.error}", file=sys.stderr)


def _digest(run: JobRun) -> str:
    h = hashlib.sha256()
    if run.job.stdout_is_output:
        h.update(run.stdout.encode())
    for path in sorted(run.out.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(run.out).as_posix().encode() + b"\0")
            h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def _output_bytes(runs) -> int:
    """Bytes the jobs wrote: their files, and stdout where it is the result."""
    total = 0
    for run in runs:
        if run.job.stdout_is_output:
            total += len(run.stdout.encode())
        total += sum(p.stat().st_size for p in run.out.rglob("*") if p.is_file())
    return total


def mutation_sanity() -> str | None:
    """The kernel check must catch the known-wrong bracket and pass the right one."""
    from padicwave import acceptance

    if acceptance.check_kernel_identity("floor").passed:
        return "check_kernel_identity('floor') passed: the oracle is blind"
    if not acceptance.check_kernel_identity("ceil").passed:
        return "check_kernel_identity('ceil') failed"
    return None


def fastest_runs(passes) -> tuple[dict, dict]:
    """Job id -> its fastest wall time, and job id -> its fastest cpu time."""
    wall: dict[str, float] = {}
    cpu: dict[str, float] = {}
    for r in (r for p in passes for r in p.runs):
        wall[r.job.id] = min(wall.get(r.job.id, r.seconds), r.seconds)
        cpu[r.job.id] = min(cpu.get(r.job.id, r.cpu), r.cpu)
    return wall, cpu


def end_to_end_metrics(setups, passes) -> dict:
    """Metric name -> (value, sample count).

    A job's time is its fastest run; the *_ref metrics divide it by the
    reference program's fastest run in the same passes.
    """
    wall, cpu = fastest_runs(passes)
    ref = workloads.REFERENCE.id
    ref_wall, ref_cpu = wall.pop(ref), cpu.pop(ref)
    runs = [r for p in passes for r in p.runs if r.job.id != ref]
    big = {r.job.id for r in runs if r.job.big}
    rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_ref": (sum(wall.values()) / ref_wall, len(runs)),
        "cpu_ref": (sum(cpu.values()) / ref_cpu, len(runs)),
        "job_ref.p50": (statistics.median(wall.values()) / ref_wall, len(runs)),
        "big_job_ref": (sum(wall[j] for j in big) / ref_wall, sum(r.job.big for r in runs)),
        "peak_rss_mib": (rss_kib / 1024.0, len(runs)),
    }


def per_layer_metrics(untraced: Pass, traced: Pass, heap_bytes, den_bits: int) -> dict:
    """Metric name -> (value, sample count) from one traced pass."""
    stats: dict[str, dict] = {}
    work: dict[str, int] = {}
    for run in traced.runs:
        for name, entry in run.report.get("stats", {}).items():
            acc = stats.setdefault(name, {})
            for key, value in entry.items():
                acc[key] = acc.get(key, 0) + value
        for key, value in run.report.get("work", {}).items():
            work[key] = work.get(key, 0) + value
    jobs = len(traced.runs)
    out = {}
    for metric in SPAN_METRICS:
        span, key = metric.rsplit(".", 1)
        out[metric] = (stats.get(span, {}).get(key, 0), jobs)
    as_rational_calls = stats.get("phases.PhaseSum.as_rational", {}).get("calls", 0)
    exact_outputs = work.get("fourier.exact_outputs", 0)
    out.update({
        "fourier.pairs": (work.get("fourier.pairs", 0), jobs),
        "fourier.exact_out_ratio": (
            work.get("fourier.rational_outputs", 0) / exact_outputs if exact_outputs else 0.0,
            exact_outputs,
        ),
        "phases.irrational_ratio": (
            work.get("phases.as_rational_none", 0) / as_rational_calls
            if as_rational_calls else 0.0,
            as_rational_calls,
        ),
        "lattice.cosets": (work.get("lattice.cosets", 0), jobs),
        "cli.output_bytes": (_output_bytes(untraced.runs), len(untraced.runs)),
        "mem.peak_heap_mib": (
            heap_bytes / 2**20 if heap_bytes is not None else 0.0,
            0 if heap_bytes is None else 1,
        ),
        "exact.max_den_bits": (den_bits, len(untraced.runs)),
        "trace.overhead_ratio": (traced.wall / untraced.wall, 1),
    })
    return out


def _measure(runner: Runner, jobs, work: Path, seconds: float, set_up) -> list:
    passes = []
    while True:
        p = runner.run_pass([workloads.REFERENCE, *jobs], work / f"pass{len(passes)}")
        runner.check(p.runs)
        shutil.rmtree(work / f"pass{len(passes)}")
        passes.append(p)
        # set-up samples spread over the run, so no one slow spell sets them
        set_up()
        typical = statistics.median(q.wall for q in passes)
        if sum(q.wall for q in passes) + typical > seconds:
            return passes
        if time.perf_counter() + typical > runner.deadline:
            return passes


def _trace(runner: Runner, workload: str, jobs, work: Path) -> dict:
    untraced = runner.run_pass(jobs, work / "plain")
    runner.check(untraced.runs)
    den_bits = max((workloads.max_den_bits(r.out) for r in untraced.runs), default=0)
    traced = runner.run_pass(jobs, work / "traced", mode="trace")
    runner.check(traced.runs)
    heap_bytes = None
    if workload != "verify":
        # the largest rung, and within it the job that took longest untraced
        big = max(untraced.runs, key=lambda r: (r.job.rung[-1], r.seconds))
        heap = runner.run(big.job, work / "heap" / big.job.id, mode="heap")
        runner.check([heap])
        if heap.error is None:
            heap_bytes = heap.report["peak_bytes"]
    metrics = per_layer_metrics(untraced, traced, heap_bytes, den_bits)
    top = {}
    for run in traced.runs:
        for name, entry in run.report.get("stats", {}).items():
            top[name] = top.get(name, 0.0) + entry.get("self_s", 0.0)
    print("top self time in the traced pass:")
    for name, self_s in sorted(top.items(), key=lambda kv: -kv[1])[:12]:
        print(f"  {name:<45} {self_s:10.4f} s")
    return metrics


def _units() -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "padicwave" / "__init__.py").is_file():
        print(f"error: no padicwave package under {SRC}", file=sys.stderr)
        return 2
    units = _units()
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        inputs = work / "inputs"
        runner = Runner(inputs, started)

        def set_up():
            t0 = time.perf_counter()
            shutil.rmtree(inputs, ignore_errors=True)
            jobs = workloads.generate(args.workload, args.seed, inputs, traced=bool(args.trace))
            runner.warm_up()
            setups.append(time.perf_counter() - t0)
            return jobs

        setups = []
        jobs = set_up()
        sanity = mutation_sanity()
        if sanity:
            print(f"FAIL mutation sanity: {sanity}", file=sys.stderr)
        if args.trace:
            metrics = _trace(runner, args.workload, jobs, work)
        else:
            passes = _measure(runner, jobs, work, args.seconds, set_up)
            while len(setups) < SETUP_REPEATS:
                set_up()
            metrics = end_to_end_metrics(setups, passes)
            print("pass wall times (s): " + " ".join(f"{q.wall:.3f}" for q in passes))
            wall, _ = fastest_runs(passes)
            for job_id in sorted(wall):
                times = [r.seconds for q in passes for r in q.runs if r.job.id == job_id]
                print(f"  {job_id:<45} fastest {wall[job_id]:8.4f} s  median {statistics.median(times):8.4f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()
    for name, (value, samples) in metrics.items():
        print(f"{args.workload:<13} {name:<42} {value:>14.6g} {units[name]:<6} n={samples}")
    # fail_ratio is 0 on correct code, so it is reported here and through the
    # result's attempted and failed counts rather than as a metric
    print(
        f"{args.workload:<13} failed {runner.failed} of {runner.attempted} jobs, "
        f"fail_ratio {runner.failed / runner.attempted:.6g}"
        + ("" if sanity is None else "; mutation sanity FAILED")
    )
    result = {
        "correct": sanity is None and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, (value, _) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
