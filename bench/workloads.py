"""The benchmark's workloads: seeded inputs, job lists and correctness gates.

``generate(workload, seed, inputs)`` writes the workload's input files under
``inputs`` and returns its jobs in run order; ``traced=True`` gives the job
list of the traced run, which differs only on verify.  The same seed writes the
same bytes.  Each job is run in a fresh child process (child.py), working
in ``inputs`` and writing to a fresh output directory; ``Job.gate`` then
checks that output against an independent route and returns an error
message, or None when it is right.  The gates import padicwave, so the
caller puts the package on sys.path first.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference

WORKLOADS = ("solve-radial", "solve-table", "verify")

# Every job runs several times in one benchmark run, so that its fastest run
# can be taken; the largest rungs are those whose jobs still fit that.
# (p, n, K); every rung runs 'sphere-indicator 1' and 'eigen 1 C'
RADIAL_RUNGS = ((2, 1, 1), (3, 1, 1), (3, 1, 2), (2, 2, 1), (2, 2, 3), (5, 1, 1))
# (p, n, M, ell) of the seeded zero-mean tables
TABLE_RUNGS = ((2, 2, 1, 1), (5, 1, 1, 1), (3, 1, 2, 1), (2, 1, 3, 2))
VERIFY_CHECKS = 11
# The checks of 'padicwave verify' that are timed, one job each, in the
# order it runs them.  On a shared host a job's fastest run is steady only
# when the job is short, so the three checks that take 1 to 20 s run only
# in the traced run's full 'padicwave verify'.
TRACED_ONLY_CHECKS = ("integration_formulas", "fourier_round_trip", "operator_duality")
TIMED_CHECKS = (
    "eigenrelation", "kernel_identity", "solver_duality", "time_pde",
    "finite_dependence", "l1_bound", "uniqueness", "refusal",
)
# the slowest of them, reported as verify's big_job_s
BIG_CHECK = "finite_dependence"


@dataclass
class Job:
    """One child-process run; ``argv(out)`` gives its arguments for a fresh
    output directory, ``gate(out, stdout)`` checks what it left there."""

    id: str
    rung: tuple  # (p, n, M, ell, N)
    kind: str  # "cli", "check" or "ref"
    argv: Callable[[Path], list]
    gate: Callable[[Path, str], "str | None"]
    stdout_is_output: bool = False
    big: bool = False  # one of the jobs whose times make big_job_s


# Timed in every pass beside the jobs; see reference.py.
REFERENCE = Job(
    id="reference",
    rung=(),
    kind="ref",
    argv=lambda out: [str(out / "reference.csv")],
    gate=lambda out, _stdout: reference.gate(out / "reference.csv"),
)


def generate(workload: str, seed: int, inputs: Path, traced: bool = False) -> list[Job]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    inputs.mkdir(parents=True, exist_ok=True)
    rng = random.Random(WORKLOADS.index(workload) * 1_000_003 + seed)
    if workload == "verify":
        jobs = _verify_jobs(seed, inputs, traced)
    else:
        jobs = {"solve-radial": _radial_jobs, "solve-table": _table_jobs}[workload](rng, inputs)
        top = max(job.rung[-1] for job in jobs)
        for job in jobs:
            job.big = job.rung[-1] == top
    # The jobs come in rung order.  Visit them with a stride coprime to their
    # count, so jobs of one size run far apart and a slow spell of the
    # machine rarely hits them all.
    stride = next(s for s in itertools.count(3) if math.gcd(s, len(jobs)) == 1)
    return [jobs[i * stride % len(jobs)] for i in range(len(jobs))]


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _solve_argv(config: Path):
    return lambda out: ["solve", "--config", str(config), "--out", str(out)]


# -- solve-radial ------------------------------------------------------------


def _radial_jobs(rng, inputs):
    jobs = []
    for p, n, K in RADIAL_RUNGS:
        C = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        for spec, M, ell in (("sphere-indicator 1", 1, 2), (f"eigen 1 {C}", 2 - K, K + 1)):
            jobs.append(_radial_job(inputs, p, n, K, M, ell, spec))
    return jobs


def _radial_job(inputs: Path, p: int, n: int, K: int, M: int, ell: int, spec: str) -> Job:
    job_id = f"radial-p{p}-n{n}-K{K}-{spec.split()[0]}"
    config = inputs / f"{job_id}.json"
    _write_json(config, {"p": p, "n": n, "K": K, "u0_spec": spec})
    return Job(
        id=job_id,
        rung=(p, n, M, ell, p ** (n * (M + ell))),
        kind="cli",
        argv=_solve_argv(config),
        gate=lambda out, _stdout: _gate_radial(out, p, n, K, M, ell, spec),
    )


def _radial_u0(pw, p: int, n: int, K: int, spec: str):
    """The radial profile the CLI documents for each built-in u0_spec."""
    ctx = pw.PrimeContext(p)
    parts = spec.split()
    if parts[0] == "sphere-indicator":
        return pw.eigenfunction(int(parts[1]), Fraction(1), 1, ctx, n)
    return pw.eigenfunction(int(parts[1]), Fraction(parts[2]), K, ctx, n)


def _radial_slice(pw, hat, p: int, n: int, K: int, L: int):
    """Damp the radial transform by the multiplier, then invert it radially."""
    b = pw.PropagationMultiplier(pw.PrimeContext(p), K)
    # widen downwards until b = 1 on the whole core ball
    lo = min(hat.shell_lo, math.floor(-L / K) + 1)
    shells = tuple(
        hat.value_at_exponent(N) * b.value(L, N) for N in range(lo, hat.shell_hi + 1)
    )
    return pw.radial_inverse(pw.RadialShellFunction(hat.ctx, hat.core_value, shells, lo), n)


def _gate_radial(out: Path, p: int, n: int, K: int, M: int, ell: int, spec: str):
    import padicwave as pw

    r = _radial_u0(pw, p, n, K, spec)
    # a radial function is even, so its forward transform is its inverse one
    hat = pw.radial_inverse(r, n)
    sweep, err = _read_sweep(out)
    if err:
        return err
    present = [N for N in range(-M + 1, ell + 1) if hat.value_at_exponent(N) != 0]
    want_sweep = (
        list(range(-K * max(present) - 1, -K * min(present) + 3))
        if present else list(range(-K - 1, K + 3))
    )
    if sweep != want_sweep:
        return f"sweep {sweep} but the radial spectrum gives {want_sweep}"
    size = p ** (n * (M + ell))
    err = _compare_csv(out / "u0.csv", n, size, lambda x: r.value_at_exponent(_norm_exp(x, p)))
    if err:
        return err
    for L in sweep:
        prof = _radial_slice(pw, hat, p, n, K, L)
        err = _compare_csv(
            out / f"slice_L{L}.csv", n, size, lambda x: prof.value_at_exponent(_norm_exp(x, p))
        )
        if err:
            return f"L={L}: {err}"
    return None


# -- solve-table -------------------------------------------------------------


def _norm_exp(x, p: int):
    """e with max_j |x_j|_p = p**e, -inf for the zero vector."""
    best = -math.inf
    for q in x:
        if q == 0:
            continue
        v = 0
        num, den = q.numerator, q.denominator
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        best = max(best, -v)
    return best


def table_doc(rng, p: int, n: int, M: int, ell: int) -> dict:
    """A seeded zero-mean rational table that is not radial, in the
    documented coset-table JSON format (digits d_{-M} .. d_{ell-1})."""
    width = M + ell
    one_d = list(itertools.product(range(p), repeat=width))
    cells = list(itertools.product(one_d, repeat=n))
    while True:
        raw = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in cells]
        mean = sum(raw, Fraction(0)) / len(raw)
        values = [v - mean for v in raw]
        by_shell: dict = {}
        for digits, v in zip(cells, values):
            x = tuple(Fraction(sum(d * p**i for i, d in enumerate(ds)), p**M) for ds in digits)
            by_shell.setdefault(_norm_exp(x, p), set()).add(v)
        if any(len(vs) > 1 for vs in by_shell.values()):
            break
    return {
        "p": p, "n": n, "M": M, "ell": ell,
        "values": [
            {"re": str(v), "im": "0", "digits": [list(ds) for ds in digits]}
            for digits, v in zip(cells, values)
        ],
    }


def _table_jobs(rng, inputs):
    jobs = []
    for p, n, M, ell in TABLE_RUNGS:
        job_id = f"table-p{p}-n{n}-M{M}-ell{ell}"
        table = inputs / f"{job_id}-u0.json"
        _write_json(table, table_doc(rng, p, n, M, ell))
        config = inputs / f"{job_id}.json"
        # relative to the inputs directory, the children's working directory
        _write_json(config, {"p": p, "n": n, "K": 1, "u0_spec": table.name})
        jobs.append(Job(
            id=job_id,
            rung=(p, n, M, ell, p ** (n * (M + ell))),
            kind="cli",
            argv=_solve_argv(config),
            gate=lambda out, _stdout, table=table: _gate_table(out, table),
        ))
    return jobs


def _gate_table(out: Path, table: Path):
    import padicwave as pw

    u0 = pw.load_coset_function(table)
    sweep, err = _read_sweep(out)
    if err:
        return err
    if not sweep:
        return "empty sweep"
    want_u0 = dict(u0.items())
    err = _compare_csv(out / "u0.csv", u0.n, len(want_u0), want_u0.get)
    if err:
        return err
    prob = pw.WaveProblem(ctx=u0.ctx, n=u0.n, alpha=1, K=1, u0=u0)
    for L in sweep:
        conv = dict(pw.solve_convolution(prob, L).field.items())
        err = _compare_csv(out / f"slice_L{L}.csv", u0.n, len(conv), conv.get)
        if err:
            return f"L={L}: {err}"
    return None


# -- verify --------------------------------------------------------------------


def _verify_jobs(seed: int, inputs: Path, traced: bool):
    config = inputs / "verify.json"
    _write_json(config, {"seed": seed})
    if traced:
        return [Job(
            id="verify",
            rung=(),
            kind="cli",
            argv=lambda out: ["verify", "--config", str(config)],
            gate=lambda out, stdout: _gate_verify(stdout),
            stdout_is_output=True,
            big=True,
        )]
    return [
        Job(
            id=f"check-{name}",
            rung=(),
            kind="check",
            argv=lambda out, name=name: [name, str(config)],
            gate=lambda out, stdout: _gate_check(stdout),
            stdout_is_output=True,
            big=name == BIG_CHECK,
        )
        for name in TIMED_CHECKS
    ]


_PASS_LINE = re.compile(r"^\S+\s+PASS\s")


def _gate_check(stdout: str):
    lines = stdout.splitlines()
    if len(lines) != 1 or not _PASS_LINE.match(lines[0]):
        return f"expected one PASS line, got {stdout.strip()!r}"
    return None


def _gate_verify(stdout: str):
    lines = stdout.splitlines()
    passed = sum(1 for line in lines if _PASS_LINE.match(line))
    if passed != VERIFY_CHECKS or not lines or lines[-1] != f"all {VERIFY_CHECKS} checks passed":
        return f"{passed} PASS lines, expected {VERIFY_CHECKS}"
    return None


# -- CSV helpers ---------------------------------------------------------------


def _read_sweep(out: Path):
    """The sweep from summary.json, checked against the slice files present."""
    try:
        sweep = json.loads((out / "summary.json").read_text(encoding="utf-8"))["sweep"]
    except (OSError, ValueError, KeyError) as exc:
        return None, f"no usable summary.json: {exc}"
    files = {f.name for f in out.glob("slice_L*.csv")}
    want = {f"slice_L{L}.csv" for L in sweep}
    if files != want:
        return None, f"slice files {sorted(files)} differ from the sweep {sweep}"
    return sweep, None


def _compare_csv(path: Path, n: int, size: int, expected) -> "str | None":
    """The file has one row per coset, and every row's exact num/den and its
    float re/im columns equal expected(representative)."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return f"cannot read {path.name}: {exc}"
    if not rows or rows[0] != [f"x{i}" for i in range(n)] + ["re", "im", "num", "den"]:
        return f"{path.name}: unexpected header"
    if len(rows) - 1 != size or len({tuple(r[:n]) for r in rows[1:]}) != size:
        return f"{path.name}: {len(rows) - 1} rows for {size} cosets"
    for row in rows[1:]:
        try:
            x = tuple(Fraction(c) for c in row[:n])
            re_, im = float(row[n]), float(row[n + 1])
            got = Fraction(int(row[n + 2]), int(row[n + 3]))
        except (ValueError, IndexError, ZeroDivisionError):
            return f"{path.name}: row {row} has no exact value"
        want = expected(x)
        if want is None or got != want or (re_, im) != (float(want), 0.0):
            return f"{path.name}: row {row} does not hold the expected value {want}"
    return None


def max_den_bits(out: Path) -> int:
    """Largest denominator, in bits, of any exact value the job wrote."""
    best = 0
    for path in out.glob("*.csv"):
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                den = row.get("den")
                if den:
                    best = max(best, int(den).bit_length())
    return best
