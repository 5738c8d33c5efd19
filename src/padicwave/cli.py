"""Command-line front end.

Subcommands:

* ``solve``        evolve initial data and write per-time CSV slices
* ``kernel-table`` tabulate the propagation kernel, closed form vs oracle
* ``eigen-check``  verify the eigenvalue relation for one parameter combo
* ``verify``       run the full acceptance suite

Exit codes: 0 success, 1 verification failure, 2 configuration problem
(including data that violates the zero-mean requirement), 3 grid cap
exceeded, 4 refusal because the operator orders are incompatible.

All CSV and JSON output is deterministic: fixed row order, floats printed
with 17 significant digits, exact rationals carried alongside as separate
numerator/denominator strings.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from .errors import (
    ConfigError,
    GridCapError,
    PadicWaveError,
    SpectralCompatibilityError,
)
from .functions import (
    RATIONAL,
    CosetFunction,
    embed_radial,
    load_coset_function,
)
from .lattice import grid_cap
from .padic import PrimeContext
from .solver import (
    WaveProblem,
    auto_time_sweep,
    eigenfunction,
    kernel_closed_form,
    kernel_oracle,
    l1_bound_check,
    solve_averaging,
    time_profile,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_GRID_CAP = 3
EXIT_REFUSED = 4

# the largest numbers built-in data and time-profile weights may hold, in bits:
# a CSV value is also written as a float, a complex profile weighs its labels
# by floats p**L, and a float overflows past 2**1024
BUILTIN_BITS = 1000
# a slice is written to slice_L{L}.csv, and a file name holds at most 255 bytes
LABEL_DIGITS = 255 - len("slice_L.csv")


def _parse_number(text):
    """int, 'a/b' Fraction, or finite float, in that preference order."""
    s = str(text).strip()
    try:
        return int(s)
    except ValueError:
        pass
    try:
        value = Fraction(s) if "/" in s else float(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{text!r} is not a number") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{text!r} is not a finite number")
    return value


def _parsed(key: str, parse, raw):
    """parse(raw), with a failure reported as a ConfigError naming the key."""
    try:
        return parse(raw)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"{key}: cannot read {raw!r}") from exc


def _integer(raw) -> int:
    """int(raw) for an integer, an integral float or an integer string.

    A boolean or a fractional number is refused rather than truncated.
    """
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise TypeError(f"expected an integer, got {raw!r}")
    return int(raw)


def _list_of(kind):
    """A parser for a JSON list whose items all convert with kind."""

    def parse(raw) -> list:
        if not isinstance(raw, list):
            raise TypeError(f"expected a list, got {raw!r}")
        return [kind(item) for item in raw]

    return parse


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _exact_columns(num: int, den: int) -> tuple:
    """(re, im, num, den) for num/den; int true division rounds as float(Fraction) does."""
    g = math.gcd(num, den)
    return (_fmt_float(num / den), "0", str(num // g), str(den // g))


def _complex_columns(c: complex) -> tuple:
    return (_fmt_float(c.real), _fmt_float(c.imag), "", "")


class RunConfig:
    """Parsed configuration for ``solve`` (and tolerance plumbing for the rest)."""

    def __init__(self, doc: dict):
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        known = {
            "p", "n", "alpha", "beta", "K", "u0_spec", "sweep",
            "output", "tolerances", "profile_points", "seed",
        }
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        self.p = _parsed("p", _integer, doc.get("p", 2))
        self.n = _parsed("n", _integer, doc.get("n", 1))
        self.alpha = _parse_number(doc.get("alpha", 1))
        self.beta = _parse_number(doc["beta"]) if "beta" in doc else None
        self.K = _parsed("K", _integer, doc.get("K", 1))
        self.u0_spec = str(doc.get("u0_spec", "sphere-indicator 1"))
        self.sweep = doc.get("sweep", "auto")
        if self.sweep != "auto":
            self.sweep = _parsed("sweep", _list_of(_integer), self.sweep)
        self.output = str(doc.get("output", "padicwave-out"))
        tols = doc.get("tolerances", {})
        if not isinstance(tols, dict):
            raise ConfigError("tolerances must be an object")
        self.tol_duality = _parsed("tolerances.duality", float, tols.get("duality", 1e-9))
        self.tol_eigen = _parsed("tolerances.eigen", float, tols.get("eigen", 1e-10))
        self.tol_dependence = _parsed(
            "tolerances.dependence", float, tols.get("dependence", 1e-12)
        )
        self.profile_points = _parsed(
            "profile_points", _list_of(str), doc.get("profile_points", [])
        )
        self.seed = _parsed("seed", _integer, doc.get("seed", 20260819))
        _check_dimension(self.n)


def _check_dimension(n: int) -> None:
    if n < 1:
        raise ConfigError(f"the dimension n must be at least 1, got {n}")


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig({})
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # not JSON, not UTF-8, or an integer past the int-to-str limit
        raise ConfigError(f"config {path} cannot be read as JSON: {exc}") from exc
    return RunConfig(doc)


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    if getattr(args, "p", None) is not None:
        cfg.p = args.p
    if getattr(args, "n", None) is not None:
        _check_dimension(args.n)
        cfg.n = args.n
    if getattr(args, "alpha", None) is not None:
        cfg.alpha = _parse_number(args.alpha)
    if getattr(args, "K", None) is not None:
        cfg.K = args.K
    if getattr(args, "sweep", None) is not None:
        cfg.sweep = (
            "auto"
            if args.sweep == "auto"
            else _parsed("--sweep", _list_of(int), [s for s in args.sweep.split(",") if s.strip()])
        )
    if getattr(args, "out", None) is not None:
        cfg.output = args.out
    if getattr(args, "tol_duality", None) is not None:
        cfg.tol_duality = args.tol_duality
    if getattr(args, "tol_eigen", None) is not None:
        cfg.tol_eigen = args.tol_eigen
    if getattr(args, "tol_dependence", None) is not None:
        cfg.tol_dependence = args.tol_dependence
    return cfg


def _build_u0(cfg: RunConfig, ctx: PrimeContext) -> CosetFunction:
    """Initial data from the u0_spec config string.

    ``sphere-indicator N``: data whose Fourier transform is the indicator
    of the frequency sphere |xi| = p**N (so each time slice is the data
    times one multiplier value).  ``eigen N C``: the canonical radial
    eigenfunction of the spatial operator, scaled by C.  Anything else is
    read as a path to a saved coset-table JSON file.
    """
    parts = cfg.u0_spec.split()
    if parts and parts[0] == "sphere-indicator":
        if len(parts) != 2:
            raise ConfigError("usage: u0_spec = 'sphere-indicator N'")
        return _builtin_u0(cfg, ctx, parts[1], 1, 1)
    if parts and parts[0] == "eigen":
        if len(parts) != 3:
            raise ConfigError("usage: u0_spec = 'eigen N C'")
        return _builtin_u0(cfg, ctx, parts[1], cfg.K, _parse_number(parts[2]))
    path = Path(cfg.u0_spec)
    if not path.exists():
        raise ConfigError(f"u0_spec {cfg.u0_spec!r} is neither a builtin nor a file")
    try:
        f = load_coset_function(path)
    except OSError as exc:
        raise ConfigError(f"cannot read u0_spec {cfg.u0_spec!r}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"u0_spec {cfg.u0_spec!r} is not a JSON table: {exc}") from exc
    if f.ctx.p != cfg.p or f.n != cfg.n:
        raise ConfigError(
            f"table at {path} is for p={f.ctx.p} n={f.n}, config says p={cfg.p} n={cfg.n}"
        )
    return f


def _builtin_u0(cfg: RunConfig, ctx: PrimeContext, N_text: str, K: int, C) -> CosetFunction:
    """The eigenfunction datum of exponent N on its grid, refused before it is
    built when its values or coordinates would not fit a CSV cell.

    Its values are C times powers of p up to p**((|K*N| + 1) * n) and its
    coordinates powers up to p**(|K*N| + 2); each is written as a float,
    which holds about 2**1024, and as an exact fraction.
    """
    N = _parsed("u0_spec", int, N_text)
    bits = (abs(K * N) + 2) * cfg.n * math.log2(ctx.p)
    if not isinstance(C, float):  # an int or a Fraction
        bits += max(C.numerator.bit_length(), C.denominator.bit_length())
    if bits > BUILTIN_BITS:
        raise ConfigError(
            f"u0_spec {cfg.u0_spec!r} needs numbers of about {bits:.0f} bits, "
            f"above the {BUILTIN_BITS} bits a CSV value can hold"
        )
    r = eigenfunction(N, C, K, ctx, cfg.n)
    return embed_radial(r, -K * N + 2, K * N + 1, cfg.n)


def _build_problem(cfg: RunConfig) -> WaveProblem:
    ctx = PrimeContext(cfg.p)
    u0 = _build_u0(cfg, ctx)
    if cfg.beta is not None:
        return WaveProblem.from_alpha_beta(ctx, cfg.n, cfg.alpha, cfg.beta, u0)
    return WaveProblem(ctx=ctx, n=cfg.n, alpha=cfg.alpha, K=cfg.K, u0=u0)


def _write_slice_csv(path: Path, field: CosetFunction) -> None:
    """One row per coset, in grid order: its coordinates and its value.

    Each of the p**(M + ell) distinct coordinate strings is rendered once.
    """
    if field.kind == RATIONAL:
        columns = (_exact_columns(num, field.den) for num in field.cells)
    else:
        columns = map(_complex_columns, field.complex_values())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([f"x{i}" for i in range(field.n)] + ["re", "im", "num", "den"])
        for xs, cols in zip(field.grid.coordinates(str), columns):
            w.writerow(xs + cols)


def _write_profile_csv(path: Path, profile) -> None:
    def columns(v) -> list:
        return _exact_columns(*v.as_integer_ratio()) if profile.exact else _complex_columns(v)

    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["kind", "t_exp", "re", "im", "num", "den"])
        w.writerow(("core", "") + columns(profile.core_value))
        for offset, v in enumerate(profile.shells):
            w.writerow(("shell", str(profile.shell_lo + offset)) + columns(v))


def _digits(L: int) -> int:
    """About how many decimal digits |L| has, without building str(L)."""
    return int(abs(L).bit_length() * math.log10(2)) + 1


def _time_labels(prob: WaveProblem, cfg: RunConfig) -> list:
    """The labels to write, refused before anything is written when a slice
    file name would pass 255 bytes or a time profile would weigh its labels
    by p**L past BUILTIN_BITS (exit 2), or when the auto sweep, the range of
    K*(N_max - N_min) + 4 labels, holds more than the grid cap allows cosets
    (exit 3).  The auto sweep is judged on its ends and length."""
    auto = auto_time_sweep(prob)
    sweep = auto if cfg.sweep == "auto" else cfg.sweep
    ends = (auto[0], auto[-1]) if sweep is auto else (min(sweep, default=0), max(sweep, default=0))
    for L in ends:  # str(L) holds the digits of |L|, and a sign when L < 0
        if abs(L) >= 10 ** (LABEL_DIGITS - (L < 0)):
            raise ConfigError(
                f"a time label of about {_digits(L)} digits would name a slice file "
                "longer than the 255 bytes a file name can hold")
    # a profile weighs label L of the auto sweep by p**L, from auto.start - 1 on
    top = max(abs(auto.start - 1), abs(auto.stop - 1))
    if cfg.profile_points and top > BUILTIN_BITS / math.log2(prob.ctx.p):
        raise ConfigError(
            f"a time profile would weigh its labels by p**L with |L| of about {_digits(top)} "
            f"digits, past the {BUILTIN_BITS} bits a float can hold")
    count = auto.stop - auto.start  # len() of a range holds only a machine-size count
    if sweep is auto and count > grid_cap():
        raise GridCapError(f"the auto time sweep would hold K*(N_max - N_min) + 4 = {count} "
                           f"labels, above the cap {grid_cap()}")
    return list(sweep)


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(_load_config(args.config), args)
    prob = _build_problem(cfg)
    sweep = _time_labels(prob, cfg)
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    _write_slice_csv(out / "u0.csv", prob.u0)
    l1_ratios = {}
    bound = None
    for L in sweep:
        sl = solve_averaging(prob, L)
        _write_slice_csv(out / f"slice_L{L}.csv", sl.field)
        rep = l1_bound_check(prob, L, sl)
        l1_ratios[str(L)] = rep.ratio
        bound = rep.bound
    profiles = []
    for i, text in enumerate(cfg.profile_points):
        x = tuple(_parse_number(s) for s in text.split(","))
        if len(x) != prob.n:
            raise ConfigError(f"profile point {text!r} has {len(x)} coordinates, need {prob.n}")
        profile = time_profile(prob, x)
        name = f"profile_{i}.csv"
        _write_profile_csv(out / name, profile)
        profiles.append({"point": text, "file": name})
    summary = {
        "p": prob.ctx.p,
        "n": prob.n,
        "alpha": str(prob.alpha),
        "K": prob.K,
        "beta": str(prob.beta),
        "u0_spec": cfg.u0_spec,
        "sweep": sweep,
        "u0_in_zero_mean_class": True,  # WaveProblem refuses data outside Phi
        "u0_l1_norm": _fmt_float(float(prob.u0_l1)),
        "l1_ratio_by_L": {k: _fmt_float(v) for k, v in sorted(l1_ratios.items())},
        "l1_bound": _fmt_float(bound) if bound is not None else None,
        "profiles": profiles,
    }
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(sweep)} slices to {out}")
    return EXIT_OK


def cmd_kernel_table(args: argparse.Namespace) -> int:
    for name, lo, hi in (("L", args.L_min, args.L_max), ("M", args.M_min, args.M_max)):
        if not (-12 <= lo <= hi <= 12):
            raise ConfigError(f"{name} range [{lo}, {hi}] must sit inside [-12, 12]")
    ctx = PrimeContext(args.p)
    out = Path(args.out or "kernel-table.csv")
    if out.is_dir():
        out = out / "kernel-table.csv"
    mismatches = 0
    with open(out, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(
            ["p", "n", "K", "L", "M",
             "closed_num", "closed_den", "oracle_num", "oracle_den", "equal"]
        )
        for L in range(args.L_min, args.L_max + 1):
            for M in range(args.M_min, args.M_max + 1):
                closed = kernel_closed_form(args.K, args.n, L, M, ctx, bracket=args.bracket)
                oracle = kernel_oracle(args.K, args.n, L, M, ctx)
                equal = closed == oracle
                mismatches += 0 if equal else 1
                w.writerow(
                    [args.p, args.n, args.K, L, M,
                     closed.numerator, closed.denominator,
                     oracle.numerator, oracle.denominator,
                     "true" if equal else "false"]
                )
    print(f"wrote {out} ({mismatches} mismatching rows)")
    return EXIT_OK if mismatches == 0 else EXIT_VERIFY_FAILED


def cmd_eigen_check(args: argparse.Namespace) -> int:
    from .vladimirov import OperatorParams, apply_hypersingular_field, apply_spectral

    ctx = PrimeContext(args.p)
    alpha = _parse_number(args.alpha)
    r = eigenfunction(args.N, _parse_number(args.C), args.K, ctx, args.n)
    f = embed_radial(r, -args.K * args.N + 1, args.K * args.N, args.n)
    params = OperatorParams(ctx=ctx, n=args.n, alpha=alpha)
    lam = params.power_of_p(args.K * args.N)
    worst = 0.0
    for got in (apply_spectral(params, f), apply_hypersingular_field(params, f)):
        for v, w in zip(got.complex_values(), f.complex_values()):
            ref = w * complex(float(lam))
            err = abs(v - ref)
            worst = max(worst, err / max(abs(ref), 1e-30))
    tol = args.tol_eigen if args.tol_eigen is not None else 1e-10
    ok = worst <= tol
    print(
        f"eigen-check p={args.p} n={args.n} K={args.K} N={args.N} alpha={alpha}: "
        f"eigenvalue exponent {args.K * args.N} * alpha, worst relative error "
        f"{worst:.3e} ({'ok' if ok else 'FAIL'})"
    )
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def run_all(**kwargs):
    """Run the acceptance suite; it is imported here so other commands never load it."""
    from .acceptance import run_all as run_suite

    return run_suite(**kwargs)


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(_load_config(args.config), args)
    results = run_all(
        bracket=args.inject_bracket,
        seed=cfg.seed,
        tol_duality=cfg.tol_duality,
        tol_eigen=cfg.tol_eigen,
        tol_dependence=cfg.tol_dependence,
    )
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  {r.detail}")
    failures = [r for r in results if not r.passed]
    if failures:
        first = failures[0]
        print(f"FAILED: {first.name}: {first.detail}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicwave",
        description="p-adic Fourier analysis, fractional operators, and "
        "pseudo-differential evolution on coset grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="evolve initial data, write CSV slices")
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--out", help="output directory")
    sp.add_argument("--p", type=int, help="prime")
    sp.add_argument("--n", type=int, help="dimension")
    sp.add_argument("--alpha", help="temporal operator order (int, a/b, or float)")
    sp.add_argument("--K", type=int, help="spatial order as a multiple of alpha")
    sp.add_argument("--sweep", help="'auto' or comma-separated time exponents")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("kernel-table", help="tabulate the kernel, closed form vs oracle")
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--K", type=int, default=1)
    sp.add_argument("--L-min", dest="L_min", type=int, default=-4)
    sp.add_argument("--L-max", dest="L_max", type=int, default=4)
    sp.add_argument("--M-min", dest="M_min", type=int, default=-4)
    sp.add_argument("--M-max", dest="M_max", type=int, default=4)
    sp.add_argument("--bracket", choices=("ceil", "floor"), default="ceil",
                    help="mutation-testing hook; 'floor' is the known-wrong variant")
    sp.add_argument("--out", help="output CSV path or directory")
    sp.set_defaults(func=cmd_kernel_table)

    sp = sub.add_parser("eigen-check", help="verify the eigenvalue relation once")
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--K", type=int, default=1)
    sp.add_argument("--N", type=int, default=1)
    sp.add_argument("--alpha", default="1")
    sp.add_argument("--C", default="1")
    sp.add_argument("--tol-eigen", dest="tol_eigen", type=float)
    sp.set_defaults(func=cmd_eigen_check)

    sp = sub.add_parser("verify", help="run the acceptance suite")
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--tol-duality", dest="tol_duality", type=float,
                    help="override the 1e-9 duality bar")
    sp.add_argument("--tol-eigen", dest="tol_eigen", type=float,
                    help="override the 1e-10 eigen/round-trip bar")
    sp.add_argument("--tol-dependence", dest="tol_dependence", type=float,
                    help="override the 1e-12 support-leak bar")
    sp.add_argument("--inject-bracket", choices=("ceil", "floor"), default="ceil",
                    help="mutation-testing hook: 'floor' must make the suite fail")
    sp.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GridCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GRID_CAP
    except SpectralCompatibilityError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except PadicWaveError as exc:  # a bad config, or data outside the zero-mean class
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
