"""Command-line front end.

Subcommands:

* ``solve``        evolve initial data and write per-time CSV slices
* ``kernel-table`` tabulate the propagation kernel, closed form vs oracle
* ``eigen-check``  verify the eigenvalue relation for one parameter combo, with
  the measure ``verify`` uses (``vladimirov.eigen_error``)
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
import json
import math
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from .errors import (
    ConfigError,
    GridCapError,
    PadicWaveError,
    SpectralCompatibilityError,
)
from .functions import RATIONAL, CosetFunction, load_coset_function
from .lattice import grid_cap
from .padic import PrimeContext
from .solver import (
    EIGEN_TOL,
    WaveProblem,
    auto_time_sweep,
    coupling,
    eigen_table,
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


def _exact_number(text):
    """_parse_number's value, with a decimal read exactly: "0.1" is 1/10, not a float.

    Reading 1eN exactly builds 10**|N|, so an exponent past BUILTIN_BITS is refused.
    """
    value = _parse_number(text)
    if not isinstance(value, float):
        return value
    s = str(text).strip().replace("_", "")  # Fraction reads no underscores before Python 3.11
    exponent = s.lower().partition("e")[2].lstrip("+-").lstrip("0")
    if len(exponent) > len(str(BUILTIN_BITS)) or int(exponent or 0) > BUILTIN_BITS:
        raise ConfigError(f"{text!r} has a decimal exponent past {BUILTIN_BITS}")
    try:
        return Fraction(s)
    except ValueError as exc:  # more digits than an int may be read from
        raise ConfigError(f"{text!r} is not a number") from exc


def _integer(raw) -> int:
    """int(raw) for an integer, an integral float or an integer string.

    A boolean or a fractional number is refused rather than truncated.
    """
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise TypeError(f"expected an integer, got {raw!r}")
    return int(raw)


def _positive(what: str):
    """A parser for an integer setting that must be at least 1; what names it."""

    def parse(raw) -> int:
        value = _integer(raw)
        if value < 1:
            raise ValueError(f"{what} must be at least 1, got {value}")
        return value

    return parse


def _list_of(kind):
    """A parser for a JSON list whose items all convert with kind."""

    def parse(raw) -> list:
        if not isinstance(raw, list):
            raise TypeError(f"expected a list, got {raw!r}")
        return [kind(item) for item in raw]

    return parse


def _sweep(raw):
    """'auto', or distinct integer time labels, each naming its own slice file: a
    JSON list, or comma-separated text as a flag gives."""
    if raw == "auto":
        return raw
    if isinstance(raw, str):
        raw = [s for s in raw.split(",") if s.strip()]
    labels = _list_of(_integer)(raw)
    repeated = [L for L, count in Counter(labels).items() if count > 1]
    if repeated:
        raise ValueError(f"the time label {repeated[0]} appears more than once")
    return labels


# Every setting a command shares: its flag (None when only a config file sets
# it), its parser, its default and its flag's help.  A config value and a flag's
# text go through the same parser; a command takes the flags of the settings it
# reads (see build_parser).
SETTINGS = {
    "p": ("--p", _integer, 2, "prime"),
    "n": ("--n", _positive("the dimension n"), 1, "dimension"),
    "alpha": ("--alpha", _parse_number, 1, "temporal operator order (int, a/b, or float)"),
    "beta": (None, _parse_number, None, None),
    "K": ("--K", _positive("the coupling K"), 1, "spatial order as a multiple of alpha"),
    "u0_spec": (None, str, "sphere-indicator 1", None),
    "sweep": ("--sweep", _sweep, "auto", "'auto' or comma-separated time exponents"),
    "output": ("--out", str, "padicwave-out", "output directory"),
    "profile_points": (None, _list_of(str), (), None),
    "seed": (None, _integer, 20260819, None),
}


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _exact_columns(num: int, den: int) -> str:
    """'re,im,num,den' for num/den; int true division rounds as float(Fraction) does."""
    g = math.gcd(num, den)
    return f"{_fmt_float(num / den)},0,{num // g},{den // g}"


def _complex_columns(c: complex) -> str:
    return f"{_fmt_float(c.real)},{_fmt_float(c.imag)},,"


def _coordinate_text(p: int, M: int):
    """A writer of each digit coordinate a as str(a * p**-M), with one gcd and no Fraction."""
    num, den = (1, p**M) if M > 0 else (p**-M, 1)

    def text(a: int) -> str:
        g = math.gcd(a, den)
        return str(a * num // g) if g == den else f"{a // g}/{den // g}"

    return text


def _read_config(path: str | None) -> dict:
    """The config document at path, each key a setting; {} without one."""
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # not JSON, not UTF-8, or an integer past the int-to-str limit
        raise ConfigError(f"config {path} cannot be read as JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = [k for k in doc if k not in SETTINGS]
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return doc


def _settings(args: argparse.Namespace) -> dict:
    """Each setting from its flag when given, else from the config file, else its default."""
    doc = _read_config(getattr(args, "config", None))
    flags = vars(args)
    cfg = {}
    for key, (flag, parse, default, _) in SETTINGS.items():
        if flags.get(key) is not None:
            source, raw = flag, flags[key]
        elif key in doc:
            source, raw = key, doc[key]
        else:
            cfg[key] = default
            continue
        try:
            cfg[key] = parse(raw)
        except (ConfigError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ConfigError(f"{source}: {exc}") from exc
    return cfg


def _build_u0(cfg: dict, ctx: PrimeContext) -> CosetFunction:
    """Initial data from the u0_spec config string.

    ``sphere-indicator N``: data whose Fourier transform is the indicator
    of the frequency sphere |xi| = p**N (so each time slice is the data
    times one multiplier value).  ``eigen N C``: the canonical radial
    eigenfunction of the spatial operator, scaled by C.  Anything else is
    read as a path to a saved coset-table JSON file.
    """
    spec = cfg["u0_spec"]
    parts = spec.split()
    if parts and parts[0] == "sphere-indicator":
        if len(parts) != 2:
            raise ConfigError("usage: u0_spec = 'sphere-indicator N'")
        return _builtin_u0(cfg, ctx, parts[1], 1, 1)
    if parts and parts[0] == "eigen":
        if len(parts) != 3:
            raise ConfigError("usage: u0_spec = 'eigen N C'")
        return _builtin_u0(cfg, ctx, parts[1], cfg["K"], _parse_number(parts[2]))
    path = Path(spec)
    if not path.exists():
        raise ConfigError(f"u0_spec {spec!r} is neither a builtin nor a file")
    try:
        f = load_coset_function(path)
    except OSError as exc:
        raise ConfigError(f"cannot read u0_spec {spec!r}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"u0_spec {spec!r} is not a JSON table: {exc}") from exc
    if f.ctx.p != cfg["p"] or f.n != cfg["n"]:
        raise ConfigError(
            f"table at {path} is for p={f.ctx.p} n={f.n}, config says p={cfg['p']} n={cfg['n']}"
        )
    return f


def _shown(x) -> str:
    """A size in an error message: in full up to 15 digits, in .3g form above."""
    return f"{x:.0f}" if x < 10**15 else f"{float(x):.3g}"


def _about(x) -> str:
    """'about' a size estimate, or 'over 10**308' past the float range."""
    return f"about {_shown(x)}" if x < 10**308 else "over 10**308"


def _refuse_large_eigen_datum(what: str, p: int, n: int, KN: int, C, order=0) -> None:
    """Refuse, before it is built, an eigen datum of exponent N (KN = K*N)
    whose numbers, or whose image under an operator of the given order,
    would pass BUILTIN_BITS.

    Its values are C times powers of p up to p**((|KN| + 1) * n), its
    coordinates powers up to p**(|KN| + 2), and the operator scales it by
    p**(KN * order).  A float C counts by its binary exponent, an exact one
    by its numerator and denominator.  A datum is written as floats, and a
    float holds about 2**1024.
    """
    if isinstance(C, float):
        bits = abs(math.frexp(C)[1])
    else:  # an int or a Fraction
        bits = max(C.numerator.bit_length(), C.denominator.bit_length())
    try:
        bits += ((abs(KN) + 2) * n + abs(KN) * float(order)) * math.log2(p)
    except OverflowError:  # |KN| past the float range
        bits = math.inf
    if bits > BUILTIN_BITS:
        raise ConfigError(
            f"{what} needs numbers of {_about(bits)} bits, "
            f"above the {BUILTIN_BITS} bits a float can hold"
        )


def _builtin_u0(cfg: dict, ctx: PrimeContext, N_text: str, K: int, C) -> CosetFunction:
    """The eigenfunction datum of exponent N on its grid, refused before it is
    built when its values or coordinates would not fit a CSV cell, which
    holds each as a float and as an exact fraction."""
    try:
        N = int(N_text)
    except ValueError as exc:
        raise ConfigError(f"u0_spec: {exc}") from exc
    _refuse_large_eigen_datum(f"u0_spec {cfg['u0_spec']!r}", ctx.p, cfg["n"], K * N, C)
    return eigen_table(N, C, K, ctx, cfg["n"], 1)


def _build_problem(cfg: dict) -> WaveProblem:
    """The problem the settings describe; K is decided first, from beta when it is
    given, so an eigen datum is built with the K that evolves it."""
    if cfg["beta"] is not None:
        cfg = {**cfg, "K": coupling(cfg["alpha"], cfg["beta"])}
    ctx = PrimeContext(cfg["p"])
    return WaveProblem(ctx=ctx, n=cfg["n"], alpha=cfg["alpha"], K=cfg["K"], u0=_build_u0(cfg, ctx))


def _open_output(path: Path):
    """path opened for writing text; one that cannot be opened is a ConfigError naming it."""
    try:
        return open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:  # a missing directory, a directory of that name, or no permission
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _write_csv(path: Path, header, lines) -> None:
    """The header and each line, as the csv module's writer would write them: no field the
    commands write holds a comma, a quote or a line break, or stands alone empty."""
    with _open_output(path) as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line + "\n" for line in lines)


def _write_slice_csv(path: Path, field: CosetFunction) -> None:
    """One row per coset, in grid order: its coordinates and its value, with each
    distinct coordinate and each distinct numerator rendered once per file."""
    if field.kind == RATIONAL:
        rendered = {num: _exact_columns(num, field.den) for num in set(field.cells)}
        columns = map(rendered.__getitem__, field.cells)
    else:
        columns = map(_complex_columns, field.complex_values())
    header = [f"x{i}" for i in range(field.n)] + ["re", "im", "num", "den"]
    rows = zip(field.grid.coordinates(_coordinate_text(field.ctx.p, field.support_exp)), columns)
    _write_csv(path, header, (f"{','.join(xs)},{cols}" for xs, cols in rows))


def _write_profile_csv(path: Path, profile) -> None:
    def columns(v) -> str:
        return _exact_columns(*v.as_integer_ratio()) if profile.exact else _complex_columns(v)

    shells = (f"shell,{profile.shell_lo + i},{columns(v)}" for i, v in enumerate(profile.shells))
    _write_csv(path, ["kind", "t_exp", "re", "im", "num", "den"],
               [f"core,,{columns(profile.core_value)}", *shells])


def _digits(L: int) -> int:
    """About how many decimal digits |L| has, without building str(L)."""
    return int(abs(L).bit_length() * math.log10(2)) + 1


def _time_labels(prob: WaveProblem, cfg: dict) -> list:
    """The labels to write, refused before anything is written when a slice
    file name would pass 255 bytes or a time profile would weigh its labels
    by p**L past BUILTIN_BITS (exit 2), or when the auto sweep, the range of
    K*(N_max - N_min) + 4 labels, holds more than the grid cap allows cosets
    (exit 3).  The auto sweep is judged on its ends and length."""
    auto = auto_time_sweep(prob)
    sweep = auto if cfg["sweep"] == "auto" else cfg["sweep"]
    ends = (auto[0], auto[-1]) if sweep is auto else (min(sweep, default=0), max(sweep, default=0))
    for L in ends:  # str(L) holds the digits of |L|, and a sign when L < 0
        if abs(L) >= 10 ** (LABEL_DIGITS - (L < 0)):
            raise ConfigError(
                f"a time label of about {_digits(L)} digits would name a slice file "
                "longer than the 255 bytes a file name can hold")
    # a profile weighs label L of the auto sweep by p**L, from auto.start - 1 on
    top = max(abs(auto.start - 1), abs(auto.stop - 1))
    if cfg["profile_points"] and top > BUILTIN_BITS / math.log2(prob.ctx.p):
        raise ConfigError(
            f"a time profile would weigh its labels by p**L with |L| of about {_digits(top)} "
            f"digits, past the {BUILTIN_BITS} bits a float can hold")
    count = auto.stop - auto.start  # len() of a range holds only a machine-size count
    if sweep is auto and count > grid_cap():
        raise GridCapError(f"the auto time sweep would hold K*(N_max - N_min) + 4 = "
                           f"{_shown(count)} labels, above the cap {grid_cap()}")
    return list(sweep)


def cmd_solve(cfg: dict, args: argparse.Namespace) -> int:
    prob = _build_problem(cfg)
    sweep = _time_labels(prob, cfg)
    points = [tuple(map(_exact_number, text.split(","))) for text in cfg["profile_points"]]
    for text, x in zip(cfg["profile_points"], points):
        if len(x) != prob.n:
            raise ConfigError(f"profile point {text!r} has {len(x)} coordinates, need {prob.n}")
    out = Path(cfg["output"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file of that name, or a parent that is a file
        raise ConfigError(f"cannot make the output directory {out}: {exc.strerror}") from exc
    # refused before the first write, so a run that cannot write one file writes none
    names = ["u0.csv", *(f"slice_L{L}.csv" for L in sweep),
             *(f"profile_{i}.csv" for i in range(len(points))), "summary.json"]
    taken = next((out / name for name in names if (out / name).is_dir()), None)
    if taken is not None:
        raise ConfigError(f"cannot write {taken}: Is a directory")
    _write_slice_csv(out / "u0.csv", prob.u0)
    l1_ratios = {}
    bound = None
    for L in sweep:
        field = solve_averaging(prob, L).field
        _write_slice_csv(out / f"slice_L{L}.csv", field)
        l1_ratios[str(L)], bound = l1_bound_check(prob, field)
        del field  # so the next slice is built without this one alive
    profiles = []
    for i, (text, x) in enumerate(zip(cfg["profile_points"], points)):
        name = f"profile_{i}.csv"
        _write_profile_csv(out / name, time_profile(prob, x))
        profiles.append({"point": text, "file": name})
    summary = {
        "p": prob.ctx.p,
        "n": prob.n,
        "alpha": str(prob.alpha),
        "K": prob.K,
        "beta": str(prob.beta),
        "u0_spec": cfg["u0_spec"],
        "sweep": sweep,
        "u0_in_zero_mean_class": True,  # WaveProblem refuses data outside Phi
        "u0_l1_norm": _fmt_float(float(prob.u0_l1)),
        "l1_ratio_by_L": {k: _fmt_float(v) for k, v in sorted(l1_ratios.items())},
        "l1_bound": _fmt_float(bound) if bound is not None else None,
        "profiles": profiles,
    }
    with _open_output(out / "summary.json") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(sweep)} slices to {out}")
    return EXIT_OK


def _refuse_large_kernel_values(p: int, n: int, K: int, args: argparse.Namespace) -> None:
    """Refuse, before any is computed, kernel values whose numerators or
    denominators would pass Python's int-to-str limit, so the CSV could not
    hold them.

    On the window, every such number is below p**(n*e + 1), where e is the
    largest of |M| and ceil(|L|/K): the values are powers of p times
    rationals over p - 1, with exponents up to n*M or n*ceil(L/K).
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    e = max(abs(args.M_min), abs(args.M_max), math.ceil(max(abs(args.L_min), abs(args.L_max)) / K))
    try:
        digits = ((n * e + 1) * math.log2(p) + 1) * math.log10(2)
    except OverflowError:  # n past the float range
        digits = math.inf
    if limit and digits > limit:
        raise ConfigError(
            f"kernel values would have {_about(digits)} decimal digits, "
            f"above the {limit} that Python converts an int to text with"
        )


def cmd_kernel_table(cfg: dict, args: argparse.Namespace) -> int:
    for name, lo, hi in (("L", args.L_min, args.L_max), ("M", args.M_min, args.M_max)):
        if lo > hi:
            raise ConfigError(
                f"{name} range [{lo}, {hi}] is empty: --{name}-min is above --{name}-max")
        if not (-12 <= lo <= hi <= 12):
            raise ConfigError(f"{name} range [{lo}, {hi}] must sit inside [-12, 12]")
    p, n, K = cfg["p"], cfg["n"], cfg["K"]
    ctx = PrimeContext(p)
    _refuse_large_kernel_values(p, n, K, args)
    rows, mismatches = [], 0
    for L in range(args.L_min, args.L_max + 1):
        kernel = kernel_oracle(K, n, L, ctx)
        for M in range(args.M_min, args.M_max + 1):
            closed = kernel_closed_form(K, n, L, M, ctx)
            oracle = kernel.value_at_exponent(M)
            equal = closed == oracle
            mismatches += 0 if equal else 1
            rows.append(f"{p},{n},{K},{L},{M},{closed.numerator},{closed.denominator},"
                        f"{oracle.numerator},{oracle.denominator},{'true' if equal else 'false'}")
    out = Path(args.out or "kernel-table.csv")
    if out.is_dir():
        out = out / "kernel-table.csv"
    _write_csv(out, ["p", "n", "K", "L", "M", "closed_num", "closed_den",
                     "oracle_num", "oracle_den", "equal"], rows)
    print(f"wrote {out} ({mismatches} mismatching rows)")
    return EXIT_OK if mismatches == 0 else EXIT_VERIFY_FAILED


def cmd_eigen_check(cfg: dict, args: argparse.Namespace) -> int:
    from .vladimirov import eigen_error, validate_order

    p, n, K, alpha, N = cfg["p"], cfg["n"], cfg["K"], cfg["alpha"], args.N
    ctx = PrimeContext(p)
    C = _parse_number(args.C)
    validate_order(p, alpha)  # first: a negative alpha would shrink the size estimate
    _refuse_large_eigen_datum(f"eigen-check with N={N} C={args.C}", p, n, K * N, C, alpha)
    worst = eigen_error(alpha, eigen_table(N, C, K, ctx, n, 0), K * N)
    ok = worst <= EIGEN_TOL
    print(
        f"eigen-check p={p} n={n} K={K} N={N} alpha={alpha}: "
        f"eigenvalue exponent {K * N} * alpha, worst relative error "
        f"{worst:.3e} ({'ok' if ok else 'FAIL'})"
    )
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_verify(cfg: dict, args: argparse.Namespace) -> int:
    from .acceptance import run_all  # imported here, so other commands never load the suite

    results = run_all(bracket=args.inject_bracket, seed=cfg["seed"])
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


def _add_setting_flags(sp: argparse.ArgumentParser, *keys: str) -> None:
    """The flags of these settings; each is read by _settings, so none has a type or a default."""
    for key in keys:
        flag, _, _, help_ = SETTINGS[key]
        sp.add_argument(flag, dest=key, help=help_)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicwave",
        description="p-adic Fourier analysis, fractional operators, and "
        "pseudo-differential evolution on coset grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="evolve initial data, write CSV slices")
    sp.add_argument("--config", help="JSON config file")
    _add_setting_flags(sp, "output", "p", "n", "alpha", "K", "sweep")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("kernel-table", help="tabulate the kernel, closed form vs oracle")
    _add_setting_flags(sp, "p", "n", "K")
    sp.add_argument("--L-min", dest="L_min", type=int, default=-4)
    sp.add_argument("--L-max", dest="L_max", type=int, default=4)
    sp.add_argument("--M-min", dest="M_min", type=int, default=-4)
    sp.add_argument("--M-max", dest="M_max", type=int, default=4)
    sp.add_argument("--out", help="output CSV path or directory")
    sp.set_defaults(func=cmd_kernel_table)

    sp = sub.add_parser("eigen-check", help="verify the eigenvalue relation once")
    _add_setting_flags(sp, "p", "n", "K", "alpha")
    sp.add_argument("--N", type=int, default=1)
    sp.add_argument("--C", default="1")
    sp.set_defaults(func=cmd_eigen_check)

    sp = sub.add_parser("verify", help="run the acceptance suite")
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--inject-bracket", choices=("ceil", "floor"), default="ceil",
                    help="mutation-testing hook: 'floor' must make the suite fail")
    sp.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(_settings(args), args)
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
