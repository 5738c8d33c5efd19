"""Test functions on Q_p^n as finite coset tables, plus radial profiles.

A CosetFunction is supported in the ball B_M^n and constant on cosets of
B_{-ell}^n, so a finite table of one value per coset describes it totally:
a tuple of values in grid order, addressed through ``CosetGrid.position``.
Values may be exact (int, Fraction, PhaseSum) or floating (float, complex);
exact values stay exact through every operation here.

A RadialShellFunction describes a radial function by one value per norm
shell: zero above p**shell_hi, explicit values on the listed shells, and a
single core value on the ball below the lowest shell (origin included).
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache

from .errors import ConfigError, NonRadialError
from .lattice import (
    CosetGrid,
    as_fraction_vector,
    enumerate_cosets,
    vector_norm_exponent,
)
from .padic import INF, NEG_INF, PrimeContext, rational_valuation
from .phases import (
    PhaseSum,
    is_exact_value,
    reduce_value,
    value_add,
    value_scale,
    value_to_complex,
    values_equal,
)

RADIAL_FLOAT_TOL = 1e-12
PHI_TOL = 1e-10


def _normalize_value(v):
    if isinstance(v, bool):
        raise ConfigError("boolean table values are ambiguous; use 0 or 1")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, (Fraction, float, complex, PhaseSum)):
        return v
    raise ConfigError(f"unsupported table value {v!r}")


class CosetFunction:
    """Finite coset table: a tuple of values in grid order; treat as immutable."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: CosetGrid, values):
        self.grid = grid
        self.values = tuple(_normalize_value(v) for v in values)
        if len(self.values) != len(grid):
            raise ConfigError(
                f"expected {len(grid)} values in grid order, got {len(self.values)}"
            )

    # -- construction -----------------------------------------------------

    @classmethod
    def from_values(
        cls,
        ctx: PrimeContext,
        n: int,
        support_exp: int,
        resolution_exp: int,
        values,
    ) -> "CosetFunction":
        """Build from a sequence in grid order or a mapping rep -> value.

        A mapping may leave cosets out (their value is 0), but each key must
        be a grid representative.
        """
        grid = enumerate_cosets(ctx, support_exp, resolution_exp, n)
        if isinstance(values, dict):
            table = [Fraction(0)] * len(grid)
            for rep, v in values.items():
                vec = as_fraction_vector(rep, n)
                i = grid.position(vec)
                if i is None or grid.representatives[i] != vec:
                    raise ConfigError(f"value given off the grid at {rep}")
                table[i] = v
            values = table
        return cls(grid, values)

    # -- basic queries -----------------------------------------------------

    @property
    def ctx(self) -> PrimeContext:
        return self.grid.ctx

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def support_exp(self) -> int:
        return self.grid.support_exp

    @property
    def resolution_exp(self) -> int:
        return self.grid.resolution_exp

    def items(self):
        """(representative, value) pairs in deterministic grid order."""
        return zip(self.grid.representatives, self.values)

    def is_exact(self) -> bool:
        return all(is_exact_value(v) for v in self.values)

    def __repr__(self) -> str:
        return (
            f"CosetFunction(p={self.ctx.p}, n={self.n}, "
            f"support_exp={self.support_exp}, resolution_exp={self.resolution_exp}, "
            f"{len(self.grid)} cosets)"
        )


def evaluate(f: CosetFunction, x):
    """Value of f at a point of Q_p^n (0 outside the support ball)."""
    i = f.grid.position(as_fraction_vector(x, f.n))
    return Fraction(0) if i is None else f.values[i]


def integrate(f: CosetFunction):
    """Haar integral of f: the table sum times the coset volume.

    Exact (Fraction) whenever every value is exact and the character parts
    cancel; complex otherwise.
    """
    vol = f.grid.coset_volume
    values = f.values
    if all(isinstance(v, Fraction) for v in values):
        # integers over one common denominator, as in CosetAverages
        den = math.lcm(*(v.denominator for v in values))
        return Fraction(sum(v.numerator * (den // v.denominator) for v in values), den) * vol
    if f.is_exact():
        acc = Fraction(0)
        for v in values:
            acc = value_add(acc, v)
        return reduce_value(value_scale(acc, vol))
    return sum(value_to_complex(v) for v in values) * float(vol)


def l1_norm(f: CosetFunction):
    """Integral of |f|; a Fraction for rational tables, float otherwise."""
    vol = f.grid.coset_volume
    vals = f.values
    if all(isinstance(v, Fraction) for v in vals):
        # integers over one common denominator, as in integrate
        den = math.lcm(*(v.denominator for v in vals))
        return Fraction(sum(abs(v.numerator) * (den // v.denominator) for v in vals), den) * vol
    return sum(abs(value_to_complex(v)) for v in vals) * float(vol)


def is_in_Psi(f: CosetFunction, tol: float = 0.0) -> bool:
    """Vanishing at the origin: the value on the coset containing 0."""
    v = reduce_value(f.values[0])
    if isinstance(v, Fraction):
        return v == 0 if tol == 0 else abs(v) <= tol
    return abs(value_to_complex(v)) <= tol


def is_in_Phi(f: CosetFunction, tol: float = PHI_TOL) -> bool:
    """Vanishing mean, judged exactly for an exact table.

    A float table passes when |integral| <= tol * max(1, ||f||_1), so the
    test scales with the data.
    """
    s = integrate(f)
    if is_exact_value(s):
        return values_equal(s, Fraction(0))
    return abs(s) <= tol * max(1.0, l1_norm(f))


# -- pointwise algebra ------------------------------------------------------


def regrid(
    f: CosetFunction, support_exp: int, resolution_exp: int
) -> CosetFunction:
    """Re-express f on a finer or wider grid; values are carried exactly."""
    if support_exp < f.support_exp or resolution_exp < f.resolution_exp:
        raise ConfigError("regrid can only widen support or refine resolution")
    if (support_exp, resolution_exp) == (f.support_exp, f.resolution_exp):
        return f
    grid = enumerate_cosets(f.ctx, support_exp, resolution_exp, f.n)
    return CosetFunction(grid, [evaluate(f, rep) for rep in grid.representatives])


def _common_grid(f: CosetFunction, g: CosetFunction):
    if f.ctx != g.ctx or f.n != g.n:
        raise ConfigError("operands live on different spaces")
    M = max(f.support_exp, g.support_exp)
    ell = max(f.resolution_exp, g.resolution_exp)
    return regrid(f, M, ell), regrid(g, M, ell)


def add(f: CosetFunction, g: CosetFunction) -> CosetFunction:
    a, b = _common_grid(f, g)
    return CosetFunction(a.grid, [value_add(v, w) for v, w in zip(a.values, b.values)])


def scale(f: CosetFunction, c) -> CosetFunction:
    if isinstance(c, int):
        c = Fraction(c)
    return CosetFunction(f.grid, [value_scale(v, c) for v in f.values])


def subtract(f: CosetFunction, g: CosetFunction) -> CosetFunction:
    return add(f, scale(g, Fraction(-1)))


def translate(f: CosetFunction, a) -> CosetFunction:
    """The shifted function x -> f(x - a)."""
    vec = as_fraction_vector(a, f.n)
    e = vector_norm_exponent(vec, f.ctx.p)
    M = f.support_exp if e == NEG_INF else max(f.support_exp, int(e))
    grid = enumerate_cosets(f.ctx, M, f.resolution_exp, f.n)
    values = [
        evaluate(f, tuple(r - s for r, s in zip(rep, vec)))
        for rep in grid.representatives
    ]
    return CosetFunction(grid, values)


def max_abs_diff(f: CosetFunction, g: CosetFunction) -> float:
    a, b = _common_grid(f, g)
    worst = 0.0
    for v, w in zip(a.values, b.values):
        d = abs(value_to_complex(v) - value_to_complex(w))
        if d > worst:
            worst = d
    return worst


def equal_exact(f: CosetFunction, g: CosetFunction) -> bool:
    """Exact pointwise equality (requires exact tables)."""
    a, b = _common_grid(f, g)
    return all(values_equal(v, w) for v, w in zip(a.values, b.values))


# -- coset averages ----------------------------------------------------------


@lru_cache(maxsize=64)
def _block_ids(p: int, n: int, width: int, shift: int) -> tuple[int, ...]:
    """Block of each cell of an n-dim array, p**width cells a side, in row-major order.

    Blocks are p**shift cells a side and numbered in row-major order too.
    """
    block = p**shift
    one_d = [j // block for j in range(p**width)]
    per_side = p ** (width - shift)
    ids = [0]
    for _ in range(n):
        ids = [g * per_side + b for g in ids for b in one_d]
    return tuple(ids)


class CosetAverages:
    """The averages A_r f of a table over the cosets x + B_{-r}, -M <= r <= ell.

    A coset x + B_{-r} fixes the digits of x below exponent r, and in grid
    order those are the leading M + r digits of each coordinate's position;
    so at level r the cosets are the blocks of p**(ell - r) positions a side.
    The block sums are built once, each level from the finer one above it.
    A rational table is carried as integers over one common denominator, so
    the sums are exact integer additions and each average is one Fraction;
    any other table is carried as complex numbers.
    """

    __slots__ = ("f", "exact", "den", "sums")

    def __init__(self, f: CosetFunction):
        self.f = f
        values = f.values
        self.exact = all(isinstance(v, Fraction) for v in values)
        if self.exact:
            self.den = math.lcm(*(v.denominator for v in values))
            level = [v.numerator * (self.den // v.denominator) for v in values]
        else:
            self.den = None
            level = [value_to_complex(v) for v in values]
        p, n, M, ell = f.ctx.p, f.n, f.support_exp, f.resolution_exp
        self.sums = {ell: level}
        for r in range(ell - 1, -M - 1, -1):
            coarse = [0] * p ** (n * (M + r))
            for g, s in zip(_block_ids(p, n, M + r + 1, 1), level):
                coarse[g] += s
            self.sums[r] = level = coarse

    def _count(self, r: int) -> int:
        """Grid cosets in one coset of level r."""
        return self.f.ctx.p ** (self.f.n * (self.f.resolution_exp - r))

    def differs(self, r: int, tol: float = 0.0) -> bool:
        """Whether A_r f and A_{r-1} f differ (by more than tol, for a complex table)."""
        p, n = self.f.ctx.p, self.f.n
        parent = _block_ids(p, n, self.f.support_exp + r, 1)
        fine, coarse = self.sums[r], self.sums[r - 1]
        if self.exact:
            q = p**n
            return any(s * q != coarse[g] for g, s in zip(parent, fine))
        cf, cc = self._count(r), self._count(r - 1)
        return any(abs(s / cf - coarse[g] / cc) > tol for g, s in zip(parent, fine))

    def mix(self, lo: int, hi: int, c) -> CosetFunction:
        """The table A_lo f + c*(A_hi f - A_lo f), for lo <= hi and rational c."""
        f = self.f
        p, n, M, ell = f.ctx.p, f.n, f.support_exp, f.resolution_exp
        parent = _block_ids(p, n, M + hi, hi - lo)
        fine, coarse = self.sums[hi], self.sums[lo]
        if self.exact:
            q = p ** (n * (hi - lo))
            cn, cd = c.numerator, c.denominator
            den = cd * self.den * self._count(lo)
            by_block = [
                Fraction(cd * coarse[g] + cn * (s * q - coarse[g]), den)
                for g, s in zip(parent, fine)
            ]
        else:
            cf, cl, ch = float(c), self._count(lo), self._count(hi)
            by_block = [
                coarse[g] / cl + cf * (s / ch - coarse[g] / cl)
                for g, s in zip(parent, fine)
            ]
        cells = _block_ids(p, n, M + ell, ell - hi)
        return CosetFunction(f.grid, [by_block[g] for g in cells])


# -- radial functions --------------------------------------------------------


class RadialShellFunction:
    """Radial function: core value below, one value per shell, zero above.

    shells[i] is the value on the sphere of radius p**(shell_lo + i); the
    core value holds on all of B_{shell_lo - 1} including the origin, and
    the function vanishes on every sphere above p**shell_hi.  Treat as
    immutable.
    """

    __slots__ = ("ctx", "core_value", "shells", "shell_lo")

    def __init__(self, ctx: PrimeContext, core_value, shells, shell_lo: int):
        self.ctx = ctx
        self.core_value = _normalize_value(core_value)
        self.shells = tuple(_normalize_value(v) for v in shells)
        self.shell_lo = shell_lo

    @property
    def shell_hi(self) -> int:
        return self.shell_lo + len(self.shells) - 1

    def value_at_exponent(self, gamma):
        """Value on the sphere |x| = p**gamma (gamma may be -inf)."""
        if gamma < self.shell_lo:  # covers gamma = -inf, the origin
            return self.core_value
        if gamma > self.shell_hi:
            return Fraction(0)
        return self.shells[int(gamma) - self.shell_lo]

    def evaluate(self, x):
        q = x if isinstance(x, Fraction) else Fraction(x)
        v = rational_valuation(q, self.ctx.p)
        return self.value_at_exponent(NEG_INF if v == INF else -v)

    def scaled(self, c) -> "RadialShellFunction":
        return RadialShellFunction(
            self.ctx,
            value_scale(self.core_value, c),
            tuple(value_scale(v, c) for v in self.shells),
            self.shell_lo,
        )

    def normalize(self) -> "RadialShellFunction":
        """Trim zero top shells; absorb bottom shells equal to the core."""
        shells = list(self.shells)
        lo = self.shell_lo
        while shells and values_equal(shells[-1], Fraction(0)):
            shells.pop()
        while shells and values_equal(shells[0], self.core_value):
            shells.pop(0)
            lo += 1
        return RadialShellFunction(self.ctx, self.core_value, tuple(shells), lo)

    def integrate(self, n: int = 1):
        """Haar integral over Q_p^n (the shell sum plus the core ball)."""
        p = Fraction(self.ctx.p)
        acc = value_scale(self.core_value, p ** (n * (self.shell_lo - 1)))
        sphere_factor = 1 - p**-n
        for i, v in enumerate(self.shells):
            acc = value_add(
                acc, value_scale(v, sphere_factor * p ** (n * (self.shell_lo + i)))
            )
        return reduce_value(acc)

    def l1_norm(self, n: int = 1):
        p = Fraction(self.ctx.p)
        exact = isinstance(self.core_value, Fraction) and all(
            isinstance(v, Fraction) for v in self.shells
        )
        core_w = p ** (n * (self.shell_lo - 1))
        sphere_factor = 1 - p**-n
        if exact:
            acc = abs(self.core_value) * core_w
            for i, v in enumerate(self.shells):
                acc += abs(v) * sphere_factor * p ** (n * (self.shell_lo + i))
            return acc
        acc = abs(value_to_complex(self.core_value)) * float(core_w)
        for i, v in enumerate(self.shells):
            acc += abs(value_to_complex(v)) * float(
                sphere_factor * p ** (n * (self.shell_lo + i))
            )
        return acc


def radial_profile(f: CosetFunction, tol: float | None = None) -> RadialShellFunction:
    """Collapse a radial table to shell values.

    Raises NonRadialError, naming two witnesses, if any norm shell carries
    two distinct values.  Exact values must match exactly; float values may
    differ by tol (default 1e-12 scaled by the largest magnitude).
    """
    float_tol = tol
    if float_tol is None and not f.is_exact():
        scale_ = max(1.0, max(abs(value_to_complex(w)) for w in f.values))
        float_tol = RADIAL_FLOAT_TOL * scale_
    by_shell: dict = {}
    witness: dict = {}
    for rep, v in f.items():
        key = vector_norm_exponent(rep, f.ctx.p)  # int, or -inf at the origin
        if key not in by_shell:
            by_shell[key] = v
            witness[key] = rep
            continue
        u = by_shell[key]
        if is_exact_value(u) and is_exact_value(v):
            same = values_equal(u, v)
        else:
            same = abs(value_to_complex(u) - value_to_complex(v)) <= float_tol
        if not same:
            raise NonRadialError(
                f"values differ on the sphere |x| = p**{key}: "
                f"f({witness[key]}) = {u!r} but f({rep}) = {v!r}"
            )
    lo = -f.resolution_exp + 1
    hi = f.support_exp
    core = by_shell.get(NEG_INF, Fraction(0))
    shells = tuple(by_shell[g] for g in range(lo, hi + 1))
    return RadialShellFunction(f.ctx, core, shells, lo)


def embed_radial(
    r: RadialShellFunction, support_exp: int, resolution_exp: int, n: int = 1
) -> CosetFunction:
    """Tabulate a radial function on a coset grid.

    The grid must be wide enough (no nonzero shell above p**support_exp)
    and fine enough (constant on B_{-resolution_exp}, i.e. every shell at
    or below -resolution_exp already equals the core value).
    """
    for g in range(support_exp + 1, r.shell_hi + 1):
        if not values_equal(r.value_at_exponent(g), Fraction(0)):
            raise ConfigError(
                f"radial function is nonzero on |x| = p**{g}, outside "
                f"the requested support exponent {support_exp}"
            )
    for g in range(r.shell_lo, min(-resolution_exp, r.shell_hi) + 1):
        if not values_equal(r.value_at_exponent(g), r.core_value):
            raise ConfigError(
                f"radial function varies on |x| = p**{g}, below the "
                f"requested resolution exponent {resolution_exp}"
            )
    grid = enumerate_cosets(r.ctx, support_exp, resolution_exp, n)
    p = r.ctx.p
    return CosetFunction(
        grid, [r.value_at_exponent(vector_norm_exponent(rep, p)) for rep in grid.representatives]
    )


# -- ready-made tables -------------------------------------------------------


def ball_indicator(
    ctx: PrimeContext,
    n: int,
    radius_exp: int,
    support_exp: int | None = None,
    resolution_exp: int | None = None,
) -> CosetFunction:
    M = radius_exp if support_exp is None else support_exp
    ell = -radius_exp if resolution_exp is None else resolution_exp
    r = RadialShellFunction(ctx, Fraction(1), (), radius_exp + 1)
    return embed_radial(r, M, ell, n)


def sphere_indicator(
    ctx: PrimeContext,
    n: int,
    radius_exp: int,
    support_exp: int | None = None,
    resolution_exp: int | None = None,
) -> CosetFunction:
    M = radius_exp if support_exp is None else support_exp
    ell = -radius_exp + 1 if resolution_exp is None else resolution_exp
    r = RadialShellFunction(ctx, Fraction(0), (Fraction(1),), radius_exp)
    return embed_radial(r, M, ell, n)


# -- serialization -----------------------------------------------------------


def _value_to_json(v):
    v = reduce_value(v)
    if isinstance(v, Fraction):
        return {"re": str(v), "im": "0"}
    c = value_to_complex(v)
    return {"re": c.real, "im": c.imag}


def _value_from_json(entry):
    re, im = entry["re"], entry["im"]
    if isinstance(re, str):
        re_f, im_f = Fraction(re), Fraction(im)
        if im_f == 0:
            return re_f
        return complex(float(re_f), float(im_f))
    if im == 0:
        return float(re)
    return complex(re, im)


def to_json_dict(f: CosetFunction) -> dict:
    """The table as a document; each coset is named by its digits d_{-M}..d_{ell-1}.

    In grid order those digits, coordinate after coordinate, are the
    base-p digits of the coset's position, most significant first.
    """
    width = f.support_exp + f.resolution_exp
    p = f.ctx.p
    entries = []
    for pos, v in enumerate(f.values):
        digits = []
        for _ in range(f.n * width):
            pos, d = divmod(pos, p)
            digits.append(d)
        digits.reverse()
        entry = _value_to_json(v)
        entry["digits"] = [digits[j * width : (j + 1) * width] for j in range(f.n)]
        entries.append(entry)
    return {
        "p": p,
        "n": f.n,
        "M": f.support_exp,
        "ell": f.resolution_exp,
        "values": entries,
    }


def from_json_dict(doc: dict) -> CosetFunction:
    try:
        ctx = PrimeContext(doc["p"])
        n, M, ell = doc["n"], doc["M"], doc["ell"]
        entries = doc["values"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed coset table document: {exc}") from exc
    if not all(type(v) is int for v in (n, M, ell)) or not isinstance(entries, list):
        raise ConfigError("malformed coset table document: n, M and ell must be "
                          "integers and values a list")
    grid = enumerate_cosets(ctx, M, ell, n)
    if len(entries) != len(grid):
        raise ConfigError(
            f"table holds {len(entries)} values but the grid has {len(grid)}"
        )
    p, width = ctx.p, M + ell
    values = [None] * len(grid)
    for entry in entries:
        try:
            digits = entry["digits"]
            value = _value_from_json(entry)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"malformed coset table entry {entry!r}: {exc!r}") from exc
        if not (
            isinstance(digits, list)
            and len(digits) == n
            and all(
                isinstance(ds, list)
                and len(ds) == width
                and all(type(d) is int and 0 <= d < p for d in ds)
                for ds in digits
            )
        ):
            raise ConfigError(
                f"digits {digits!r} name no grid coset: need {n} lists of "
                f"{width} digits in [0, {p})"
            )
        i = 0
        for d in itertools.chain.from_iterable(digits):
            i = i * p + d
        if values[i] is not None:
            raise ConfigError(f"coset with digits {digits} is listed twice")
        values[i] = value
    return CosetFunction(grid, values)


def save_coset_function(f: CosetFunction, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(f), fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_coset_function(path) -> CosetFunction:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))
