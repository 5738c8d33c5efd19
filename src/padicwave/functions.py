"""Test functions on Q_p^n as finite coset tables, plus radial profiles.

A CosetFunction is supported in the ball B_M^n and constant on cosets of
B_{-ell}^n, so a finite table of one value per coset describes it totally:
a tuple of cells in grid order, addressed through ``CosetGrid.position``.
Each table has one value kind, fixed when it is built: rational (integer
numerators over their least common denominator), complex (any table holding
a float), or phase (Fractions and ``PhaseSum``s, the exact transform's
inputs and outputs, which other layers read through their complex values).

A RadialShellFunction describes a radial function by one value per norm
shell: zero above p**shell_hi, explicit values on the listed shells, and a
single core value on the ball below the lowest shell (origin included).
Its values are all Fractions or all complex numbers, and ``radial_inverse``
transforms one in closed form, with no grid.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from functools import reduce
from operator import mul

from .errors import ConfigError, NonRadialError
from .lattice import (
    CosetGrid,
    as_fraction_vector,
    enumerate_cosets,
    vector_norm_exponent,
)
from .padic import NEG_INF, PrimeContext

RADIAL_FLOAT_TOL = 1e-12
PHI_TOL = 1e-10

RATIONAL, COMPLEX, PHASE = "rational", "complex", "phase"
_KINDS = {int: RATIONAL, Fraction: RATIONAL, float: COMPLEX, complex: COMPLEX}


def _value_kind(values) -> str:
    """A table's kind: complex if any value is inexact, else phase if any is a PhaseSum."""
    kinds = {_KINDS.get(t) for t in set(map(type, values))}
    if None in kinds:  # the cyclotomic layer is loaded only for a transform's values
        from .phases import PhaseSum

        v = next((v for v in values if type(v) not in _KINDS and type(v) is not PhaseSum), None)
        if isinstance(v, bool):
            raise ConfigError("boolean table values are ambiguous; use 0 or 1")
        if v is not None:
            raise ConfigError(f"unsupported table value {v!r}")
        kinds.add(PHASE)
    return COMPLEX if COMPLEX in kinds else PHASE if PHASE in kinds else RATIONAL


def _over_common_den(values) -> tuple[int, tuple[int, ...]]:
    """Exact rationals as integer numerators over their least common denominator."""
    den = math.lcm(*(v.denominator for v in values))
    return den, tuple(v.numerator * (den // v.denominator) for v in values)


class CosetFunction:
    """Finite coset table of one value kind, in grid order; treat as immutable.

    ``CosetFunction(grid, values)`` decides the kind from the values, and
    ``CosetFunction(grid, nums, den)`` is the rational table nums[i] / den.
    ``cells`` holds a rational table's numerators over ``den``, or the values.
    """

    __slots__ = ("grid", "kind", "den", "cells")

    def __init__(self, grid: CosetGrid, values, den: int | None = None):
        values = tuple(values)
        if len(values) != len(grid):
            raise ConfigError(f"expected {len(grid)} values in grid order, got {len(values)}")
        self.kind = RATIONAL if den is not None else _value_kind(values)
        if den is not None:  # in lowest terms: the least common denominator
            g = math.gcd(den, math.gcd(*values))  # gcd(*values) reads the tuple, uncopied
            if g > 1:
                den, values = den // g, tuple(v // g for v in values)
        elif self.kind == RATIONAL:
            den, values = _over_common_den(values)
        elif self.kind == COMPLEX:
            values = tuple(v if type(v) is complex else complex(v) for v in values)
        else:
            values = tuple(Fraction(v) if type(v) is int else v for v in values)
        self.grid, self.den, self.cells = grid, den, values

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
    def values(self) -> tuple:
        """The values in grid order (Fractions for a rational table), built on each read."""
        den = self.den
        return tuple(Fraction(v, den) for v in self.cells) if den else self.cells

    def complex_values(self):
        """The values as complex numbers in grid order (num / den rounds as float(Fraction))."""
        if self.kind == RATIONAL:
            return [complex(v / self.den) for v in self.cells]
        return self.cells if self.kind == COMPLEX else list(map(complex, self.cells))

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

    def __repr__(self) -> str:
        return (
            f"CosetFunction(p={self.ctx.p}, n={self.n}, "
            f"support_exp={self.support_exp}, resolution_exp={self.resolution_exp}, "
            f"{len(self.grid)} {self.kind} cosets)"
        )


def _cell_value(f: CosetFunction, i: int):
    return Fraction(f.cells[i], f.den) if f.kind == RATIONAL else f.cells[i]


def evaluate(f: CosetFunction, x):
    """Value of f at a point of Q_p^n (0 outside the support ball)."""
    i = f.grid.position(as_fraction_vector(x, f.n))
    return Fraction(0) if i is None else _cell_value(f, i)


def integrate(f: CosetFunction):
    """Haar integral of f: the table sum times the coset volume.

    A Fraction for a rational table, complex otherwise.
    """
    vol = f.grid.coset_volume
    if f.kind == RATIONAL:
        return Fraction(sum(f.cells), f.den) * vol
    return sum(f.complex_values()) * float(vol)


def l1_norm(f: CosetFunction):
    """Integral of |f|; a Fraction for rational tables, float otherwise."""
    vol = f.grid.coset_volume
    if f.kind == RATIONAL:
        return Fraction(sum(map(abs, f.cells)), f.den) * vol
    # left to right, as sum() adds floats before Python 3.12, so CSV and JSON
    # output is the same on every version
    return reduce(float.__add__, map(abs, f.complex_values()), 0.0) * float(vol)


def is_in_Psi(f: CosetFunction) -> bool:
    """Vanishing at the origin: the value on the coset containing 0."""
    v = _cell_value(f, 0)
    return abs(v if isinstance(v, Fraction) else complex(v)) <= 0.0


def is_in_Phi(f: CosetFunction) -> bool:
    """Vanishing mean, judged exactly for a rational table.

    Any other table passes when |integral| <= PHI_TOL * max(1, ||f||_1), so
    the test scales with the data.
    """
    s = integrate(f)
    if f.kind == RATIONAL:
        return s == 0
    return abs(s) <= PHI_TOL * max(1.0, l1_norm(f))


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
    """f + g, exact when both are rational and complex otherwise."""
    a, b = _common_grid(f, g)
    if a.kind == b.kind == RATIONAL:
        den = math.lcm(a.den, b.den)
        sa, sb = den // a.den, den // b.den
        return CosetFunction(a.grid, [v * sa + w * sb for v, w in zip(a.cells, b.cells)], den)
    return CosetFunction(a.grid, map(complex.__add__, a.complex_values(), b.complex_values()))


def scale(f: CosetFunction, c) -> CosetFunction:
    """c * f for a rational or a float/complex scalar c."""
    exact = isinstance(c, (int, Fraction))
    if exact and f.kind == RATIONAL:
        return CosetFunction(f.grid, [v * c.numerator for v in f.cells], f.den * c.denominator)
    c = float(c) if exact else complex(c)
    return CosetFunction(f.grid, [v * c for v in f.complex_values()])


def translate(f: CosetFunction, a) -> CosetFunction:
    """The shifted function x -> f(x - a)."""
    vec = as_fraction_vector(a, f.n)
    e = vector_norm_exponent(vec, f.ctx)
    M = f.support_exp if e == NEG_INF else max(f.support_exp, int(e))
    grid = enumerate_cosets(f.ctx, M, f.resolution_exp, f.n)
    values = [
        evaluate(f, tuple(r - s for r, s in zip(rep, vec)))
        for rep in grid.representatives
    ]
    return CosetFunction(grid, values)


def nan_max(values) -> float:
    """max(values, default=0.0), or nan when a value is nan.

    max() keeps a nan only in first place, so a check that folded its
    errors with it would pass on nan results.
    """
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max(values, default=0.0)


def max_abs_diff(f: CosetFunction, g: CosetFunction) -> float:
    a, b = _common_grid(f, g)
    return nan_max(map(abs, map(complex.__sub__, a.complex_values(), b.complex_values())))


def equal_exact(f: CosetFunction, g: CosetFunction) -> bool:
    """Exact pointwise equality (requires exact tables)."""
    a, b = _common_grid(f, g)
    return a.values == b.values


# -- coset averages ----------------------------------------------------------


class CosetAverages:
    """The averages A_r f of a table over the cosets x + B_{-r}, -M <= r <= ell.

    A coset x + B_{-r} fixes the digits of x below exponent r, and in grid
    order those are the leading M + r digits of each coordinate's position;
    so at level r the cosets are the blocks of p**(ell - r) positions a side.
    The block sums are built once, each level from the finer one above it,
    and level -M - 1 is one coset with sum 0.  A rational table's sums are
    exact integer sums of its numerators; any other table is carried as
    complex numbers.
    """

    __slots__ = ("f", "sums")

    def __init__(self, f: CosetFunction):
        self.f = f
        level = f.cells if f.kind == RATIONAL else f.complex_values()
        M, ell = f.support_exp, f.resolution_exp
        self.sums = {ell: level, -M - 1: [0]}
        for r in range(ell - 1, -M - 1, -1):
            coarse = [0] * f.ctx.p ** (f.n * (M + r))
            for g, s in zip(self._spread(range(len(coarse)), r, r + 1), level):
                coarse[g] += s
            self.sums[r] = level = coarse

    def _count(self, r: int) -> int:
        """Grid cosets in one coset of level r."""
        return self.f.ctx.p ** (self.f.n * (self.f.resolution_exp - r))

    def _spread(self, cells, lo: int, hi: int):
        """The level-lo values (any iterable), lazily, each repeated over the level-hi cosets it holds."""
        p, M = self.f.ctx.p, self.f.support_exp
        q, side = p ** (hi - max(lo, -M)), p ** (M + hi)
        chain = itertools.chain.from_iterable
        out = chain([c] * q for c in cells)  # the last axis
        for k in range(1, self.f.n):  # then each earlier one repeats whole rows
            rows, row = list(out), side**k  # the stage before, read whole first
            out = chain(rows[i : i + row] * q for i in range(0, len(rows), row))
        return out

    def differs(self, r: int, tol: float = 0.0) -> bool:
        """Whether A_r f and A_{r-1} f differ (by more than tol, for a complex table)."""
        fine, coarse = self.sums[r], self._spread(self.sums[r - 1], r - 1, r)
        if self.f.kind == RATIONAL:
            q = self.f.ctx.p ** self.f.n
            return any(s * q != c for s, c in zip(fine, coarse))
        cf, cc = self._count(r), self._count(r - 1)
        return any(abs(s / cf - c / cc) > tol for s, c in zip(fine, coarse))

    def radial(self, weight) -> CosetFunction:
        """The table with each frequency sphere |xi| = p**N scaled by weight(N).

        weight(NEG_INF) scales the origin coset, as ``fourier.multiply_radial``
        does.  A transform times 1 on B_N is the average over x + B_{-N}, so a
        run of levels lo < N <= hi of one weight w adds w * (A_hi f - A_lo f),
        A_{-M-1} f = 0, on the cosets of level hi.  Rational tables and weights
        give integer numerators over one denominator, anything else complex.
        """
        f = self.f
        p, n, M, ell = f.ctx.p, f.n, f.support_exp, f.resolution_exp
        w = [weight(NEG_INF), *map(weight, range(-M + 1, ell + 1))]  # level -M first
        exact = f.kind == RATIONAL and all(isinstance(x, (int, Fraction)) for x in w)
        wden = math.lcm(*(x.denominator for x in w)) if exact else None
        lo, base, acc = -M - 1, ell, [0 if exact else 0j]  # the sum so far, on level lo
        for hi, x, nxt in zip(range(-M, ell + 1), w, [*w[1:], 0]):
            if x == nxt:  # inside a run, or past the last nonzero weight
                continue
            coarse = self._spread(self.sums[lo], lo, hi)
            parts = zip(self._spread(acc, lo, hi), self.sums[hi], coarse)
            if exact:  # A_r f is sums[r] * p**(n*(r - base)) over den * wden * count(base)
                base = min(base, hi)  # the coarsest level read
                x, qh, ql = (x * wden).numerator, *(p ** (n * max(r - base, 0)) for r in (hi, lo))
                acc = [a + x * (s * qh - c * ql) for a, s, c in parts]
            else:  # A_r f is sums[r] / (count(r) * den), a real weight taken as a float
                x = x if isinstance(x, complex) else float(x)
                ch, cl = (self._count(r) * (f.den or 1) for r in (hi, lo))
                acc = [a + x * (s / ch - c / cl) for a, s, c in parts]
            lo = hi
        acc = self._spread(acc, lo, ell) if lo < ell else acc
        return CosetFunction(f.grid, acc, f.den * wden * self._count(base) if exact else None)


# -- radial functions --------------------------------------------------------


class RadialShellFunction:
    """Radial function: core value below, one value per shell, zero above.

    shells[i] is the value on the sphere of radius p**(shell_lo + i); the
    core value holds on all of B_{shell_lo - 1} including the origin, and
    the function vanishes on every sphere above p**shell_hi.  The values are
    all Fractions (``exact``) or all complex numbers.  Treat as immutable.
    """

    __slots__ = ("ctx", "core_value", "shells", "shell_lo", "exact")

    def __init__(self, ctx: PrimeContext, core_value, shells, shell_lo: int):
        self.exact = _value_kind((core_value, *shells)) == RATIONAL
        convert = Fraction if self.exact else complex
        self.ctx, self.core_value, self.shell_lo = ctx, convert(core_value), shell_lo
        self.shells = tuple(map(convert, shells))

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

    def normalize(self) -> "RadialShellFunction":
        """Trim zero top shells; absorb bottom shells equal to the core."""
        shells = list(self.shells)
        lo = self.shell_lo
        while shells and shells[-1] == 0:
            shells.pop()
        while shells and shells[0] == self.core_value:
            shells.pop(0)
            lo += 1
        return RadialShellFunction(self.ctx, self.core_value, tuple(shells), lo)

    def _masses(self, n: int) -> list:
        """Each value times the Haar volume of its ball or shell in Q_p^n."""
        p = Fraction(self.ctx.p)
        vols = [p ** (n * (self.shell_lo - 1))] + [
            (1 - p**-n) * p ** (n * (self.shell_lo + i)) for i in range(len(self.shells))
        ]
        if not self.exact:
            vols = map(float, vols)
        return [v * w for v, w in zip((self.core_value, *self.shells), vols)]

    def integrate(self, n: int = 1):
        """Haar integral over Q_p^n (the shell sum plus the core ball)."""
        return sum(self._masses(n))

    def l1_norm(self, n: int = 1):
        return sum(map(abs, self._masses(n)))


def radial_inverse(r: RadialShellFunction, n: int = 1) -> RadialShellFunction:
    """Inverse transform of a radial function, shell by shell.

    Uses the closed-form sphere character integrals, so no grid is built:
    the value at |x| = p**m collects a geometric core series, the explicit
    shells up to exponent -m, and one boundary term from the shell at
    -m + 1.  Matches the dense inverse on any embedding of r.
    """
    p = Fraction(r.ctx.p)
    lo, hi = r.shell_lo, r.shell_hi
    sphere_factor = 1 - p**-n

    # exact weights on exact values; on complex ones, each weight rounded to a float
    term = mul if r.exact else (lambda v, w: v * float(w))

    def value_at(m: int):
        core_top = min(lo - 1, -m)
        acc = term(r.core_value, p ** (n * core_top))
        for j in range(lo, min(hi, -m) + 1):
            acc = acc + term(r.value_at_exponent(j), sphere_factor * p ** (n * j))
        return acc + term(r.value_at_exponent(-m + 1), -(p ** (n * -m)))

    out_lo = -hi + 1
    out_hi = -lo + 1
    shells = tuple(value_at(m) for m in range(out_lo, out_hi + 1))
    return RadialShellFunction(r.ctx, value_at(out_lo - 1), shells, out_lo)


def radial_profile(f: CosetFunction) -> RadialShellFunction:
    """Collapse a radial table to shell values.

    Raises NonRadialError, naming two witnesses, if any norm shell carries
    two distinct values.  A rational table's values must match exactly;
    complex values may differ by 1e-12 times max(1, the largest magnitude).
    """
    rational = f.kind == RATIONAL
    cells = f.cells if rational else f.complex_values()
    if not rational:
        tol = RADIAL_FLOAT_TOL * max(1.0, max(map(abs, cells)))
    first: dict = {}  # norm exponent (-inf at the origin) -> its first coset
    for i, (key, v) in enumerate(zip(f.grid.norm_exponents, cells)):
        j = first.setdefault(key, i)
        if (cells[j] != v) if rational else (abs(cells[j] - v) > tol):
            reps = f.grid.representatives
            raise NonRadialError(
                f"values differ on the sphere |x| = p**{key}: "
                f"f({reps[j]}) = {_cell_value(f, j)!r} but f({reps[i]}) = {_cell_value(f, i)!r}"
            )
    value = {key: _cell_value(f, j) for key, j in first.items()}
    lo = -f.resolution_exp + 1
    shells = tuple(value[g] for g in range(lo, f.support_exp + 1))
    return RadialShellFunction(f.ctx, value[NEG_INF], shells, lo)


def embed_radial(
    r: RadialShellFunction, support_exp: int, resolution_exp: int, n: int = 1
) -> CosetFunction:
    """Tabulate a radial function on a coset grid.

    The grid must be wide enough (no nonzero shell above p**support_exp)
    and fine enough (constant on B_{-resolution_exp}, i.e. every shell at
    or below -resolution_exp already equals the core value).
    """
    for g in range(support_exp + 1, r.shell_hi + 1):
        if r.value_at_exponent(g) != 0:
            raise ConfigError(
                f"radial function is nonzero on |x| = p**{g}, outside "
                f"the requested support exponent {support_exp}"
            )
    for g in range(r.shell_lo, min(-resolution_exp, r.shell_hi) + 1):
        if r.value_at_exponent(g) != r.core_value:
            raise ConfigError(
                f"radial function varies on |x| = p**{g}, below the "
                f"requested resolution exponent {resolution_exp}"
            )
    grid = enumerate_cosets(r.ctx, support_exp, resolution_exp, n)
    exps = [NEG_INF, *range(-resolution_exp + 1, support_exp + 1)]
    by_exp = [r.value_at_exponent(e) for e in exps]
    den, by_exp = _over_common_den(by_exp) if r.exact else (None, by_exp)
    cell = dict(zip(exps, by_exp))
    return CosetFunction(grid, [cell[e] for e in grid.norm_exponents], den)


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


# -- serialization -----------------------------------------------------------


def _value_to_json(v):
    if not isinstance(v, (Fraction, complex)):  # a transform's PhaseSum, exact when rational
        r = v.as_rational()
        v = complex(v) if r is None else Fraction(r)
    if isinstance(v, Fraction):
        return {"re": str(v), "im": "0"}
    return {"re": v.real, "im": v.imag}


def _value_from_json(entry):
    re, im = entry["re"], entry["im"]
    for part in (re, im):  # JSON reads true as 1 and Infinity or NaN as floats
        if isinstance(part, bool) or (isinstance(part, float) and not math.isfinite(part)):
            raise ValueError(f"{part!r} is not a finite number")
    if isinstance(re, str):
        re_f, im_f = Fraction(re), Fraction(im)
        if im_f == 0:
            return re_f
        return complex(float(re_f), float(im_f))
    return complex(re, im)  # numbers make a complex table, whatever their imaginary part


def to_json_dict(f: CosetFunction) -> dict:
    """The table as a document; each coset is named by its digits d_{-M}..d_{ell-1}.

    In grid order those digits, coordinate after coordinate, are the
    base-p digits of the coset's position, most significant first.
    """
    width = f.support_exp + f.resolution_exp
    p = f.ctx.p
    entries = []
    for a, v in zip(f.grid.digits, f.values):
        entry = _value_to_json(v)
        # d_k is digit k + M of the digit coordinate a_j = x_j * p**M
        entry["digits"] = [[aj // p**k % p for k in range(width)] for aj in a]
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
