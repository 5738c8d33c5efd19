"""Fourier transform on coset tables.

forward(f)(xi) = integral of chi_p(xi . x) f(x) dx, and inverse uses the
conjugate character chi_p(-x . xi).  A table supported in B_M^n and constant
on cosets of B_{-ell}^n transforms onto the swapped grid: supported in
B_ell^n, constant on cosets of B_{-M}^n, so the transform is one finite
matrix-free double loop.

When the input table is exact the whole sum is accumulated as exact phases
(see phases.PhaseSum) and each output value collapses back to a Fraction
whenever it is rational; round trips on rational data are bit-exact.
"""

from __future__ import annotations

from fractions import Fraction

from .functions import CosetFunction, RadialShellFunction
from .lattice import enumerate_cosets
from .padic import phase_to_complex, rational_fractional_part
from .phases import PhaseSum, reduce_value, value_add, value_scale, value_to_complex

_ZERO = Fraction(0)


def _pair_phase(xi, x, p: int, sign: int, cache: dict) -> Fraction:
    total = _ZERO
    for u, v in zip(xi, x):
        key = (u, v)
        ph = cache.get(key)
        if ph is None:
            ph = rational_fractional_part(u * v, p)
            cache[key] = ph
        total += ph
    total = total % 1
    return total if sign > 0 else (-total) % 1


def _transform(f: CosetFunction, sign: int) -> CosetFunction:
    ctx, n = f.ctx, f.n
    p = ctx.p
    out_grid = enumerate_cosets(ctx, f.resolution_exp, f.support_exp, n)
    vol = f.grid.coset_volume
    in_items = [(rep, v) for rep, v in f.items()]
    phase_cache: dict = {}
    out_values = []
    if f.is_exact():
        for xi in out_grid.representatives:
            acc: dict[Fraction, Fraction] = {}
            for x, val in in_items:
                if val == 0:
                    continue
                ph = _pair_phase(xi, x, p, sign, phase_cache)
                if isinstance(val, PhaseSum):
                    for q, c in val.terms.items():
                        key = (q + ph) % 1
                        acc[key] = acc.get(key, _ZERO) + c
                else:
                    acc[ph] = acc.get(ph, _ZERO) + val
            out_values.append(reduce_value(PhaseSum(p, acc).scaled(vol)))
    else:
        cis_cache: dict[Fraction, complex] = {}
        fvol = float(vol)
        for xi in out_grid.representatives:
            acc_c = 0j
            for x, val in in_items:
                ph = _pair_phase(xi, x, p, sign, phase_cache)
                w = cis_cache.get(ph)
                if w is None:
                    w = phase_to_complex(ph)
                    cis_cache[ph] = w
                acc_c += value_to_complex(val) * w
            out_values.append(acc_c * fvol)
    return CosetFunction(out_grid, out_values)


def forward(f: CosetFunction) -> CosetFunction:
    """Fourier transform onto the dual grid (support and resolution swap)."""
    return _transform(f, +1)


def inverse(g: CosetFunction) -> CosetFunction:
    """Inverse transform; inverse(forward(f)) reproduces f."""
    return _transform(g, -1)


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

    def value_at(m: int):
        core_top = min(lo - 1, -m)
        acc = value_scale(r.core_value, p ** (n * core_top))
        for j in range(lo, min(hi, -m) + 1):
            acc = value_add(
                acc,
                value_scale(r.value_at_exponent(j), sphere_factor * p ** (n * j)),
            )
        boundary = r.value_at_exponent(-m + 1)
        acc = value_add(acc, value_scale(boundary, -(p ** (n * -m))))
        return reduce_value(acc)

    out_lo = -hi + 1
    out_hi = -lo + 1
    shells = tuple(value_at(m) for m in range(out_lo, out_hi + 1))
    return RadialShellFunction(r.ctx, value_at(out_lo - 1), shells, out_lo)
