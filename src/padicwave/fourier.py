"""Fourier transform on coset tables.

forward(f)(xi) = integral of chi_p(xi . x) f(x) dx, and inverse uses the
conjugate character chi_p(-x . xi).  A table supported in B_M^n and constant
on cosets of B_{-ell}^n transforms onto the swapped grid: supported in
B_ell^n, constant on cosets of B_{-M}^n, so the transform is one finite
matrix-free double loop.

When the input table is exact the whole sum is accumulated exactly, as
integer phase indices with integer coefficients: a phases.PhaseSum value
enters with its own indices k mod q, and each output value is a Fraction
whenever it is rational, otherwise a PhaseSum over the accumulated indices.
Round trips on rational data are bit-exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .functions import COMPLEX, CosetFunction
from .lattice import enumerate_cosets
from .padic import phase_to_complex
from .phases import PhaseSum, rational_value


def _transform(f: CosetFunction, sign: int) -> CosetFunction:
    """Coset sum of chi_p(sign * xi . x) f(x) on the swapped grid.

    With W = M + ell, a_j = x_j * p**M and b_j = xi_j * p**ell are integers,
    and the phase {xi . x}_p is (sum_j a_j * b_j mod p**W) / p**W.  Every
    phase is carried as an integer index k mod Q (Q = p**W, or a PhaseSum
    value's modulus q when that is finer), and the exact sums as
    integer coefficients over the lcm of the coefficients' denominators
    (a rational table's own ``den``).
    """
    ctx, n = f.ctx, f.n
    p, M, ell = ctx.p, f.support_exp, f.resolution_exp
    out_grid = enumerate_cosets(ctx, ell, M, n)
    vol = f.grid.coset_volume
    width_q = p ** (M + ell)
    in_a = f.grid.digits
    out_b = out_grid.digits
    out_values = []
    if f.kind == COMPLEX:
        roots = [phase_to_complex(k / width_q) for k in range(width_q)]
        inputs = [(tuple(sign * aj for aj in a), c) for a, c in zip(in_a, f.cells)]
        fvol = float(vol)
        for b in out_b:
            acc_c = 0j
            for a, c in inputs:
                acc_c += c * roots[sum(map(mul, a, b)) % width_q]
            out_values.append(acc_c * fvol)
        return CosetFunction(out_grid, out_values)
    # each nonzero input as its modulus and coefficients, a rational one as
    # q = 1, {0: v}; a zero input adds no term
    inputs = [
        (a, (v.q, v.coeffs) if isinstance(v, PhaseSum) else (1, {0: v}))
        for a, v in zip(in_a, f.values)
        if v != 0
    ]
    big_q = max([width_q] + [q for _, (q, _) in inputs])
    den = math.lcm(*(c.denominator for _, (_, t) in inputs for c in t.values()))
    lift = big_q // width_q
    terms = [
        (
            tuple(sign * lift * aj for aj in a),
            [(k * (big_q // q), c.numerator * (den // c.denominator)) for k, c in t.items()],
        )
        for a, (q, t) in inputs
    ]
    for b in out_b:
        acc: dict[int, int] = {}
        for a, v_terms in terms:
            k = sum(map(mul, a, b))
            for kq, c in v_terms:
                key = (k + kq) % big_q
                acc[key] = acc.get(key, 0) + c
        r = rational_value(acc, big_q, p)
        if r is not None:
            out_values.append(Fraction(r, den) * vol)
        else:
            out_values.append(
                PhaseSum(p, big_q, {k: Fraction(c, den) * vol for k, c in acc.items()})
            )
    return CosetFunction(out_grid, out_values)


def forward(f: CosetFunction) -> CosetFunction:
    """Fourier transform onto the dual grid (support and resolution swap)."""
    return _transform(f, +1)


def inverse(g: CosetFunction) -> CosetFunction:
    """Inverse transform; inverse(forward(f)) reproduces f."""
    return _transform(g, -1)


def multiply_radial(g: CosetFunction, weight) -> CosetFunction:
    """g times weight(e) on each coset of norm p**e (e = -inf at the origin).

    This damps or weights a transform before it is inverted.  Exact (int or
    Fraction) weights keep an exact table exact; float weights, or a complex
    table, give a complex table.
    """
    norms = g.grid.norm_exponents
    w = {e: weight(e) for e in set(norms)}
    if g.kind != COMPLEX and all(isinstance(x, (int, Fraction)) for x in w.values()):
        return CosetFunction(g.grid, [
            v.scaled(w[e]) if isinstance(v, PhaseSum) else v * w[e]
            for v, e in zip(g.values, norms)
        ])
    # as complex numbers, times each rational weight rounded to a float
    w = {e: float(x) if isinstance(x, Fraction) else complex(x) for e, x in w.items()}
    return CosetFunction(g.grid, [c * w[e] for c, e in zip(g.complex_values(), norms)])
