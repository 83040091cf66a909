"""Exact arithmetic in Z[zeta_p] and in the quadratic subring Z[g].

CycInt stores coordinates in the power basis zeta^0 .. zeta^(p-2);
zeta^(p-1) is eliminated by zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2)),
so equality is plain coefficient equality. QuadValue is a + b*g where
g is the scalar quadratic Gauss sum; g^2 = epsilon * p.

The additive character carries a uniform factor 2 in the exponent:
character(ctx, t) is zeta^(2t mod p). All Gauss sums in this package
use that convention on both the closed-form and oracle sides.
"""

from dataclasses import dataclass
from itertools import repeat
from operator import mul
from typing import Tuple

import numpy as np

from .field import PrimeContext, chi_table, legendre, prime_cache


@dataclass(frozen=True)
class CycInt:
    p: int
    coeffs: Tuple[int, ...]  # length p-1, basis zeta^0..zeta^(p-2)

    def __post_init__(self):
        if len(self.coeffs) != self.p - 1:
            raise ValueError(f"need {self.p - 1} coefficients, got {len(self.coeffs)}")


@dataclass(frozen=True)
class QuadValue:
    a: int
    b: int


def cyc_zero(ctx: PrimeContext) -> CycInt:
    return CycInt(ctx.p, (0,) * (ctx.p - 1))


def cyc_const(ctx: PrimeContext, k: int) -> CycInt:
    return CycInt(ctx.p, (k,) + (0,) * (ctx.p - 2))


def zeta_power(ctx: PrimeContext, e: int) -> CycInt:
    """zeta^e reduced to the power basis."""
    p = ctx.p
    e %= p
    if e < p - 1:
        c = [0] * (p - 1)
        c[e] = 1
        return CycInt(p, tuple(c))
    return CycInt(p, (-1,) * (p - 1))


def character(ctx: PrimeContext, t: int) -> CycInt:
    """The additive character value zeta^(2t mod p)."""
    return zeta_power(ctx, 2 * t)


def _same_p(x: CycInt, y: CycInt):
    if x.p != y.p:
        raise ValueError(f"mixed primes {x.p} and {y.p}")


def cyc_add(x: CycInt, y: CycInt) -> CycInt:
    _same_p(x, y)
    return CycInt(x.p, tuple(a + b for a, b in zip(x.coeffs, y.coeffs)))


def cyc_neg(x: CycInt) -> CycInt:
    return CycInt(x.p, tuple(-a for a in x.coeffs))


def cyc_sub(x: CycInt, y: CycInt) -> CycInt:
    _same_p(x, y)
    return CycInt(x.p, tuple(a - b for a, b in zip(x.coeffs, y.coeffs)))


def cyc_scale(k: int, x: CycInt) -> CycInt:
    return CycInt(x.p, tuple(k * a for a in x.coeffs))


def reduce_exponent_vector(p: int, counts) -> Tuple[int, ...]:
    """Collapse integer weights on zeta^0..zeta^(p-1) to the power basis.

    counts[e] multiplies zeta^e for e in 0..p-1; the zeta^(p-1) weight is
    folded in via zeta^(p-1) = -(sum of lower powers). An integer
    ndarray is reduced by one vectorised subtraction, so its entries
    and their differences must fit its dtype; anything else is reduced
    in Python integers.
    """
    if len(counts) != p:
        raise ValueError(f"need {p} exponent weights")
    if isinstance(counts, np.ndarray):
        return tuple((counts[: p - 1] - counts[p - 1]).tolist())
    top = int(counts[p - 1])
    return tuple(int(c) - top for c in counts[: p - 1])


def cyc_mul(x: CycInt, y: CycInt) -> CycInt:
    _same_p(x, y)
    p = x.p
    # accumulate on zeta^0..zeta^(2p-4), fold exponents mod p, then reduce
    acc = [0] * p
    for i, a in enumerate(x.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(y.coeffs):
            if b:
                acc[(i + j) % p] += a * b
    return CycInt(p, reduce_exponent_vector(p, acc))


def cyc_pow(x: CycInt, k: int) -> CycInt:
    if k < 0:
        raise ValueError("negative power")
    out = CycInt(x.p, (1,) + (0,) * (x.p - 2))
    base = x
    while k:
        if k & 1:
            out = cyc_mul(out, base)
        if k > 1:
            base = cyc_mul(base, base)
        k >>= 1
    return out


def g_star_values(ctx: PrimeContext) -> Tuple[int, int]:
    """(g0, c): the coefficient of g* on zeta^0, and the one value c = 2*g0
    of its nonzero coefficients on zeta^1..zeta^(p-2). O(1) in p.

    s -> 2s puts weight chi(s) = chi(2e) on zeta^e for e = 2s != 0, and
    chi(-2) on zeta^(p-1). Folding zeta^(p-1) in gives -chi(-2) on
    zeta^0, and chi(2e) - chi(-2), which is 0 or -2*chi(-2), on zeta^e.
    """
    g0 = -legendre(ctx, -2)
    return g0, 2 * g0


@prime_cache
def g_star_shape(ctx: PrimeContext):
    """(g0, c, mask) with g* = g0 + c * (sum of zeta^e over the e in
    1..p-2 with mask[e-1]); see g_star_values. mask is a read-only bool
    array, built once per prime from the chi table: chi(2e) != chi(-2)
    exactly when chi(e) != chi(-1) = epsilon."""
    mask = chi_table(ctx)[1 : ctx.p - 1] != ctx.epsilon
    return (*g_star_values(ctx), mask)


@prime_cache
def g_star_one(ctx: PrimeContext) -> CycInt:
    """The scalar twisted sum: sum over s != 0 of chi(s) * zeta^(2s).

    Built once per prime from g_star_shape; later calls return the same
    object.
    """
    g0, c, mask = g_star_shape(ctx)
    return CycInt(ctx.p, (g0, *(mask * c).tolist()))


def quad_mul(u: QuadValue, v: QuadValue, ctx: PrimeContext) -> QuadValue:
    # (a1 + b1 g)(a2 + b2 g) with g^2 = eps * p
    ep = ctx.epsilon * ctx.p
    return QuadValue(u.a * v.a + ep * u.b * v.b, u.a * v.b + u.b * v.a)


def quad_pow(u: QuadValue, k: int, ctx: PrimeContext) -> QuadValue:
    if k < 0:
        raise ValueError("negative power")
    out = QuadValue(1, 0)
    base = u
    while k:
        if k & 1:
            out = quad_mul(out, base, ctx)
        if k > 1:
            base = quad_mul(base, base, ctx)
        k >>= 1
    return out


def embed(u: QuadValue, ctx: PrimeContext) -> CycInt:
    """Image of a + b*g in Z[zeta_p]: b times g*, plus a on zeta^0."""
    g = g_star_one(ctx).coeffs
    coeffs = list(map(mul, repeat(u.b, len(g)), g))
    coeffs[0] += u.a
    return CycInt(ctx.p, tuple(coeffs))
