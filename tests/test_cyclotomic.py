import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isogauss import (
    CycInt,
    QuadValue,
    character,
    cyc_add,
    cyc_const,
    cyc_mul,
    cyc_neg,
    cyc_pow,
    cyc_scale,
    cyc_zero,
    embed,
    g_star_one,
    legendre,
    prime_context,
    quad_mul,
    quad_pow,
)
from isogauss.cyclotomic import cyc_sub, reduce_exponent_vector, zeta_power

PRIMES = (3, 5, 7)


def _cyc(p, coeffs):
    return CycInt(p, tuple(coeffs))


coeff_int = st.integers(min_value=-50, max_value=50)


@st.composite
def cyc_elems(draw, p):
    return _cyc(p, draw(st.lists(coeff_int, min_size=p - 1, max_size=p - 1)))


@given(st.data())
@settings(max_examples=200)
def test_ring_axioms(data):
    p = data.draw(st.sampled_from(PRIMES))
    x = data.draw(cyc_elems(p))
    y = data.draw(cyc_elems(p))
    z = data.draw(cyc_elems(p))
    assert cyc_add(x, y) == cyc_add(y, x)
    assert cyc_mul(x, y) == cyc_mul(y, x)
    assert cyc_add(cyc_add(x, y), z) == cyc_add(x, cyc_add(y, z))
    assert cyc_mul(cyc_mul(x, y), z) == cyc_mul(x, cyc_mul(y, z))
    assert cyc_mul(x, cyc_add(y, z)) == cyc_add(cyc_mul(x, y), cyc_mul(x, z))
    ctx = prime_context(p)
    assert cyc_add(x, cyc_zero(ctx)) == x
    assert cyc_mul(x, cyc_const(ctx, 1)) == x
    assert cyc_add(x, cyc_neg(x)) == cyc_zero(ctx)
    assert cyc_sub(x, y) == cyc_add(x, cyc_neg(y))


@given(st.data())
@settings(max_examples=100)
def test_scale_and_pow(data):
    p = data.draw(st.sampled_from(PRIMES))
    ctx = prime_context(p)
    x = data.draw(cyc_elems(p))
    k = data.draw(st.integers(min_value=-10, max_value=10))
    assert cyc_scale(k, x) == cyc_mul(cyc_const(ctx, k), x)
    e = data.draw(st.integers(min_value=0, max_value=5))
    acc = cyc_const(ctx, 1)
    for _ in range(e):
        acc = cyc_mul(acc, x)
    assert cyc_pow(x, e) == acc


def test_zeta_relations():
    for p in PRIMES:
        ctx = prime_context(p)
        # zeta^p = 1 and the p powers of zeta sum to zero
        assert zeta_power(ctx, p) == cyc_const(ctx, 1)
        total = cyc_zero(ctx)
        for e in range(p):
            total = cyc_add(total, zeta_power(ctx, e))
        assert total == cyc_zero(ctx)
        for t in range(p):
            assert character(ctx, t) == zeta_power(ctx, 2 * t)


def test_reduce_exponent_vector_drops_top_power():
    # counts indexed by exponent 0..p-1; zeta^(p-1) = -(1 + ... + zeta^(p-2))
    assert reduce_exponent_vector(3, [0, 0, 1]) == (-1, -1)
    assert reduce_exponent_vector(3, [2, 5, 0]) == (2, 5)
    assert reduce_exponent_vector(5, [1, 0, 0, 0, 3]) == (-2, -3, -3, -3)


def test_reduce_exponent_vector_list_and_ndarray_agree():
    rng = np.random.default_rng(7)
    for p in (3, 5, 101, 10007):
        counts = rng.integers(-(10**12), 10**12, size=p, dtype=np.int64)
        want = reduce_exponent_vector(p, counts.tolist())
        got = reduce_exponent_vector(p, counts)
        assert got == want
        assert all(type(c) is int for c in got)


def _g_star_by_loop(ctx):
    # the defining sum, one exponent at a time
    p = ctx.p
    acc = [0] * p
    for s in range(1, p):
        acc[(2 * s) % p] += legendre(ctx, s)
    return CycInt(p, reduce_exponent_vector(p, acc))


def test_g_star_matches_the_defining_loop():
    for p in (3, 5, 7, 13, 101, 10007, 100003):
        ctx = prime_context(p)
        assert g_star_one(ctx) == _g_star_by_loop(ctx)


def test_g_star_is_built_once_per_prime():
    ctx = prime_context(101)
    assert g_star_one(ctx) is g_star_one(ctx)
    assert g_star_one(ctx) is g_star_one(prime_context(101))
    assert g_star_one(ctx) is not g_star_one(prime_context(103))


big_int = st.integers(min_value=-(10**60), max_value=10**60)


# p = 1 mod 4 at 5, 13, 101; p = 3 mod 4 at 3, 7, 10007, 100003
@given(st.sampled_from((3, 5, 7, 13, 101, 10007, 100003)), big_int, big_int)
@settings(max_examples=40, deadline=None)
def test_embed_matches_sum_of_scaled_g_star(p, a, b):
    ctx = prime_context(p)
    want = cyc_add(cyc_const(ctx, a), cyc_scale(b, g_star_one(ctx)))
    assert embed(QuadValue(a, b), ctx) == want


def test_g_at_three():
    ctx = prime_context(3)
    g = g_star_one(ctx)
    assert g.coeffs == (-1, -2)  # zeta^2 - zeta


def test_g_squared_is_eps_p():
    for p in (3, 5, 7, 11, 13):
        ctx = prime_context(p)
        g = g_star_one(ctx)
        assert cyc_mul(g, g) == cyc_const(ctx, ctx.epsilon * p)


@given(st.data())
@settings(max_examples=150)
def test_embed_is_a_ring_map(data):
    p = data.draw(st.sampled_from(PRIMES))
    ctx = prime_context(p)
    qv = st.builds(
        QuadValue,
        st.integers(min_value=-30, max_value=30),
        st.integers(min_value=-30, max_value=30),
    )
    u = data.draw(qv)
    v = data.draw(qv)
    lhs = embed(quad_mul(u, v, ctx), ctx)
    rhs = cyc_mul(embed(u, ctx), embed(v, ctx))
    assert lhs == rhs


def test_quad_mul_uses_g_squared(ctx3):
    # (a+bg)(c+dg) with g^2 = -3 at p = 3
    out = quad_mul(QuadValue(1, 2), QuadValue(3, 4), ctx3)
    assert out == QuadValue(3 - 24, 4 + 6)


def test_quad_pow_matches_embedding(ctx5):
    u = QuadValue(2, -1)
    for k in range(5):
        assert embed(quad_pow(u, k, ctx5), ctx5) == cyc_pow(embed(u, ctx5), k)


def test_mixed_primes_rejected():
    x = _cyc(3, (1, 0))
    y = _cyc(5, (1, 0, 0, 0))
    with pytest.raises(ValueError):
        cyc_add(x, y)
