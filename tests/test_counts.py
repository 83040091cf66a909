from fractions import Fraction

import pytest
import reference

from isogauss import (
    NONSQ,
    SQ,
    FormClass,
    canonical_matrix,
    all_classes,
    clear_caches,
    cli,
    counts,
    field,
    formulas,
    iso_count,
    iso_subspaces_bf,
    orth_order,
    prime_context,
    qfunc,
    rep_count_bf,
    rep_star_lemma51,
    rep_zero_full,
)


def test_qfunc_frozen_values(ctx3):
    assert qfunc(ctx3, "mu", 2, 1) == 8
    assert qfunc(ctx3, "mu", 2, 2) == 8 * 2
    assert qfunc(ctx3, "delta", 1, 1) == 4
    assert qfunc(ctx3, "mudelta", 1, 1) == 8
    assert qfunc(ctx3, "mudelta", 2, 2) == 80 * 8
    assert qfunc(ctx3, "beta", 2, 1) == 4
    assert qfunc(ctx3, "gamma", 2, 1) == 10
    assert qfunc(ctx3, "nu", 2, 0) == 48  # |GL_2(F_3)|
    assert qfunc(ctx3, "nu", 2, 2) == 1
    assert qfunc(ctx3, "nu", 3, 0) == 11232


def test_qfunc_empty_products(ctx5):
    for kind in ("mu", "delta", "mudelta", "beta", "gamma"):
        assert qfunc(ctx5, kind, 3, 0) == 1
    assert qfunc(ctx5, "beta", 3, -1) == 0
    assert qfunc(ctx5, "beta", 2, 3) == 0  # no 3-dim subspaces of F^2


def test_qfunc_rejects(ctx3):
    with pytest.raises(ValueError):
        qfunc(ctx3, "zeta", 1, 1)
    with pytest.raises(ValueError):
        qfunc(ctx3, "mu", 2, -1)
    with pytest.raises(ValueError):
        qfunc(ctx3, "gamma", 2, -1)


def test_beta_counts_subspaces(ctx3):
    # beta(4,2) at p=3: Gaussian binomial [4 choose 2]_3 = 130
    assert qfunc(ctx3, "beta", 4, 2) == 130


def test_scalar_representation_counts(ctx3, ctx5):
    # vectors with x^2+y^2 = 1 over F_3: (+-1,0),(0,+-1)
    assert rep_star_lemma51(ctx3, "I", 2, "one") == 4
    assert rep_star_lemma51(ctx3, "I", 2, "omega") == 4
    assert rep_star_lemma51(ctx3, "J", 2, "one") == 2
    assert rep_star_lemma51(ctx3, "I", 3, "one") == 6
    assert rep_star_lemma51(ctx3, "I", 3, "omega") == 12
    assert rep_star_lemma51(ctx3, "J", 3, "one") == 12
    assert rep_star_lemma51(ctx3, "J", 3, "omega") == 6
    assert rep_star_lemma51(ctx5, "I", 2, "one") == 4


def test_zero_representation_counts(ctx3, ctx5):
    assert rep_star_lemma51(ctx3, "I", 2, ("zeros", 1)) == 0
    assert rep_star_lemma51(ctx3, "J", 2, ("zeros", 1)) == 4
    assert rep_star_lemma51(ctx3, "I", 4, ("zeros", 1)) == 32
    assert rep_star_lemma51(ctx3, "J", 4, ("zeros", 1)) == 20
    assert rep_star_lemma51(ctx3, "I", 3, ("zeros", 1)) == 8
    # beyond the Witt index everything vanishes
    assert rep_star_lemma51(ctx3, "I", 2, ("zeros", 2)) == 0
    assert rep_star_lemma51(ctx5, "I", 2, ("zeros", 2)) == 0
    assert rep_star_lemma51(ctx3, "I", 3, ("zeros", 3)) == 0


def test_scalar_counts_match_dp_oracle():
    for p in (3, 5):
        ctx = prime_context(p)
        for size in (2, 3, 4):
            for form, disc in (("I", SQ), ("J", NONSQ)):
                X = canonical_matrix(ctx, FormClass(size, size, disc))
                for label, target in (("one", ((1,),)), ("omega", ((ctx.omega,),))):
                    want = rep_count_bf(ctx, X, target, primitive=True)
                    assert rep_star_lemma51(ctx, form, size, label) == want


def test_orthogonal_group_orders(ctx3):
    assert orth_order(ctx3, FormClass(2, 2, SQ)) == 8
    assert orth_order(ctx3, FormClass(2, 2, NONSQ)) == 4
    assert orth_order(ctx3, FormClass(3, 3, SQ)) == 48
    assert orth_order(ctx3, FormClass(3, 3, NONSQ)) == 48
    assert orth_order(ctx3, FormClass(4, 4, SQ)) == 1152
    assert orth_order(ctx3, FormClass(4, 4, NONSQ)) == 1440
    assert orth_order(ctx3, FormClass(5, 5, SQ)) == 103680
    assert orth_order(ctx3, FormClass(4, 3, SQ)) == 2592
    assert orth_order(ctx3, FormClass(2, 0, SQ)) == 48
    assert orth_order(ctx3, FormClass(0, 0, SQ)) == 1


def test_orth_order_is_self_representation(ctx3):
    # o(X) counts the congruence self-equivalences, so the DP oracle
    # evaluated at Y = X must agree
    for n in (1, 2, 3):
        for c in all_classes(n):
            X = canonical_matrix(ctx3, c)
            assert orth_order(ctx3, c) == rep_count_bf(
                ctx3, X, X, primitive=True
            )


def test_iso_count_examples(ctx3, ctx5):
    assert iso_count(ctx5, FormClass(2, 2, SQ), 1) == 2
    assert iso_count(ctx3, FormClass(2, 2, SQ), 1) == 0
    assert iso_count(ctx3, FormClass(2, 2, NONSQ), 1) == 2
    assert iso_count(ctx3, FormClass(2, 0, SQ), 1) == 4  # beta(2,1)
    assert iso_count(ctx3, FormClass(3, 3, SQ), 0) == 1
    assert iso_count(ctx3, FormClass(3, 3, SQ), 1) == 4


def test_iso_count_matches_subspace_oracle():
    for p in (3, 5):
        ctx = prime_context(p)
        for n in (1, 2, 3):
            for c in all_classes(n):
                X = canonical_matrix(ctx, c)
                for j in range(n + 1):
                    assert iso_count(ctx, c, j) == iso_subspaces_bf(ctx, X, j)


def test_rep_zero_full(ctx3):
    # all columns, not only full-rank ones
    assert rep_zero_full(ctx3, FormClass(3, 3, SQ), 3) == 105
    assert rep_zero_full(ctx3, FormClass(2, 2, NONSQ), 2) == 17
    assert rep_zero_full(ctx3, FormClass(2, 2, SQ), 2) == 1
    for n in (1, 2, 3):
        for c in all_classes(n):
            X = canonical_matrix(ctx3, c)
            Y = tuple(tuple(0 for _ in range(n)) for _ in range(n))
            assert rep_zero_full(ctx3, c, n) == rep_count_bf(ctx3, X, Y)


def _rational_lemma51_zeros(ctx, form, size, d):
    # lemma 5.1's even-size zero target as written in the paper, with a
    # possibly negative power p^(t-d)
    p, eps = ctx.p, ctx.epsilon
    t = size // 2
    sign = -1 if form == "I" else 1
    return (
        Fraction(p) ** (d * (d - 1) // 2)
        * (p**t + sign * eps**t)
        * qfunc(ctx, "mudelta", t - 1, d - 1)
        * (Fraction(p) ** (t - d) - sign * eps**t)
    )


def test_integer_counts_match_the_rational_formulas():
    # p = 3 and 10009 have epsilon = -1, p = 5 has epsilon = +1
    for p in (3, 5, 10009):
        ctx = prime_context(p)
        for t in range(13):
            for s in range(13):
                beta = qfunc(ctx, "beta", t, s)
                gamma = qfunc(ctx, "gamma", t, s)
                assert type(beta) is int and type(gamma) is int
                assert beta == Fraction(qfunc(ctx, "mu", t, s), qfunc(ctx, "mu", s, s))
                assert gamma == Fraction(
                    qfunc(ctx, "mudelta", t, s), qfunc(ctx, "mudelta", s, s)
                )
        for size in range(2, 13, 2):
            for d in range(1, size + 1):  # d > size/2 lies past the Witt index
                for form in ("I", "J"):
                    got = rep_star_lemma51(ctx, form, size, ("zeros", d))
                    assert type(got) is int
                    assert got == _rational_lemma51_zeros(ctx, form, size, d)


def test_exact_div_and_frames():
    assert counts.exact_div(6, 2, "x") == 3
    assert counts.exact_div(Fraction(9, 1), 3, "x") == 3
    with pytest.raises(ArithmeticError, match="x is not integral"):
        counts.exact_div(7, 2, "x")
    with pytest.raises(ArithmeticError):
        counts.exact_div(Fraction(1, 2), 1, "x")
    # the message is formatted only when it is raised, and names the
    # quantity as the arguments give it
    class Unformattable:
        def __format__(self, spec):
            raise AssertionError("formatted a message that was not raised")

    assert counts.exact_div(6, 3, "iso count for {}, j={}", Unformattable(), 1) == 2
    c = FormClass(3, 2, SQ)
    with pytest.raises(ArithmeticError) as e:
        counts.exact_div(7, 2, "iso count for {}, j={}", c, 1)
    assert str(e.value) == "iso count for FormClass(n=3, d=2, disc='sq'), j=1 is not integral"
    assert counts.frames(3, 2, 2) == 48  # |GL_2(F_3)|
    assert counts.frames(3, 2, 0) == 1
    assert counts.frames(3, 2, 3) == 0  # no 3 independent vectors in F_3^2


# each product function read from the prefix table, and its loop
_PRODUCTS = (
    (counts._mu, reference.mu),
    (counts._delta, reference.delta),
    (counts._mudelta, reference.mudelta),
    (counts._nu, reference.nu),
)


# t <= 20 at the two large primes: a product at t = 60 there has up to
# 58,000 bits, and the whole grid took 13 s at p = 3037000493
@pytest.mark.parametrize("p, max_t", [(3, 60), (5, 60), (10009, 20), (3037000493, 20)])
def test_prefix_products_equal_their_loops(p, max_t):
    # -2 <= t <= max_t and 0 <= s <= 62: the 0s once an exponent-0 factor
    # enters, delta's factor 2 at s = t + 1 and its ValueError past it;
    # frames at t >= 0 only, where its loop is an integer count
    clear_caches()
    for t in range(-2, max_t + 1):
        for s in range(63):
            for fn, loop in _PRODUCTS:
                assert _outcome(fn, p, t, s) == _outcome(loop, p, t, s), (fn.__name__, t, s)
            if t >= 0:
                assert counts.frames(p, t, s) == reference.frames(p, t, s), (t, s)
        assert formulas._odd_product(p, t) == reference.odd_product(p, t), t
    assert counts._prefix.cache_info().primes == 1
    clear_caches()


# primes on both sides of the int16 boundary, epsilon = -1 and +1, and
# the largest p a context accepts
_MEMO_PRIMES = (3, 5, 10009, 32749, 32771, 3037000493)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:
        return type(e), str(e)


def _memo_grid(ctx):
    """(memoized function, arguments) over small grids, some of them
    outside the functions' domains."""
    for kind in counts._KINDS + ("zeta",):
        for t in range(6):
            for s in range(-1, 7):
                yield qfunc, (ctx, kind, t, s)
    for form in ("I", "J", "K"):
        for size in range(0, 8):
            for target in ("one", "omega", "two", *(("zeros", d) for d in range(0, 5))):
                yield rep_star_lemma51, (ctx, form, size, target)
    for n in range(0, 6):
        for c in all_classes(n) if n else [FormClass(0, 0, SQ)]:
            yield orth_order, (ctx, c)
            for j in range(-1, n + 2):
                yield iso_count, (ctx, c, j)
    yield orth_order, (ctx, FormClass(2, 3, SQ))
    for n in range(1, 7):
        for d in range(n + 1):
            for t in range(n // 2 + 1):
                yield formulas._even_restricted, (ctx, n, d, t)


@pytest.mark.parametrize("p", _MEMO_PRIMES)
def test_memoized_counts_equal_the_plain_functions(p):
    ctx = prime_context(p)
    for fn, args in _memo_grid(ctx):
        want = _outcome(fn.__wrapped__, *args)
        # twice: the first call may fill the memo, the second reads it
        assert _outcome(fn, *args) == want, (fn.__name__, args)
        assert _outcome(fn, *args) == want, (fn.__name__, args)


# every per-prime cache of the package; a cache made by anything but
# field.prime_cache is not in field._CACHES, and fails the test below
_CACHES = {
    "isogauss.field.prime_context",
    "isogauss.field.chi_table",
    "isogauss.cyclotomic.g_star_shape",
    "isogauss.cyclotomic.g_star_one",
    "isogauss.quadform._eliminate",
    "isogauss.counts._prefix",
    "isogauss.counts.qfunc",
    "isogauss.counts.rep_star_lemma51",
    "isogauss.counts.orth_order",
    "isogauss.counts.iso_count",
    "isogauss.formulas._even_restricted",
    "isogauss.oracle._classified",
    "isogauss.oracle._class_sums",
    "isogauss.oracle._canonical_counts",
    "isogauss.oracle._canonical_vectors",
    "isogauss.oracle._lines",
    "isogauss.oracle._row_set",
    "isogauss.oracle._family_rows",
    "isogauss.oracle._line_forms",
    "isogauss.cli._zero_gaps",
    "isogauss.cli._zero_tail",
}


def test_every_registered_cache_is_bounded():
    # each cache keeps at most field.CACHED_PRIMES primes
    # (tests/test_cli.py loops over 40 of them); the closed-form memos
    # also keep at most MEMO_SIZE entries over all primes. Each module
    # registers its caches when imported; the package imports all but cli
    names = [f"{c.__module__}.{c.__qualname__}" for c in field._CACHES]
    assert sorted(names) == sorted(_CACHES)
    clear_caches()
    for t in range(91):  # 8281 values of one prime
        for s in range(91):
            qfunc(prime_context(3), "mu", t, s)
    assert qfunc.cache_info() == (0, 8281, 1, counts.MEMO_SIZE)
    assert qfunc(prime_context(5), "mu", 1, 1) == 4
    assert qfunc.cache_info()[2:] == (2, counts.MEMO_SIZE)
    clear_caches()


def test_memoized_counts_reject_as_before(ctx3):
    # an unhashable argument must reach the function's own checks, not
    # fail as a TypeError in the cache
    bad = [
        (qfunc, (ctx3, ["mu"], 1, 1)),
        (qfunc, (ctx3, "zeta", 1, 1)),
        (qfunc, (ctx3, "mu", 2, -1)),
        (rep_star_lemma51, (ctx3, "I", 3, ["zeros", 2])),
        (rep_star_lemma51, (ctx3, ["I"], 3, "one")),
        (rep_star_lemma51, (ctx3, "I", 0, "one")),
        (rep_star_lemma51, (ctx3, "I", 3, ("zeros", 0))),
        (orth_order, (ctx3, FormClass(2, 3, SQ))),
        (iso_count, (ctx3, FormClass(2, 2, SQ), 3)),
        (formulas._even_restricted, (ctx3, 3, 1, 0)),
    ]
    for fn, args in bad:
        with pytest.raises(Exception) as plain:
            fn.__wrapped__(*args)
        with pytest.raises(Exception) as memo:
            fn(*args)
        assert type(memo.value) is type(plain.value), (fn.__name__, args)
        assert str(memo.value) == str(plain.value), (fn.__name__, args)
    with pytest.raises(ValueError, match="unsupported target"):
        rep_star_lemma51(ctx3, "I", 3, ["zeros", 2])
