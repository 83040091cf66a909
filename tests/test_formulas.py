from fractions import Fraction

import pytest

from isogauss import (
    NONSQ,
    SQ,
    FormClass,
    QuadValue,
    all_classes,
    clear_caches,
    cor12_check,
    embed,
    formulas,
    gauss_restricted_bf,
    gauss_twisted_bf,
    gauss_zero_even,
    lemma52_check,
    lemma54_h,
    lemma54_sum,
    lemma54_target,
    orbit_size,
    prime_context,
    prop41_value,
    qfunc,
    quad_mul,
    thm11_value,
    untwisted_closed,
)

PRIMES = (3, 5, 7)


def test_thm11_frozen(ctx3):
    assert thm11_value(ctx3, 1, 1, SQ) == QuadValue(0, 1)
    assert thm11_value(ctx3, 1, 1, NONSQ) == QuadValue(0, -1)
    assert thm11_value(ctx3, 2, 2, SQ) == QuadValue(3, 0)
    assert thm11_value(ctx3, 2, 1, SQ) == QuadValue(-6, 0)
    assert thm11_value(ctx3, 3, 3, SQ) == QuadValue(0, -9)
    assert thm11_value(ctx3, 3, 2, SQ) == QuadValue(0, 0)
    assert thm11_value(ctx3, 2, 0, SQ) == QuadValue(-6, 0)


def test_thm11_sign_structure():
    # even n: free of the discriminant; odd n: the NonSquare class
    # negates; even-rank arguments of odd-dimensional spaces vanish
    for p in PRIMES:
        ctx = prime_context(p)
        for n in range(1, 5):
            for d in range(0, n + 1):
                v = thm11_value(ctx, n, d, SQ)
                if d >= 1:
                    w = thm11_value(ctx, n, d, NONSQ)
                    if n % 2 == 0:
                        assert v == w
                    else:
                        assert w == QuadValue(-v.a, -v.b)
                if n % 2 == 0:
                    assert v.b == 0
                else:
                    assert v.a == 0
                    if d % 2 == 0:
                        assert v == QuadValue(0, 0)


def test_thm11_rejects(ctx3):
    with pytest.raises(ValueError):
        thm11_value(ctx3, 0, 0, SQ)
    with pytest.raises(ValueError):
        thm11_value(ctx3, 2, 3, SQ)
    with pytest.raises(ValueError):
        thm11_value(ctx3, 2, 0, NONSQ)
    with pytest.raises(ValueError):
        thm11_value(ctx3, 2, 1, "square")


def test_zero_form_values(ctx3, ctx5):
    assert gauss_zero_even(ctx3, 0) == QuadValue(1, 0)
    assert gauss_zero_even(ctx3, 1) == QuadValue(-6, 0)
    assert gauss_zero_even(ctx5, 1) == QuadValue(20, 0)
    # matches the d=0 branch of the main theorem
    assert thm11_value(ctx3, 2, 0, SQ) == gauss_zero_even(ctx3, 1)
    assert thm11_value(ctx3, 4, 0, SQ) == gauss_zero_even(ctx3, 2)
    assert thm11_value(ctx3, 3, 0, SQ) == QuadValue(0, 0)


def test_cor12_frozen(ctx3, ctx5):
    lhs, rhs, ok = cor12_check(ctx3, ((1,),))
    assert ok and lhs.coeffs == (-3, 0)
    lhs, rhs, ok = cor12_check(ctx5, ((1,),))
    assert ok and lhs.coeffs == (5, 0, 0, 0)
    lhs, rhs, ok = cor12_check(ctx3, ((0,),))
    assert ok and lhs.coeffs == (0, 0)


def test_cor12_with_oracle_lhs(ctx3):
    # same identity with the left side taken from the enumeration
    for T in (((1, 0), (0, 1)), ((1, 0), (0, 0)), ((1, 0), (0, 2))):
        lhs, rhs, ok = cor12_check(ctx3, T, use_oracle=True)
        assert ok


def test_prop41_even_rank_frozen(ctx3):
    cases = {
        (2, 1, 2): -6,
        (3, 1, 2): -78,
        (3, 3, 2): 3,
        (4, 1, 2): -780,
        (4, 3, 2): -51,
        (4, 1, 4): 4212,
        (4, 3, 4): -162,
        (2, 2, 2): 3,
    }
    for (n, d, r), want in cases.items():
        assert prop41_value(ctx3, n, d, SQ, r) == QuadValue(want, 0)


def test_prop41_odd_rank_frozen(ctx3):
    assert prop41_value(ctx3, 1, 1, SQ, 1) == QuadValue(0, 1)
    assert prop41_value(ctx3, 2, 1, SQ, 1) == QuadValue(0, 3)
    assert prop41_value(ctx3, 2, 2, SQ, 1) == QuadValue(0, 0)
    assert prop41_value(ctx3, 1, 1, NONSQ, 1) == QuadValue(0, -1)


def test_prop41_boundaries(ctx3):
    for n in (1, 2, 3):
        for d in range(n + 1):
            assert prop41_value(ctx3, n, d, SQ, 0) == QuadValue(0, 0)
    # r = n recovers the full closed value
    for n in (1, 2, 3, 4):
        for d in range(n + 1):
            discs = (SQ, NONSQ) if d else (SQ,)
            for disc in discs:
                assert prop41_value(ctx3, n, d, disc, n) == thm11_value(
                    ctx3, n, d, disc
                )
    with pytest.raises(ValueError):
        prop41_value(ctx3, 2, 1, SQ, 3)
    with pytest.raises(ValueError):
        prop41_value(ctx3, 2, 1, SQ, -1)
    # an unknown disc is refused, as thm11_value refuses it
    for r in (1, 3):
        with pytest.raises(ValueError):
            prop41_value(ctx3, 3, 3, "square", r)
    with pytest.raises(ValueError):
        prop41_value(ctx3, 2, 0, "bogus", 2)


def test_prop41_disc_structure(ctx3, ctx5):
    # odd restriction rank: NonSquare argument negates; even: no change
    for ctx in (ctx3, ctx5):
        for n in (2, 3, 4):
            for d in range(1, n + 1):
                for r in range(1, n + 1):
                    v = prop41_value(ctx, n, d, SQ, r)
                    w = prop41_value(ctx, n, d, NONSQ, r)
                    if r % 2:
                        assert (w.a, w.b) == (-v.a, -v.b)
                        assert v.a == 0
                    else:
                        assert v == w
                        assert v.b == 0


def test_prop41_matches_oracle_spot(ctx5):
    T = ((1, 0), (0, 1))
    for r in (1, 2):
        closed = embed(prop41_value(ctx5, 2, 2, SQ, r), ctx5)
        assert closed == gauss_restricted_bf(ctx5, T, r)


def test_untwisted_closed_values(ctx3, ctx5):
    assert untwisted_closed(ctx3, 1, "G_I") == QuadValue(0, 1)
    assert untwisted_closed(ctx3, 2, "G_I") == QuadValue(9, 0)
    assert untwisted_closed(ctx3, 1, "G_J") == QuadValue(0, -1)
    assert untwisted_closed(ctx3, 1, "Gbar_I") == QuadValue(0, -1)
    # A = B = J twists by chi(omega^2) = +1, so the bar-J sum stays
    # positive; the three-term sum over F_3 is 1 + 2*zeta^2 = g
    assert untwisted_closed(ctx3, 1, "Gbar_J") == QuadValue(0, 1)
    assert untwisted_closed(ctx5, 2, "Gbar_J") == QuadValue(25, 0)
    assert untwisted_closed(ctx3, 2, "G_J") == QuadValue(9, 0)
    assert untwisted_closed(ctx3, 3, "G_J") == QuadValue(0, -81)
    with pytest.raises(ValueError):
        untwisted_closed(ctx3, 1, "G_K")
    with pytest.raises(ValueError):
        untwisted_closed(ctx3, 0, "G_I")


def test_lemma54_h_values(ctx3):
    assert lemma54_h(ctx3, 2, 2, SQ) == Fraction(-1)
    assert lemma54_h(ctx3, 2, 2, NONSQ) == Fraction(-1)
    assert lemma54_h(ctx3, 1, 1, SQ) == Fraction(1)
    assert lemma54_h(ctx3, 1, 1, NONSQ) == Fraction(-1)
    assert lemma54_h(ctx3, 2, 0, SQ) == Fraction(2)
    assert lemma54_h(ctx3, 1, 0, SQ) == Fraction(0)
    assert lemma54_h(ctx3, 3, 2, SQ) == Fraction(0)
    # odd rank inside odd ell scales by eps^b p^(-b)
    assert lemma54_h(ctx3, 3, 3, SQ) == Fraction(-(-1), 3)


def test_lemma54_sum_examples(ctx3):
    assert lemma54_sum(ctx3, 1, "I", 1) == Fraction(1)
    assert lemma54_sum(ctx3, 2, "I", 1) == Fraction(0)
    assert lemma54_sum(ctx3, 2, "I", 2) == Fraction(-1)
    assert lemma54_sum(ctx3, 1, "J", 1) == Fraction(-1)
    for d, form, ell in ((1, "I", 1), (2, "J", 2), (3, "I", 2), (3, "J", 3)):
        assert lemma54_sum(ctx3, d, form, ell) == lemma54_target(ctx3, d, form, ell)


def test_lemma52_examples(ctx3, ctx5):
    for ctx in (ctx3, ctx5):
        for m in (0, 1, 2):
            lhs, rhs, ok = lemma52_check(ctx, m, "odd")
            assert ok
    lhs, rhs, ok = lemma52_check(ctx3, 1, "odd")
    assert (lhs, rhs) == (105, 105)
    lhs, rhs, ok = lemma52_check(ctx3, 1, "even_match")
    assert (lhs, rhs) == (17, 17)
    lhs, rhs, ok = lemma52_check(ctx3, 0, "even_match")
    assert (lhs, rhs) == (1, 1)
    lhs, rhs, ok = lemma52_check(ctx3, 1, "even_cross")
    assert (lhs, rhs) == (1, 1)
    with pytest.raises(ValueError):
        lemma52_check(ctx3, 0, "even_cross")
    with pytest.raises(ValueError):
        lemma52_check(ctx3, 1, "sideways")


def test_rank_zero_restricted_difference(ctx3):
    # the restricted sum of the zero form is a bare difference of two
    # orbit sizes, a useful cross-light on the even-rank display
    from isogauss import orbit_size, FormClass

    for n in (2, 3, 4):
        for r in range(1, n + 1):
            v = prop41_value(ctx3, n, 0, SQ, r)
            diff = orbit_size(ctx3, FormClass(n, r, SQ)) - orbit_size(
                ctx3, FormClass(n, r, NONSQ)
            )
            assert v == QuadValue(diff, 0)


def _orbit_weighted_sum(ctx, n, value):
    """Sum over the classes C of size n of orbit_size(C) * value(C),
    as the pair (a, b) of a + b*g*."""
    a = b = 0
    for c in all_classes(n):
        v = value(c)
        a += orbit_size(ctx, c) * v.a
        b += orbit_size(ctx, c) * v.b
    return a, b


@pytest.mark.parametrize("p", [3, 5, 10009, 3037000493])
def test_even_restricted_is_an_int_wherever_prop41_reads_it(p, monkeypatch):
    # every rank of every class with n <= 12: each even-rank core that
    # prop41_value reads, at its own rank or one dimension down for an
    # odd rank, is a Python int, not a Fraction
    read = []
    core = formulas._even_restricted

    def recorded(*args):
        value = core(*args)
        read.append(type(value))
        return value

    monkeypatch.setattr(formulas, "_even_restricted", recorded)
    ctx = prime_context(p)
    clear_caches()
    for n in range(1, 13):
        for c in all_classes(n):
            for r in range(n + 1):
                prop41_value(ctx, n, c.d, c.disc, r)
    assert len(read) > 100 and set(read) == {int}
    clear_caches()


@pytest.mark.parametrize("p", [3, 5, 10009, 3037000493])
def test_thm11_sums_to_zero_over_all_t(p):
    # sum over every symmetric T of G*(T) is p^N times the S = 0 term,
    # chi(det 0) = 0: an inversion check of the closed forms far past the
    # grid the oracle reaches
    ctx = prime_context(p)
    for n in range(1, 21):
        assert sum(orbit_size(ctx, c) for c in all_classes(n)) == p ** (n * (n + 1) // 2)
        total = _orbit_weighted_sum(ctx, n, lambda c: thm11_value(ctx, n, c.d, c.disc))
        assert total == (0, 0), (p, n)


# the largest n of the prop41 inversion and Parseval checks at each p
_PROP41_MAX_N = {3: 20, 5: 10, 10009: 20, 3037000493: 10}


@pytest.mark.parametrize("p", [3, 10009, 3037000493])
def test_prop41_sums_to_zero_over_all_t(p):
    # likewise for G*(T; r), r >= 1: S = 0 lies in neither rank-r orbit
    ctx = prime_context(p)
    for n in range(1, _PROP41_MAX_N[p] + 1):
        for r in range(1, n + 1):
            total = _orbit_weighted_sum(
                ctx, n, lambda c: prop41_value(ctx, n, c.d, c.disc, r)
            )
            assert total == (0, 0), (p, n, r)


def _orbit_weighted_norm(ctx, n, value):
    """Sum over the classes C of size n of orbit_size(C) * |value(C)|^2,
    with |a + b*g*|^2 = (a + b*g*)(a + chi(-1)*b*g*) = a^2 + p*b^2 +
    (1 + chi(-1))*a*b*g*, as the pair (a, b) of a + b*g*."""
    a = b = 0
    for c in all_classes(n):
        v = value(c)
        norm = quad_mul(v, QuadValue(v.a, ctx.epsilon * v.b), ctx)
        a += orbit_size(ctx, c) * norm.a
        b += orbit_size(ctx, c) * norm.b
    return a, b


def _rank_count(ctx, n, r):
    """The number of symmetric n x n matrices of rank r >= 1."""
    return sum(orbit_size(ctx, FormClass(n, r, disc)) for disc in (SQ, NONSQ))


@pytest.mark.parametrize("p", [3, 5, 10009, 3037000493])
def test_thm11_parseval(p):
    # Parseval over the additive characters of the p^N symmetric T: the
    # sum of |G*(T)|^2 is p^N times the number of nonsingular S
    ctx = prime_context(p)
    for n in range(1, 21):
        N = n * (n + 1) // 2
        total = _orbit_weighted_norm(ctx, n, lambda c: thm11_value(ctx, n, c.d, c.disc))
        assert total == (p**N * _rank_count(ctx, n, n), 0), (p, n)


@pytest.mark.parametrize("p", [3, 5, 10009, 3037000493])
def test_prop41_parseval(p):
    # likewise for G*(T; r), r >= 1: p^N times the number of rank-r S
    ctx = prime_context(p)
    for n in range(1, _PROP41_MAX_N[p] + 1):
        N = n * (n + 1) // 2
        for r in range(1, n + 1):
            total = _orbit_weighted_norm(
                ctx, n, lambda c: prop41_value(ctx, n, c.d, c.disc, r)
            )
            assert total == (p**N * _rank_count(ctx, n, r), 0), (p, n, r)


@pytest.mark.parametrize(
    "p, max_n",
    [(3, 40), (5, 40), (7, 40), (11, 40), (127, 40), (131, 40), (32749, 40),
     (32771, 40), (10009, 40), (10**9 + 7, 20)],
)
def test_thm11_scales_by_a_nonsquare(p, max_n):
    # S -> omega S with omega a nonsquare: G*(omega T) = chi(omega)^n G*(T),
    # and omega T has T's rank with its disc flipped exactly when the rank
    # is odd; primes on both sides of the int8 and int16 boundaries
    ctx = prime_context(p)
    flip = {SQ: NONSQ, NONSQ: SQ}
    for n in range(1, max_n + 1):
        for c in all_classes(n):
            disc = flip[c.disc] if c.d % 2 else c.disc
            v = thm11_value(ctx, n, c.d, c.disc)
            sign = (-1) ** n
            assert thm11_value(ctx, n, c.d, disc) == QuadValue(sign * v.a, sign * v.b), (p, n, c)


@pytest.mark.parametrize("p", [3, 5, 127, 131, 32749, 32771, 10009, 10**9 + 7])
def test_prop41_scales_by_a_nonsquare(p):
    # S -> omega S maps each rank-r orbit onto one of the same rank and
    # multiplies the sign chi(disc S) by chi(omega)^r: G*(omega T; r) =
    # (-1)^r G*(T; r), where omega T has T's rank with its disc flipped
    # exactly when the rank is odd; primes on both sides of the int8 and
    # int16 boundaries
    ctx = prime_context(p)
    flip = {SQ: NONSQ, NONSQ: SQ}
    for n in range(1, 21):
        for c in all_classes(n):
            disc = flip[c.disc] if c.d % 2 else c.disc
            for r in range(n + 1):
                v = prop41_value(ctx, n, c.d, c.disc, r)
                sign = (-1) ** r
                got = prop41_value(ctx, n, c.d, disc, r)
                assert got == QuadValue(sign * v.a, sign * v.b), (p, n, c, r)
