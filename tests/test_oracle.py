import random

import numpy as np
import pytest

from isogauss import (
    Budget,
    BudgetExceeded,
    CycInt,
    FormClass,
    NONSQ,
    SQ,
    canonical_matrix,
    class_character_table,
    class_character_tables,
    cyc_const,
    cyc_neg,
    cyc_zero,
    gauss_restricted_bf,
    gauss_twisted_bf,
    gauss_untwisted_bf,
    g_star_one,
    iso_subspaces_bf,
    prime_context,
    qfunc,
    rep_count_bf,
)
from isogauss import all_classes, counts, orth_order, run_suite
from isogauss import classify, enumerate_symmetric
from isogauss import field, oracle
from isogauss.oracle import _CHUNK, _ranges, clear_caches, subspace_census


def _zero(n):
    return tuple(tuple(0 for _ in range(n)) for _ in range(n))


def test_scalar_gauss_sum(ctx3, ctx5):
    assert gauss_twisted_bf(ctx3, ((1,),)) == g_star_one(ctx3)
    assert gauss_twisted_bf(ctx3, ((1,),)).coeffs == (-1, -2)
    assert gauss_twisted_bf(ctx5, ((1,),)) == g_star_one(ctx5)
    # omega twist negates
    assert gauss_twisted_bf(ctx3, ((2,),)) == cyc_neg(g_star_one(ctx3))


def test_zero_argument(ctx3, ctx5):
    assert gauss_twisted_bf(ctx3, ((0,),)) == cyc_zero(ctx3)
    assert gauss_twisted_bf(ctx5, _zero(2)).coeffs[0] == 20
    assert gauss_twisted_bf(ctx3, _zero(2)) == cyc_const(ctx3, -6)


def test_full_sum_frozen(ctx3, ctx5):
    assert gauss_twisted_bf(ctx3, ((1, 0), (0, 1))) == cyc_const(ctx3, 3)
    # at p=5 the rank-2 sum is -epsilon*p = -5
    assert gauss_twisted_bf(ctx5, ((1, 0), (0, 1))) == cyc_const(ctx5, -5)


def test_restricted_frozen(ctx3, ctx5):
    U21 = ((1, 0), (0, 0))
    assert gauss_restricted_bf(ctx3, U21, 2) == cyc_const(ctx3, -6)
    assert gauss_restricted_bf(ctx5, U21, 2) == cyc_const(ctx5, 20)
    assert gauss_restricted_bf(ctx3, ((1, 0), (0, 1)), 2) == cyc_const(ctx3, 3)
    # r = 0: both defining orbits are the zero matrix alone
    assert gauss_restricted_bf(ctx3, U21, 0) == cyc_zero(ctx3)
    # r = n recovers the full sum
    T = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert gauss_restricted_bf(ctx3, T, 3) == gauss_twisted_bf(ctx3, T)


def test_restricted_rejects_bad_rank(ctx3):
    with pytest.raises(ValueError):
        gauss_restricted_bf(ctx3, ((1,),), 2)


def test_signed_coords_are_the_restricted_sums(ctx3, ctx5):
    # the int64 path eval reads gives the tuple path's sums, r = 0 included
    for ctx in (ctx3, ctx5):
        for T in (((1,),), ((1, 0), (0, 0)), ((0, 1), (1, 2)), _zero(2)):
            for r in range(len(T) + 1):
                got = oracle.signed_coords(ctx, T, r)
                assert got.dtype == np.int64
                assert tuple(got.tolist()) == gauss_restricted_bf(ctx, T, r).coeffs
            assert tuple(got.tolist()) == gauss_twisted_bf(ctx, T).coeffs
    with pytest.raises(ValueError):
        oracle.signed_coords(ctx3, ((1,),), 2)


def test_class_tables_are_complete(ctx3):
    # one pass gives per-class, per-exponent counts; collapsing them
    # over classes recovers the plain enumeration count
    T = ((1, 0), (0, 2))
    tab = class_character_table(ctx3, T)
    total = sum(sum(v) for v in tab.values())
    assert total == 3 ** 3
    keys = set(tab)
    assert (0, SQ) in keys and (2, NONSQ) in keys
    assert all(len(v) == 3 for v in tab.values())


def test_parallel_equals_serial(ctx3, ctx5):
    mats3 = [canonical_matrix(ctx3, c) for c in (
        FormClass(3, 3, SQ), FormClass(3, 2, NONSQ), FormClass(3, 0, SQ),
    )]
    clear_caches()
    serial = class_character_tables(ctx3, mats3, None, None)
    clear_caches()  # else the pooled call would reuse the serial classes
    parallel = class_character_tables(ctx3, mats3, None, 2)
    assert serial == parallel
    mats5 = [canonical_matrix(ctx5, FormClass(2, 2, SQ))]
    clear_caches()
    parallel = class_character_tables(ctx5, mats5, None, 3)
    clear_caches()
    assert parallel == class_character_tables(ctx5, mats5, None, None)


def test_pooled_classes_are_cached(ctx5, monkeypatch):
    T = [canonical_matrix(ctx5, FormClass(2, 1, NONSQ))]
    clear_caches()
    first = class_character_tables(ctx5, T, None, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("the cell was classified again")

    monkeypatch.setattr(oracle, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(oracle, "classify_batch", refuse)
    assert class_character_tables(ctx5, T, None, 2) == first


def test_ranges_split_at_least_jobs_ways():
    for total, jobs in ((3, 2), (125, 2), (_CHUNK, 2), (3**15, 2), (5**10, 3)):
        got = _ranges(total, jobs)
        assert len(got) >= min(jobs, total)
        assert got[0][0] == 0 and got[-1][1] == total
        assert all(a[1] == b[0] for a, b in zip(got, got[1:]))
        assert all(0 < hi - lo <= _CHUNK for lo, hi in got)
    assert _ranges(10, 1) == [(0, 10)]


def _scalar_tables(ctx, n, Ts):
    """class_character_tables by a plain loop: classify each S, and take
    2*trace(TS) straight from the entries."""
    p = ctx.p
    classes = [(S, classify(ctx, S)) for S in enumerate_symmetric(ctx, n)]
    out = []
    for T in Ts:
        tab = {(d, SQ): [0] * p for d in range(n + 1)}
        tab.update({(d, NONSQ): [0] * p for d in range(1, n + 1)})
        for S, c in classes:
            tr = sum(T[i][j] * S[j][i] for i in range(n) for j in range(n))
            tab[(c.d, c.disc)][2 * tr % p] += 1
        out.append({k: tuple(v) for k, v in tab.items()})
    return out


def _random_symmetric(rng, p, n):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = rng.randrange(p)
    return tuple(map(tuple, a))


def test_tables_match_a_scalar_loop():
    rng = random.Random(11)
    # (7, 3) is left out: its 7^6 scalar classifications take seconds
    for p, n in ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2)):
        ctx = prime_context(p)
        Ts = [_random_symmetric(rng, p, n) for _ in range(4)]
        Ts.append(tuple(tuple(0 for _ in range(n)) for _ in range(n)))
        assert class_character_tables(ctx, Ts) == _scalar_tables(ctx, n, Ts)


@pytest.mark.parametrize("p", [61, 67, 181, 191, 16381, 16411, 46337, 46349])
def test_tables_match_a_scalar_loop_across_dtype_boundaries(p):
    # at n = 1 the bin indices code*p + exponent fit 8 bits up to p = 61
    # and 16 bits up to p = 16381; int_dtype widens past 181 and 46337
    ctx = prime_context(p)
    rng = random.Random(p)
    Ts = [((rng.randrange(1, p),),), ((p - 1,),), ((0,),)]
    assert class_character_tables(ctx, Ts) == _scalar_tables(ctx, 1, Ts)


def test_tables_across_many_prefix_blocks(ctx3, ctx5, monkeypatch):
    rng = random.Random(5)
    for ctx, n, chunk in ((ctx3, 3, 9), (ctx3, 3, 2), (ctx5, 2, 3)):
        Ts = [_random_symmetric(rng, ctx.p, n) for _ in range(3)]
        want = class_character_tables(ctx, Ts)  # also caches the classes
        with monkeypatch.context() as m:
            # a small _CHUNK leaves a high prefix above the low digits;
            # below p it still keeps one low digit
            m.setattr(oracle, "_CHUNK", chunk)
            assert class_character_tables(ctx, Ts) == want


def _counting_bincount(monkeypatch):
    """Wrap np.bincount; the returned list collects the length of every
    array it is given."""
    seen = []
    orig = np.bincount

    def counted(x, *args, **kwargs):
        seen.append(len(x))
        return orig(x, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", counted)
    return seen


def test_live_digit_tables_match_a_scalar_loop(monkeypatch):
    # canonical T are diagonal, so only the n diagonal digits are live;
    # at n = 1 the one digit is live and the per-T pass counts
    rng = random.Random(13)
    cells = [(p, n) for p in (3, 5) for n in (1, 2, 3)] + [(7, 2)]
    for p, n in cells:
        ctx = prime_context(p)
        Ts = [canonical_matrix(ctx, c) for c in all_classes(n)]
        dense = _random_symmetric(rng, p, n)
        while not all(v for row in dense for v in row):
            dense = _random_symmetric(rng, p, n)
        want = _scalar_tables(ctx, n, Ts + [dense])
        assert class_character_tables(ctx, Ts) == want[:-1], (p, n)
        # the zero T alone leaves no digit live (L = 0)
        zero = Ts.index(_zero(n))
        assert class_character_tables(ctx, [_zero(n)]) == [want[zero]]
        # one dense T makes every digit live: the per-T pass, one
        # bincount per T over the single block of the cell
        with monkeypatch.context() as m:
            seen = _counting_bincount(m)
            assert class_character_tables(ctx, Ts + [dense]) == want
        assert len(seen) == len(Ts) + 1


def test_live_digit_histogram_across_many_prefix_blocks(ctx5, monkeypatch):
    Ts = [canonical_matrix(ctx5, c) for c in all_classes(3)]
    want = class_character_tables(ctx5, Ts)
    with monkeypatch.context() as m:
        # 8 classes x 5^3 live keys fill 1000 bins; the low part keeps
        # 4 of the 6 digits, so 25 prefix blocks of 625 codes each
        m.setattr(oracle, "_CHUNK", 1000)
        seen = _counting_bincount(m)
        assert class_character_tables(ctx5, Ts) == want
    assert seen == [625] * 25


def test_one_pass_over_the_cell_for_any_number_of_diagonal_ts(ctx5, monkeypatch):
    Ts = [canonical_matrix(ctx5, c) for c in all_classes(3)]
    class_character_tables(ctx5, Ts)  # classifies and caches the cell
    seen = _counting_bincount(monkeypatch)
    class_character_tables(ctx5, Ts[:1])
    one = sum(seen)
    del seen[:]
    class_character_tables(ctx5, Ts)
    assert len(Ts) == 7 and sum(seen) == one == 5**6


def test_counting_pass_expands_no_digits(ctx5, monkeypatch):
    T = [canonical_matrix(ctx5, FormClass(3, 2, NONSQ)), _zero(3)]
    want = class_character_tables(ctx5, T)  # classifies and caches the cell

    def refuse(*args, **kwargs):
        raise AssertionError("the counting pass expanded digits")

    monkeypatch.setattr(oracle, "digits_block", refuse)
    assert class_character_tables(ctx5, T) == want
    monkeypatch.setattr(oracle, "_CHUNK", 25)
    assert class_character_tables(ctx5, T) == want


def _direct_codes(ctx, n):
    return oracle._class_codes(ctx, n, 0, ctx.p ** (n * (n + 1) // 2))


def _counting_classify_batch(monkeypatch):
    """Wrap oracle.classify_batch; the returned list collects the shape
    of every batch it is given."""
    seen = []
    orig = oracle.classify_batch

    def counted(ctx, mats):
        seen.append(mats.shape)
        return orig(ctx, mats)

    monkeypatch.setattr(oracle, "classify_batch", counted)
    return seen


def test_recursion_matches_direct_classification(monkeypatch):
    # with _CHUNK = 1 every cell with n >= 2 recurses down to n = 1 and
    # n = 0; p = 3, 7, 11 have chi(-1) = -1, where the hyperbolic case
    # flips the class, and p = 5, 13 have chi(-1) = +1
    for p in (3, 5, 7, 11, 13):
        ctx = prime_context(p)
        n = 0
        while p ** (n * (n + 1) // 2) <= 10**6:
            clear_caches()
            with monkeypatch.context() as m:
                m.setattr(oracle, "_CHUNK", 1)
                seen = _counting_classify_batch(m)
                got = oracle._classified(ctx, n)
            assert all(shape[1] <= 1 for shape in seen)
            assert np.array_equal(got, _direct_codes(ctx, n)), (p, n)
            n += 1
    # cells that exceed one chunk on their own, both residues mod 4
    for p in (101, 103):
        ctx = prime_context(p)
        clear_caches()
        assert np.array_equal(oracle._classified(ctx, 2), _direct_codes(ctx, 2))
    clear_caches()


def test_large_cells_use_no_pool(ctx5, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(oracle, "ProcessPoolExecutor", refuse)
    seen = _counting_classify_batch(monkeypatch)
    clear_caches()
    Ts = [canonical_matrix(ctx5, c) for c in all_classes(4)]
    tabs = class_character_tables(ctx5, Ts, None, 2)
    assert all(sum(sum(v) for v in tab.values()) == 5**10 for tab in tabs)
    # only the two leaf sub-cells, (5, 3) and (5, 2), are classified
    assert sum(shape[0] for shape in seen) <= 5**6 + 5**3

    # n = 1 is classified directly at any p, never by recursion
    del seen[:]
    ctx = prime_context(1000003)
    codes = oracle._classified(ctx, 1)
    assert sum(shape[0] for shape in seen) == ctx.p
    want = 2 + (field.tables(ctx)[0] == -1)
    want[0] = 0
    assert np.array_equal(codes, want)
    clear_caches()


def test_gauss_sum_is_congruence_invariant(ctx3):
    rng = random.Random(7)
    T = ((1, 2), (2, 0))
    base = gauss_twisted_bf(ctx3, T)
    A = np.array(T, dtype=np.int64)
    for _ in range(10):
        # random invertible change of basis
        while True:
            U = np.array(
                [[rng.randrange(3) for _ in range(2)] for _ in range(2)],
                dtype=np.int64,
            )
            if (U[0, 0] * U[1, 1] - U[0, 1] * U[1, 0]) % 3:
                break
        M = (U.T @ A @ U) % 3
        T2 = tuple(tuple(int(x) for x in row) for row in M)
        assert gauss_twisted_bf(ctx3, T2) == base


def test_rep_count_small(ctx3):
    I2 = ((1, 0), (0, 1))
    assert rep_count_bf(ctx3, I2, ((1,),)) == 4
    assert rep_count_bf(ctx3, I2, ((1,),), primitive=True) == 4
    assert rep_count_bf(ctx3, I2, ((0,),)) == 1  # only the zero vector
    assert rep_count_bf(ctx3, I2, ((0,),), primitive=True) == 0
    assert rep_count_bf(ctx3, I2, I2, primitive=True) == 8  # o(I_2)
    assert rep_count_bf(ctx3, I2, I2) == 8


def test_rep_count_zero_form(ctx3):
    Z2 = _zero(2)
    assert rep_count_bf(ctx3, Z2, ((0,),)) == 9
    assert rep_count_bf(ctx3, Z2, ((0,),), primitive=True) == 8
    assert rep_count_bf(ctx3, Z2, ((1,),)) == 0
    assert rep_count_bf(ctx3, Z2, Z2, primitive=True) == (9 - 1) * (9 - 3)
    # more columns than rows leaves no primitive maps
    Y3 = _zero(3)
    assert rep_count_bf(ctx3, Z2, Y3, primitive=True) == 0
    assert rep_count_bf(ctx3, Z2, Y3) == 3 ** 6


def test_rep_count_rectangular_targets(ctx3):
    # diag(1, 0) target inside the degenerate 4-dim forms
    Y = ((1, 0), (0, 0))
    X_sq = canonical_matrix(ctx3, FormClass(4, 3, SQ))
    assert rep_count_bf(ctx3, X_sq, Y, primitive=True) == 36
    X_nsq = canonical_matrix(ctx3, FormClass(4, 3, NONSQ))
    assert rep_count_bf(ctx3, X_nsq, Y, primitive=True) == 504
    # inside anisotropic I_3 the second column has nowhere to go
    I3 = canonical_matrix(ctx3, FormClass(3, 3, SQ))
    assert rep_count_bf(ctx3, I3, Y, primitive=True) == 0


def test_rep_count_past_int8():
    # Gram entries reach p - 1 >= 128 at p = 131; x^2 = c against a loop
    ctx = prime_context(131)
    assert rep_count_bf(ctx, ((1,),), ((129,),)) == 2
    for c in (0, 1, 2, 3, 127, 128, 130):
        want = sum(1 for x in range(131) if x * x % 131 == c)
        assert rep_count_bf(ctx, ((1,),), ((c,),)) == want


def test_rep_count_gram_mismatch_rejected(ctx3):
    with pytest.raises(ValueError):
        rep_count_bf(ctx3, ((1, 0), (0, 1)), ((0, 1), (0, 0)))


def test_rep_count_is_repeatable(ctx3):
    X = canonical_matrix(ctx3, FormClass(4, 4, SQ))
    Y = ((1, 0), (0, 1))
    a = rep_count_bf(ctx3, X, Y, primitive=True)
    b = rep_count_bf(ctx3, X, Y, primitive=True)
    assert a == b


def test_scaled_counts_tie_out(ctx3):
    # nu(j,0) * (subspace count) = primitive zero-target count: every
    # totally isotropic j-subspace carries nu(j,0) ordered bases
    for c in (FormClass(3, 3, NONSQ), FormClass(3, 2, SQ), FormClass(3, 0, SQ)):
        X = canonical_matrix(ctx3, c)
        for j in (1, 2):
            Zj = _zero(j)
            lhs = rep_count_bf(ctx3, X, Zj, primitive=True)
            assert lhs == qfunc(ctx3, "nu", j, 0) * iso_subspaces_bf(ctx3, X, j)


def test_iso_subspaces_small(ctx3, ctx5):
    I2 = ((1, 0), (0, 1))
    assert iso_subspaces_bf(ctx3, I2, 0) == 1
    assert iso_subspaces_bf(ctx3, I2, 1) == 0
    assert iso_subspaces_bf(ctx5, I2, 1) == 2
    J2 = ((1, 0), (0, 2))
    assert iso_subspaces_bf(ctx3, J2, 1) == 2
    assert iso_subspaces_bf(ctx3, _zero(2), 1) == 4
    assert iso_subspaces_bf(ctx3, _zero(2), 2) == 1
    with pytest.raises(ValueError):
        iso_subspaces_bf(ctx3, _zero(2), 3)


def test_census_counts_every_subspace(ctx3, ctx5):
    # the class counts of all ell-subspaces of F_p^t add up to [t, ell]_p
    for ctx in (ctx3, ctx5):
        for t in range(1, 4):
            for c in all_classes(t):
                X = canonical_matrix(ctx, c)
                for ell in range(t + 1):
                    census = subspace_census(ctx, X, ell)
                    assert all(Y.n == ell for Y in census)
                    assert sum(census.values()) == qfunc(ctx, "beta", t, ell)


def test_census_times_group_order_is_primitive_count(ctx3):
    # the bases of W with Gram matrix Y form one O(Y)-torsor
    for t in range(1, 4):
        for c in all_classes(t):
            X = canonical_matrix(ctx3, c)
            for ell in range(1, t + 1):
                census = subspace_census(ctx3, X, ell)
                for Y in all_classes(ell):
                    want = rep_count_bf(
                        ctx3, X, canonical_matrix(ctx3, Y), primitive=True
                    )
                    assert census.get(Y, 0) * orth_order(ctx3, Y) == want


def test_census_budget(ctx3):
    assert subspace_census(ctx3, _zero(2), 0) == {FormClass(0, 0, SQ): 1}
    assert subspace_census(ctx3, _zero(2), 2) == {FormClass(2, 0, SQ): 1}
    with pytest.raises(BudgetExceeded):
        subspace_census(ctx3, _zero(4), 2, Budget(max_terms=5))
    with pytest.raises(ValueError):
        subspace_census(ctx3, _zero(2), 3)


def test_weighted_class_sums_use_neither_rep_count_nor_group_orders(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the weighted class sums must come from the census")

    monkeypatch.setattr(oracle, "rep_count_bf", refuse)
    monkeypatch.setattr(counts, "orth_order", refuse)
    for suite in ("lemma53", "lemma54"):
        reports = run_suite(suite, primes=(3,))
        assert reports and all(r.match and not r.skipped for r in reports)


def test_unsigned_character_totals(ctx3):
    # dropping the determinant character, the full sum over S of
    # character(trace(TS)) collapses to 0 for T != 0 (a nontrivial
    # additive character summed over a linear space)
    from isogauss.cyclotomic import reduce_exponent_vector

    for T in (((1, 0), (0, 1)), ((1, 2), (2, 0)), ((0, 1), (1, 0))):
        tab = class_character_table(ctx3, T)
        tot = [0, 0, 0]
        for v in tab.values():
            for e, cnt in enumerate(v):
                tot[e] += cnt
        assert reduce_exponent_vector(3, tot) == (0, 0)
    tab = class_character_table(ctx3, _zero(2))
    tot = [0, 0, 0]
    for v in tab.values():
        for e, cnt in enumerate(v):
            tot[e] += cnt
    assert reduce_exponent_vector(3, tot) == (27, 0)


def test_untwisted_sums(ctx3, ctx5):
    one = ((1,),)
    om3 = ((2,),)
    assert gauss_untwisted_bf(ctx3, one, one) == g_star_one(ctx3)
    assert gauss_untwisted_bf(ctx5, ((2,),), one) == cyc_neg(g_star_one(ctx5))
    I2 = ((1, 0), (0, 1))
    assert gauss_untwisted_bf(ctx3, I2, I2) == cyc_const(ctx3, 9)
    assert gauss_untwisted_bf(ctx3, om3, om3) == g_star_one(ctx3)


def test_budget_checks(ctx3):
    with pytest.raises(ValueError):
        Budget(max_terms=0)
    with pytest.raises(BudgetExceeded):
        gauss_twisted_bf(ctx3, ((1, 0), (0, 1)), Budget(max_terms=10))
    with pytest.raises(BudgetExceeded):
        gauss_untwisted_bf(ctx3, ((1, 0), (0, 1)), ((1, 0), (0, 1)), Budget(max_terms=10))
    with pytest.raises(BudgetExceeded):
        iso_subspaces_bf(ctx3, _zero(4), 2, Budget(max_terms=5))


def test_env_budget(monkeypatch):
    monkeypatch.setenv("ISOGAUSS_MAX_TERMS", "123")
    assert Budget().max_terms == 123
    monkeypatch.setenv("ISOGAUSS_MAX_TERMS", "not a number")
    with pytest.raises(ValueError, match="ISOGAUSS_MAX_TERMS"):
        Budget()
    monkeypatch.setenv("ISOGAUSS_MAX_TERMS", "-5")
    with pytest.raises(ValueError, match="ISOGAUSS_MAX_TERMS"):
        Budget()
    monkeypatch.delenv("ISOGAUSS_MAX_TERMS")
    assert Budget().max_terms == 20_000_000
