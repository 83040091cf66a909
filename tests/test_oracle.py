import ast
import concurrent.futures
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from isogauss import (
    Budget,
    BudgetExceeded,
    CycInt,
    FormClass,
    NONSQ,
    QuadValue,
    SQ,
    canonical_matrix,
    class_character_tables,
    cyc_const,
    cyc_neg,
    cyc_zero,
    embed,
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
from isogauss import classify
from isogauss import cli, field, formulas, oracle, quadform, verify
from isogauss.cyclotomic import reduce_exponent_vector
from isogauss.oracle import _CHUNK, _ranges, clear_caches, rep_star_bf, subspace_census
from isogauss.quadform import block_diag, digits_block

import reference


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
    # eval's int64 coordinates are the library's sums, r = 0 included,
    # and the signed sums of a table counted by a plain loop
    for ctx in (ctx3, ctx5):
        for T in (((1,),), ((1, 0), (0, 0)), ((0, 1), (1, 2)), _zero(2)):
            (rows,) = _scalar_tables(ctx, len(T), [T])
            for r in range(len(T) + 1):
                got = oracle.signed_coords(ctx, T, r)
                assert got.dtype == np.int64
                assert tuple(got.tolist()) == gauss_restricted_bf(ctx, T, r).coeffs
                diff = (rows[2 * r] - rows[2 * r + 1]).tolist() if r else [0] * ctx.p
                assert tuple(got.tolist()) == reduce_exponent_vector(ctx.p, diff)
            assert tuple(got.tolist()) == gauss_twisted_bf(ctx, T).coeffs
    with pytest.raises(ValueError):
        oracle.signed_coords(ctx3, ((1,),), 2)


def test_signed_rows_are_exact_at_the_int64_edge():
    # a table whose counts total 2^63 - 1, the most any budget lets
    # through: the differences and the reduction stay exact in int64
    top = 2**63 - 1
    for k in (0, 1, 2**62, top):
        rows = np.zeros((4, 3), np.int64)  # n = 1 at p = 3
        rows[2, 0], rows[3, 2] = top - k, k
        want = reduce_exponent_vector(3, [top - k, 0, -k])
        assert tuple(oracle.signed_rows(rows, 1).tolist()) == want == (top, k)
        rows[0, 1] = 5
        assert tuple(oracle.signed_rows(rows, 0).tolist()) == (0, 5)


def test_class_tables_are_complete(ctx3):
    # one pass gives per-class, per-exponent counts; collapsing them
    # over classes recovers the plain enumeration count
    T = ((1, 0), (0, 2))
    (tab,) = class_character_tables(ctx3, [T])
    assert tab.dtype == np.int64
    total = sum(int(tab[2 * d].sum() + tab[2 * d + 1].sum()) for d in range(3))
    assert total == 3 ** 3
    # rows 2d + (disc is NonSquare): (0, SQ) is row 0, (2, NONSQ) row 5,
    # and row 1, the NonSquare rank-0 class, is empty
    assert tab.shape == (2 * 2 + 2, 3)
    assert tab[0].sum() == 1 and tab[5].sum() > 0 and not tab[1].any()


def _counting_pool(monkeypatch):
    """Wrap concurrent.futures.ProcessPoolExecutor, which the pool reads
    when it starts; the returned list collects the max_workers of every
    pool started."""
    started = []
    orig = concurrent.futures.ProcessPoolExecutor

    def counted(*args, **kwargs):
        started.append(kwargs["max_workers"])
        return orig(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted)
    return started


def test_parallel_equals_serial(monkeypatch):
    # the pool classifies cells with n <= 2 of at most _CHUNK matrices;
    # n >= 3 recurses on dimension whatever jobs is
    started = _counting_pool(monkeypatch)
    for p, n, jobs in ((3, 2, 2), (7, 2, 3), (5, 1, 2)):
        ctx = prime_context(p)
        mats = [canonical_matrix(ctx, c) for c in all_classes(n)]
        clear_caches()
        serial = class_character_tables(ctx, mats, None, None)
        clear_caches()  # else the pooled call would reuse the serial classes
        del started[:]
        parallel = class_character_tables(ctx, mats, None, jobs)
        assert started == [jobs], (p, n)
        assert np.array_equal(serial, parallel)
    ctx5 = prime_context(5)
    mats5 = [canonical_matrix(ctx5, FormClass(2, 2, SQ))]
    clear_caches()
    del started[:]
    parallel = class_character_tables(ctx5, mats5, None, 3)
    assert started == [3]
    clear_caches()
    assert np.array_equal(parallel, class_character_tables(ctx5, mats5, None, None))


def test_pooled_classes_are_cached(ctx5, monkeypatch):
    T = [canonical_matrix(ctx5, FormClass(2, 1, NONSQ))]
    clear_caches()
    first = class_character_tables(ctx5, T, None, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("the cell was classified again")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(oracle, "classify_batch", refuse)
    assert np.array_equal(class_character_tables(ctx5, T, None, 2), first)


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
    2*trace(TS) straight from the entries. Row 2d + (disc is NonSquare)
    counts class (d, disc), so row 1 stays zero."""
    p = ctx.p
    classes = [(S, classify(ctx, S)) for S in reference.enumerate_symmetric(ctx, n)]
    out = np.zeros((len(Ts), 2 * n + 2, p), np.int64)
    for tab, T in zip(out, Ts):
        for S, c in classes:
            tr = sum(T[i][j] * S[j][i] for i in range(n) for j in range(n))
            tab[2 * c.d + (c.disc == NONSQ), 2 * tr % p] += 1
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
        assert np.array_equal(class_character_tables(ctx, Ts), _scalar_tables(ctx, n, Ts))


@pytest.mark.parametrize("p", [61, 67, 181, 191, 16381, 16411, 46337, 46349])
def test_tables_match_a_scalar_loop_across_dtype_boundaries(p):
    # at n = 1 the bin indices code*p + exponent fit 8 bits up to p = 61
    # and 16 bits up to p = 16381; int_dtype widens past 181 and 46337
    ctx = prime_context(p)
    rng = random.Random(p)
    Ts = [((rng.randrange(1, p),),), ((p - 1,),), ((0,),)]
    assert np.array_equal(class_character_tables(ctx, Ts), _scalar_tables(ctx, 1, Ts))


def test_tables_across_many_prefix_blocks(ctx3, ctx5, monkeypatch):
    # the reference's count of the codes, prefix block by prefix block,
    # equals the tables at any _CHUNK: a small _CHUNK leaves a high
    # prefix above the low digits; below p it still keeps one low digit
    rng = random.Random(5)
    for ctx, n, chunk in ((ctx3, 3, 9), (ctx3, 3, 2), (ctx5, 2, 3)):
        Ts = [_random_symmetric(rng, ctx.p, n) for _ in range(3)]
        want = class_character_tables(ctx, Ts)
        with monkeypatch.context() as m:
            m.setattr(oracle, "_CHUNK", chunk)
            assert np.array_equal(class_character_tables(ctx, Ts), want)
            assert np.array_equal(reference.code_tables(ctx, n, Ts), want)


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
    # at n = 1 the one digit is live and the per-T pass counts. In a cell
    # that recurses, a dense T counts no code either
    rng = random.Random(13)
    cells = [(p, n) for p in (3, 5) for n in (1, 2, 3)] + [(7, 2)]
    for p, n in cells:
        ctx = prime_context(p)
        Ts = [canonical_matrix(ctx, c) for c in all_classes(n)]
        dense = _random_symmetric(rng, p, n)
        while not all(v for row in dense for v in row):
            dense = _random_symmetric(rng, p, n)
        want = _scalar_tables(ctx, n, Ts + [dense])
        assert np.array_equal(class_character_tables(ctx, Ts), want[:-1]), (p, n)
        # the zero T alone leaves no digit live (L = 0)
        zero = Ts.index(_zero(n))
        assert np.array_equal(class_character_tables(ctx, [_zero(n)]), want[zero : zero + 1])
        # one dense T makes every digit live: in a cell of codes, the
        # per-T pass, one bincount per T over the single block of the
        # cell; in a cell that recurses, no bincount and no code
        clear_caches()
        with monkeypatch.context() as m:
            counted = _counting_calls(m, "_code_counts")
            seen = _counting_bincount(m)
            assert np.array_equal(class_character_tables(ctx, Ts + [dense]), want)
        if oracle._recurses(p, n):
            assert counted == [] and not oracle._classified.cache_keys(), (p, n)
        else:
            assert len(seen) == len(Ts) + 1 and len(counted) == 1, (p, n)


def _counting_calls(monkeypatch, name):
    """Wrap oracle.<name>; the returned list collects the n of every call,
    read from its second argument."""
    seen = []
    orig = getattr(oracle, name)

    def counted(*args, **kwargs):
        seen.append(args[1])
        return orig(*args, **kwargs)

    monkeypatch.setattr(oracle, name, counted)
    return seen


def test_live_digit_histogram_across_many_prefix_blocks(ctx5, monkeypatch):
    # at _CHUNK = 25 the (5, 2) cell of 125 matrices recurses: its
    # tables, with a T off the diagonal among them, and the (5, 3)
    # tables count no code block and build each recursion state once
    # after clear_caches, so a later call builds nothing. The reference
    # counts the (5, 2) codes as 5 prefix blocks of 25, each T's table
    # one bincount per block, on every call
    T2 = [canonical_matrix(ctx5, c) for c in all_classes(2)] + [((1, 1), (1, 0))]
    T3 = [canonical_matrix(ctx5, c) for c in all_classes(3)]
    want2 = _scalar_tables(ctx5, 2, T2)
    want3 = class_character_tables(ctx5, T3)
    clear_caches()
    with monkeypatch.context() as m:
        m.setattr(oracle, "_CHUNK", 25)
        counted = _counting_calls(m, "_code_counts")
        assert np.array_equal(class_character_tables(ctx5, T3), want3)
        states = set(oracle._canonical_counts.cache_keys())
        seen = _counting_bincount(m)
        assert np.array_equal(class_character_tables(ctx5, T3), want3)
        zero = T3.index(_zero(3))
        assert np.array_equal(class_character_tables(ctx5, [_zero(3)]), want3[zero : zero + 1])
        assert seen == [] and counted == [] and set(oracle._canonical_counts.cache_keys()) == states
        assert np.array_equal(class_character_tables(ctx5, T2[:-1]), want2[:-1])
        assert seen == [] and counted == []
        states = set(oracle._canonical_counts.cache_keys())
        assert np.array_equal(class_character_tables(ctx5, T2), want2)
        assert seen == [] and counted == [] and set(oracle._canonical_counts.cache_keys()) == states
        assert not oracle._classified.cache_keys()
        reference.classified(ctx5, 2)
        for _ in range(2):
            assert np.array_equal(reference.code_tables(ctx5, 2, T2), want2)
            assert seen == [25] * 5 * len(T2)
            del seen[:]
    clear_caches()
    reference.clear()


def test_one_pass_over_the_cell_for_any_number_of_diagonal_ts(ctx5, monkeypatch):
    # each recursion state is built once, whatever the number of
    # canonical T and however many calls read it: thm11, prop41 and
    # zero_forms share (5, 3), and no cell is classified
    Ts = [canonical_matrix(ctx5, c) for c in all_classes(3)]
    clear_caches()
    classified = _counting_calls(monkeypatch, "_classified")
    one = class_character_tables(ctx5, Ts[:1])
    tabs = class_character_tables(ctx5, Ts)
    states = set(oracle._canonical_counts.cache_keys())
    assert {key[1:] for key in states} >= {reference.canonical_shape(ctx5, T) for T in Ts}
    seen = _counting_bincount(monkeypatch)
    again = class_character_tables(ctx5, Ts)
    zero = class_character_tables(ctx5, [_zero(3)])
    assert len(Ts) == 7 and seen == [] and set(oracle._canonical_counts.cache_keys()) == states
    assert classified == []
    i = Ts.index(_zero(3))
    assert np.array_equal(tabs[:1], one) and np.array_equal(zero, tabs[i : i + 1])
    assert np.array_equal(again, tabs)
    clear_caches()


def test_counting_pass_expands_no_digits(ctx5, monkeypatch):
    # neither the recursion nor a count over cached codes expands digits:
    # once the n <= 2 cells are classified, the (5, 3) tables are built
    # cold with digits_block refused, and so are the (5, 2) tables, from
    # the codes at the default _CHUNK and by the recursion at 25
    T3 = [canonical_matrix(ctx5, FormClass(3, 2, NONSQ)), _zero(3)]
    T2 = [canonical_matrix(ctx5, FormClass(2, 1, NONSQ)), _zero(2)]
    want3 = class_character_tables(ctx5, T3)
    want2 = class_character_tables(ctx5, T2)

    def refuse(*args, **kwargs):
        raise AssertionError("the counting pass expanded digits")

    for chunk in (_CHUNK, 25):
        clear_caches()
        for n in (1, 2):
            oracle._classified(ctx5, n)
        with monkeypatch.context() as m:
            m.setattr(oracle, "digits_block", refuse)
            m.setattr(oracle, "_CHUNK", chunk)
            assert np.array_equal(class_character_tables(ctx5, T3), want3)
            assert np.array_equal(class_character_tables(ctx5, T2), want2)
    clear_caches()


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
    # the reference's codes: with _CHUNK = 1 every cell with n >= 2
    # recurses down to n = 1 and n = 0; p = 3, 7, 11 have chi(-1) = -1,
    # where the hyperbolic case flips the class, and p = 5, 13 have
    # chi(-1) = +1
    for p in (3, 5, 7, 11, 13):
        ctx = prime_context(p)
        n = 0
        while p ** (n * (n + 1) // 2) <= 10**6:
            reference.clear()
            with monkeypatch.context() as m:
                m.setattr(oracle, "_CHUNK", 1)
                seen = _counting_classify_batch(m)
                got = reference.classified(ctx, n)
            assert all(shape[1] <= 1 for shape in seen)
            assert np.array_equal(got, _direct_codes(ctx, n)), (p, n)
            n += 1
    # cells that exceed one chunk on their own, both residues mod 4
    for p in (101, 103):
        ctx = prime_context(p)
        reference.clear()
        assert np.array_equal(reference.classified(ctx, 2), _direct_codes(ctx, 2))
    reference.clear()


def test_large_cells_use_no_pool(ctx5, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    seen = _counting_classify_batch(monkeypatch)
    clear_caches()
    Ts = [canonical_matrix(ctx5, c) for c in all_classes(4)]
    Ts.append(_random_symmetric(random.Random(4), 5, 4))
    tabs = class_character_tables(ctx5, Ts, None, 2)
    assert all(tab.sum() == 5**10 for tab in tabs)
    # no matrix is classified in a batch, not even a sub-cell's
    assert seen == [] and not oracle._classified.cache_keys()

    # _classified classifies an n = 1 cell directly at any p
    del seen[:]
    ctx = prime_context(1000003)
    codes = oracle._classified(ctx, 1)
    assert sum(shape[0] for shape in seen) == ctx.p
    want = 2 + (field.chi_table(ctx) == -1)
    want[0] = 0
    assert np.array_equal(codes, want)
    clear_caches()


def test_n1_cell_past_a_chunk_keeps_no_codes(capsys):
    # past _CHUNK matrices an n = 1 cell reads the recursion, like n = 2:
    # no p bytes of class codes are classified or kept
    clear_caches()
    assert cli.main(["eval", "--p", "1000003", "--n", "1", "--rank", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["match"] is True
    assert not oracle._classified.cache_keys()
    clear_caches()


def test_import_leaves_the_pool_module_out():
    # the pool imports concurrent.futures when it starts, not the package
    src = os.path.dirname(os.path.dirname(oracle.__file__))
    code = "import sys, isogauss; sys.exit('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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


def _congruent(ctx, C, rng):
    """P^T C P for a random invertible P, off the diagonal when C has
    rank at least 1 and size at least 2."""
    p, t = ctx.p, len(C)
    Ca = np.array(C, np.int64)
    while True:
        P = np.array([[rng.randrange(p) for _ in range(t)] for _ in range(t)])
        if round(np.linalg.det(P)) % p == 0:
            continue  # singular P; |det P| < 10^5, exact in a double
        X = (P.T @ Ca @ P) % p
        if t < 2 or not Ca.any() or (X - np.diag(np.diag(X))).any():
            return tuple(tuple(int(v) for v in row) for row in X)


def _gl_order(p, ell):
    order = 1
    for i in range(ell):
        order *= p**ell - p**i
    return order


@pytest.mark.parametrize(
    "p, t", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (7, 3)]
)
def test_subspace_counts_of_congruent_and_degenerate_forms(p, t):
    # forms P^T C P, off the diagonal and of every rank: a count that
    # read only the diagonal of X would fail here
    ctx = prime_context(p)
    rng = random.Random(1000 * p + t)
    for c in all_classes(t):
        C = canonical_matrix(ctx, c)
        X = _congruent(ctx, C, rng)
        assert classify(ctx, X) == c
        for ell in range(t + 1):
            got = iso_subspaces_bf(ctx, X, ell)
            want = rep_count_bf(ctx, X, _zero(ell), primitive=True)
            assert got * _gl_order(p, ell) == want, (X, ell)
            assert subspace_census(ctx, X, ell) == subspace_census(ctx, C, ell)


def _family_keys():
    """The argument tuples of every kept line table, row set and family:
    (p, t), (p, t, lead, later) and (p, t, ell)."""
    kept = (oracle._lines, oracle._row_set, oracle._family_rows)
    return [key for fn in kept for key in fn.cache_keys()]


def test_subspace_family_budget_and_cache(ctx3, monkeypatch):
    # [4, 1]_3 = 40 lines and [4, 2]_3 = 130 planes in F_3^4
    I4 = canonical_matrix(ctx3, FormClass(4, 4, SQ))

    def no_table(*args):
        raise AssertionError("a refused count must build no table")

    # iso charges the lines and the planes, every level its walk builds,
    # before it builds any line table or reads its walk
    clear_caches()
    with monkeypatch.context() as m:
        for name in ("_lines", "_row_set", "_line_forms", "_walk"):
            m.setattr(oracle, name, no_table)
        with pytest.raises(BudgetExceeded) as e:
            iso_subspaces_bf(ctx3, I4, 2, Budget(max_terms=169))
    assert (e.value.needed, e.value.limit) == (170, 169)
    assert not _family_keys()
    assert iso_subspaces_bf(ctx3, I4, 2, Budget(max_terms=170)) == counts.iso_count(
        ctx3, FormClass(4, 4, SQ), 2
    )
    assert (3, 4, 2) not in _family_keys()  # iso reads no family
    for cached in (False, True):
        if not cached:
            clear_caches()
        with pytest.raises(BudgetExceeded) as e:
            subspace_census(ctx3, I4, 2, Budget(max_terms=129))
        assert (e.value.needed, e.value.limit) == (130, 129)
        assert ((3, 4, 2) in _family_keys()) == cached
        subspace_census(ctx3, I4, 2, Budget(max_terms=130))
    rows = oracle._family_rows(3, 4, 2)  # kept: read, not built
    assert rows.shape == (130, 2) and not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = 0

    def refuse(*args):
        raise AssertionError("a cached family must build no bases")

    # a second X, off the diagonal, reads the cached family
    monkeypatch.setattr(oracle, "_echelon_blocks", refuse)
    X = ((1, 1, 0, 0), (1, 2, 0, 1), (0, 0, 0, 2), (0, 1, 2, 1))
    C = canonical_matrix(ctx3, classify(ctx3, X))
    assert subspace_census(ctx3, X, 2) == subspace_census(ctx3, C, 2)
    clear_caches()
    assert not _family_keys() and not oracle._line_forms.cache_keys()
    assert not oracle._walk.cache_keys()
    with pytest.raises(AssertionError, match="no bases"):
        subspace_census(ctx3, X, 2)
    # iso counts from cold caches with no family at all
    monkeypatch.setattr(oracle, "_family", refuse)
    assert iso_subspaces_bf(ctx3, X, 2) == iso_subspaces_bf(ctx3, C, 2)
    assert iso_subspaces_bf(ctx3, C, 2) == counts.iso_count(ctx3, classify(ctx3, X), 2)


def test_large_families_are_built_in_blocks_and_not_kept(ctx3, monkeypatch):
    # past _CHUNK subspaces the family comes in blocks of at most _CHUNK
    # rows on every call; the counts are those of one cached block
    X = ((1, 1, 0, 0), (1, 2, 0, 1), (0, 0, 0, 2), (0, 1, 2, 1))
    clear_caches()
    want = [iso_subspaces_bf(ctx3, X, ell) for ell in (1, 2, 3)]
    census = [subspace_census(ctx3, X, ell) for ell in (1, 2, 3)]
    clear_caches()
    monkeypatch.setattr(oracle, "_CHUNK", 7)
    assert [subspace_census(ctx3, X, ell) for ell in (1, 2, 3)] == census
    assert all(len(key) == 2 for key in _family_keys())  # lines only
    blocks = list(oracle._echelon_blocks(3, 4, 2))
    assert max(len(b) for b in blocks) <= 7 and sum(map(len, blocks)) == 130

    def refuse(*args):
        raise AssertionError("iso must read no family")

    # iso builds no bases, and counts the same in blocks of 7 pairs
    monkeypatch.setattr(oracle, "_echelon_blocks", refuse)
    monkeypatch.setattr(oracle, "_family", refuse)
    assert [iso_subspaces_bf(ctx3, X, ell) for ell in (1, 2, 3)] == want
    assert all(len(key) == 2 for key in _family_keys())
    clear_caches()


def _hyperbolic(t):
    """Hyperbolic planes, with <1> at odd t."""
    planes = [((0, 1), (1, 0))] * (t // 2)
    return block_diag(*planes, *[((1,),)] * (t % 2))


@pytest.mark.parametrize("p, t", [(3, 4), (5, 3)])
def test_iso_tests_fewer_pairs_than_j_per_subspace(p, t, monkeypatch):
    # every (candidate, basis) pair tested at the orthogonality step
    # (_orthogonal) while the walk builds level k + 1 is the basis of a
    # different (k + 1)-dimensional subspace: at most [t, k + 1]_p pairs
    # per level, and so at most (j - 1) [t, j]_p when j follows j - 1
    ctx = prime_context(p)
    seen = []
    orthogonal = oracle._orthogonal

    def spy(p, L, C, block):
        seen.append((len(C), *block.shape))  # (candidates, rows, bases in the block)
        return orthogonal(p, L, C, block)

    monkeypatch.setattr(oracle, "_orthogonal", spy)
    forms = (_zero(t), _hyperbolic(t))
    got = {}
    for chunk in (_CHUNK, 7):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        clear_caches()
        for X in forms:
            for j in range(t + 1):
                seen.clear()
                n = iso_subspaces_bf(ctx, X, j)
                assert got.setdefault((X, j), n) == n
                for k in range(1, t):
                    level = sum(c * b for c, rows, b in seen if rows == k)
                    assert level <= oracle._subspace_count(p, t, k + 1), (X, j, k)
                tested = sum(c * b for c, _, b in seen)
                if chunk == _CHUNK:  # the walk is kept, so each call builds one level
                    assert tested <= max(j - 1, 0) * oracle._subspace_count(p, t, j), (X, j)
                assert all(b == 1 or c * b <= chunk for c, _, b in seen)
                if X == _zero(t) and 1 < j < t:
                    assert tested  # the spy sees the step
    for j in range(t + 1):
        assert got[_zero(t), j] == oracle._subspace_count(p, t, j)
        assert got[forms[1], j] == counts.iso_count(ctx, classify(ctx, forms[1]), j)


def _iso_all(ctx, X, count):
    return [count(ctx, X, j) for j in range(len(X) + 1)]


@pytest.mark.parametrize("p, t", [(3, 5), (5, 4), (7, 3)])
def test_walk_equals_the_per_dimension_reference_on_every_class(p, t):
    # the upward walk against the per-dimension walk it replaced
    # (reference.iso_subspaces), at every j, on each class's canonical
    # form and on a congruent form off the diagonal
    ctx = prime_context(p)
    rng = random.Random(13 * p + t)
    for c in all_classes(t):
        C = canonical_matrix(ctx, c)
        for X in (C, _congruent(ctx, C, rng)):
            want = _iso_all(ctx, X, reference.iso_subspaces)
            assert _iso_all(ctx, X, iso_subspaces_bf) == want, (X,)


def test_walk_equals_the_reference_on_random_forms():
    # 300 seeded symmetric forms at p in {3, 5, 7} and t <= 5: every
    # other one uniform, the rest congruent to a diagonal form of a
    # drawn rank, so degenerate forms of every rank are included
    rng = random.Random(7919)
    ranks = set()
    for i in range(300):
        p, t = rng.choice((3, 5, 7)), rng.randint(1, 5)
        ctx = prime_context(p)
        if i % 2:
            X = _random_form(rng, p, t)
        else:
            r = rng.randint(0, t)
            D = tuple(
                tuple(rng.randrange(1, p) if a == b < r else 0 for b in range(t)) for a in range(t)
            )
            X = _congruent(ctx, D, rng)
        ranks.add((t, classify(ctx, X).d))
        assert _iso_all(ctx, X, iso_subspaces_bf) == _iso_all(ctx, X, reference.iso_subspaces), (p, X)
    assert {(t, r) for t in range(1, 6) for r in range(t + 1)} <= ranks


def test_the_kept_walk_resumes_in_any_order_and_a_refused_call_reads_none(monkeypatch):
    # one walk is kept, for the last form: j descending, two forms of one
    # size interleaved, and a j past the budget between two that fit,
    # which is refused before the kept walk is read or grown
    ctx = prime_context(3)
    rng = random.Random(5)
    A = _hyperbolic(5)
    B = _congruent(ctx, canonical_matrix(ctx, FormClass(5, 3, NONSQ)), rng)
    want = {X: _iso_all(ctx, X, reference.iso_subspaces) for X in (A, B)}
    clear_caches()
    assert [iso_subspaces_bf(ctx, A, j) for j in range(5, -1, -1)] == want[A][::-1]
    for j in range(6):
        for X in (A, B):
            assert iso_subspaces_bf(ctx, X, j) == want[X][j], (X, j)
    clear_caches()
    fits = Budget(sum(oracle._subspace_count(3, 5, k) for k in (1, 2)))
    assert iso_subspaces_bf(ctx, A, 2, fits) == want[A][2]
    walk = oracle._walk(ctx, A)
    counts, level, info = list(walk[0]), walk[1], oracle._walk.cache_info()
    with monkeypatch.context() as m:
        for name in ("_walk", "_line_forms", "_prepend", "_lines", "_row_set"):
            m.setattr(oracle, name, _no_table)
        with pytest.raises(BudgetExceeded) as e:
            iso_subspaces_bf(ctx, A, 3, fits)
    assert e.value.needed == fits.max_terms + oracle._subspace_count(3, 5, 3)
    assert oracle._walk.cache_info() == info
    assert walk[0] == counts and walk[1] is level
    assert iso_subspaces_bf(ctx, A, 1, fits) == want[A][1]
    assert iso_subspaces_bf(ctx, A, 3) == want[A][3]
    assert walk[0] == want[A][:4] and oracle._walk.cache_info().misses == info.misses


@pytest.mark.parametrize("p, t", [(3, 5), (5, 4), (7, 3)])
def test_iso_count_is_the_census_zero_class(p, t):
    # the totally isotropic subspaces are those on which X restricts to
    # the zero form; iso and the census share only the row sets
    ctx = prime_context(p)
    rng = random.Random(7 * p + t)
    for c in all_classes(t):
        C = canonical_matrix(ctx, c)
        for X in (C, _congruent(ctx, C, rng)):
            for j in range(t + 1):
                zero = subspace_census(ctx, X, j).get(FormClass(j, 0, SQ), 0)
                assert iso_subspaces_bf(ctx, X, j) == zero, (X, j)


@pytest.mark.parametrize("p", [181, 191, 46337, 46349, 2147483659, 3037000493])
def test_subspaces_at_dtype_boundary_primes(p):
    ctx = prime_context(p)
    huge = p > 10**9
    if huge:
        tracemalloc.start()
    try:
        assert iso_subspaces_bf(ctx, ((0,),), 1) == 1
        assert iso_subspaces_bf(ctx, ((1,),), 1) == 0
        assert iso_subspaces_bf(ctx, _zero(2), 2) == 1
        assert iso_subspaces_bf(ctx, ((1, p - 1), (p - 1, 0)), 2) == 0
        for X in (((p - 2,),), ((0, 1), (1, 0)), ((1, 3), (3, 0)), _zero(2)):
            t = len(X)
            assert subspace_census(ctx, X, t) == {classify(ctx, X): 1}
            assert subspace_census(ctx, X, 0) == {FormClass(0, 0, SQ): 1}
        # the lines of F_p^2: p + 1 of them, beyond the budget when huge
        forms = {
            ((0, 1), (1, 0)): 2,  # hyperbolic plane
            ((1, 0), (0, 0)): 1,
            ((1, 0), (0, 1)): 1 + ctx.epsilon,  # x^2 + y^2 = 0 needs -1 square
            _zero(2): p + 1,
        }
        for X, lines in forms.items():
            if huge:
                with pytest.raises(BudgetExceeded):
                    iso_subspaces_bf(ctx, X, 1)
                with pytest.raises(BudgetExceeded):
                    subspace_census(ctx, X, 1)
                continue
            assert iso_subspaces_bf(ctx, X, 1) == lines
            census = subspace_census(ctx, X, 1)
            assert sum(census.values()) == p + 1
            assert census == subspace_census(
                ctx, canonical_matrix(ctx, classify(ctx, X)), 1
            )
        if huge:
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        if huge:
            tracemalloc.stop()


def _random_form(rng, p, t):
    X = [[rng.randrange(p) for _ in range(t)] for _ in range(t)]
    return tuple(tuple(X[min(i, j)][max(i, j)] for j in range(t)) for i in range(t))


def _q(X, u, v, p):
    t = len(X)
    return sum(u[i] * X[i][k] * v[k] for i in range(t) for k in range(t)) % p


def _no_table(*args):
    raise AssertionError("a refused count must build no table")


# the sizes t checked at each prime: F_p^t has few enough lines to list,
# and at p > 2.1 * 10^9, where t (p-1)^2 <= 2^63 - 1 holds for t = 1
# alone, t = 2 has p + 1 < 10^18 lines, within Budget(10**18)
_BOUNDARY_SIZES = {181: (1, 2, 3), 46349: (1, 2), 2147483659: (1, 2), 3037000493: (1, 2)}


@pytest.mark.parametrize("p", sorted(_BOUNDARY_SIZES))
def test_forms_are_exact_in_int64(p, monkeypatch):
    # XL = L X mod p and zero = (q(v) == 0) on every line against Python
    # integers, while t (p-1)^2 <= 2^63 - 1; past it CapExceeded before
    # any line table is built
    ctx = prime_context(p)
    rng = random.Random(p)
    for t in _BOUNDARY_SIZES[p]:
        X = _random_form(rng, p, t)
        if t * (p - 1) ** 2 > 2**63 - 1:
            with monkeypatch.context() as m:
                m.setattr(oracle, "_lines", _no_table)
                with pytest.raises(oracle.CapExceeded):
                    oracle._line_forms(ctx, X)
            continue
        L, XL, zero = oracle._line_forms(ctx, X)
        lines = L.tolist()
        assert XL.tolist() == [
            [sum(v[i] * X[i][k] for i in range(t)) % p for k in range(t)] for v in lines
        ]
        assert zero.tolist() == [_q(X, v, v, p) == 0 for v in lines]


@pytest.mark.parametrize("p", sorted(_BOUNDARY_SIZES))
def test_orthogonality_is_exact_in_int64(p, monkeypatch):
    # the orthogonality mask of the walk's step (_orthogonal) against
    # Python integers, on bases of one row and of two; past
    # t (p-1)^2 <= 2^63 - 1 both subspace counts refuse with
    # CapExceeded, whatever the budget, after its charge and before any
    # table is built
    ctx = prime_context(p)
    rng = random.Random(p)
    for t in _BOUNDARY_SIZES[p]:
        X = _random_form(rng, p, t)
        if t * (p - 1) ** 2 > 2**63 - 1:
            with monkeypatch.context() as m:
                for name in ("_lines", "_row_set", "_family_rows", "_echelon_blocks"):
                    m.setattr(oracle, name, _no_table)
                for count in (iso_subspaces_bf, subspace_census):
                    with pytest.raises(oracle.CapExceeded):
                        count(ctx, X, 1, Budget(10**18))
                    with pytest.raises(BudgetExceeded) as e:
                        count(ctx, X, 1)  # the default budget comes first
                    assert not isinstance(e.value, oracle.CapExceeded)
            continue
        L, XL, _ = oracle._line_forms(ctx, X)
        lines = L.tolist()
        n = len(lines)
        # v orthogonal to u, which t >= 2 has: the basis [u, u] takes it,
        # [u, w] not unless w is orthogonal to it too, so the mask needs
        # every row
        u, w = rng.randrange(n), rng.randrange(n)
        v = next((v for v in range(n) if _q(X, lines[u], lines[v], p) == 0), u)
        block = [[u, u], [u, w]] + [[rng.randrange(n) for _ in range(2)] for _ in range(3)]
        cand = [v] + [rng.randrange(n) for _ in range(4)] + [n - 1]
        ok = oracle._orthogonal(p, L, XL[cand], np.array(block).T)  # a basis per column
        want = [
            [all(_q(X, lines[b], lines[c], p) == 0 for b in rows) for c in cand]
            for rows in block
        ]
        assert ok.T.tolist() == want and (want[0][0] or t == 1)
        ok = oracle._orthogonal(p, L, XL[cand], np.array(block)[:, :1].T)  # top rows alone
        assert ok.T.tolist() == [[_q(X, lines[rows[0]], lines[c], p) == 0 for c in cand] for rows in block]


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
    def totals(T):
        (tab,) = class_character_tables(ctx3, [T])
        tot = [0, 0, 0]
        for d in range(3):
            for e in range(3):
                tot[e] += int(tab[2 * d][e] + tab[2 * d + 1][e])
        return tot

    for T in (((1, 0), (0, 1)), ((1, 2), (2, 0)), ((0, 1), (1, 0))):
        assert reduce_exponent_vector(3, totals(T)) == (0, 0)
    assert reduce_exponent_vector(3, totals(_zero(2))) == (27, 0)


def test_untwisted_sums(ctx3, ctx5):
    one = ((1,),)
    om3 = ((2,),)
    assert gauss_untwisted_bf(ctx3, one, one) == g_star_one(ctx3)
    assert gauss_untwisted_bf(ctx5, ((2,),), one) == cyc_neg(g_star_one(ctx5))
    I2 = ((1, 0), (0, 1))
    assert gauss_untwisted_bf(ctx3, I2, I2) == cyc_const(ctx3, 9)
    assert gauss_untwisted_bf(ctx3, om3, om3) == g_star_one(ctx3)


def _untwisted_matmul(ctx, A, B):
    """The untwisted sum by batched matrix products, digit matrix by
    digit matrix: 2 trace(U^T A U B) for every U in blocks of 2^18."""
    p, n = ctx.p, len(A)
    Aa = np.array(A, np.int64)
    Bb = np.array(B, np.int64)
    total = p ** (n * n)
    acc = np.zeros(p, np.int64)
    for lo in range(0, total, 1 << 18):
        hi = min(lo + (1 << 18), total)
        U = digits_block(p, n * n, lo, hi).astype(np.int64).reshape(-1, n, n)
        V = (Aa @ U) % p
        V = (V @ Bb) % p
        e = (2 * (U * V).sum(axis=(1, 2))) % p
        acc += np.bincount(e, minlength=p)
    return CycInt(p, reduce_exponent_vector(p, acc))


def _untwisted_loop(ctx, A, B):
    """The untwisted sum by a plain loop over every U."""
    p, n = ctx.p, len(A)
    acc = [0] * p
    for u in itertools.product(range(p), repeat=n * n):
        U = [u[i * n : (i + 1) * n] for i in range(n)]
        tr = sum(
            U[j][i] * A[j][k] * U[k][l] * B[l][i]
            for i in range(n) for j in range(n) for k in range(n) for l in range(n)
        )
        acc[2 * tr % p] += 1
    return CycInt(p, reduce_exponent_vector(p, acc))


def _form_pairs(ctx, n, rng):
    """(A, B) with A of every class, zero and singular ones included, and
    B of a random class, each congruent to its canonical form by a
    random P; plus the pair of zero forms."""
    classes = all_classes(n)
    pairs = [(_zero(n), _zero(n))]
    for c in classes:
        d = rng.choice(classes)
        pairs.append(
            (
                _congruent(ctx, canonical_matrix(ctx, c), rng),
                _congruent(ctx, canonical_matrix(ctx, d), rng),
            )
        )
    return pairs


@pytest.mark.parametrize("seed", [262144, 27, 3])
def test_untwisted_matches_the_matmul_reference(seed):
    # three draws of random congruent pairs, off the diagonal
    rng = random.Random(seed)
    cells = [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 2), (11, 2)]
    for p, n in cells:
        ctx = prime_context(p)
        for A, B in _form_pairs(ctx, n, rng):
            assert gauss_untwisted_bf(ctx, A, B) == _untwisted_matmul(ctx, A, B), (p, A, B)


@pytest.mark.parametrize("p", [181, 191, 46337, 46349])
def test_untwisted_across_dtype_boundaries(p):
    ctx = prime_context(p)
    rng = random.Random(p)
    for a, b in ((1, 1), (p - 1, p - 1), (rng.randrange(1, p), rng.randrange(1, p)), (0, 1)):
        A, B = ((a,),), ((b,),)
        assert gauss_untwisted_bf(ctx, A, B) == _untwisted_matmul(ctx, A, B)


def test_untwisted_matches_a_plain_loop():
    rng = random.Random(7)
    for p, n in ((3, 2), (5, 1)):
        ctx = prime_context(p)
        for A, B in _form_pairs(ctx, n, rng):
            assert gauss_untwisted_bf(ctx, A, B) == _untwisted_loop(ctx, A, B), (p, A, B)


@pytest.mark.parametrize("seed", [262144, 9, 2])
def test_scalar_targets_match_the_column_frontier(seed):
    # nonzero 1 x 1 targets over forms of every rank, X = 0 included,
    # each X congruent to its canonical form by a random P
    rng = random.Random(seed)
    for p, t_max in ((3, 5), (5, 3), (7, 2)):
        ctx = prime_context(p)
        for t in range(1, t_max + 1):
            for c in all_classes(t):
                X = _congruent(ctx, canonical_matrix(ctx, c), rng)
                for a in range(1, p):
                    want = rep_count_bf(ctx, X, ((a,),), primitive=True)
                    assert rep_star_bf(ctx, X, ((a,),)) == want, (p, X, a)
        assert rep_star_bf(ctx, (), ((1,),)) == 0  # the empty form takes only 0


@pytest.mark.parametrize("p", [3, 5, 7])
def test_untwisted_equals_the_closed_form_to_n_7(p):
    # T = A kron B has size n^2 = 49 at n = 7, read through its class with
    # no enumeration: each kind at canonical A and B, then one random
    # congruent pair per n, off the diagonal from n = 2
    ctx = prime_context(p)
    rng = random.Random(p)
    kinds = list(verify._UNTWISTED_AB.items())
    for n in range(1, 8):
        budget = Budget(max_terms=p ** (n * n))
        pairs = [
            (which, canonical_matrix(ctx, FormClass(n, n, da)), canonical_matrix(ctx, FormClass(n, n, db)))
            for which, (da, db) in kinds
        ]
        which, (da, db) = rng.choice(kinds)
        pairs.append(
            (
                which,
                _random_congruent(rng, ctx, FormClass(n, n, da)),
                _random_congruent(rng, ctx, FormClass(n, n, db)),
            )
        )
        for which, A, B in pairs:
            want = embed(formulas.untwisted_closed(ctx, n, which), ctx)
            assert gauss_untwisted_bf(ctx, A, B, budget) == want, (p, n, which, A, B)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_scalar_targets_equal_lemma51_to_size_12(p):
    # the targets 1 and omega of both nondegenerate forms, past any size
    # that a vector enumeration could reach (7^12 vectors)
    ctx = prime_context(p)
    for size in range(1, 13):
        budget = Budget(max_terms=p**size)
        for form, disc in (("I", SQ), ("J", NONSQ)):
            X = canonical_matrix(ctx, FormClass(size, size, disc))
            for target, a in (("one", 1), ("omega", ctx.omega)):
                want = counts.rep_star_lemma51(ctx, form, size, target)
                assert rep_star_bf(ctx, X, ((a,),), budget) == want, (p, size, form, target)


def test_vector_counts_are_charged_first(monkeypatch, refuse_o_p_tables):
    # at p = 2147483659 the p vectors of F_p, and the p matrices U of
    # size 1, pass the default budget: both charges raise before any
    # O(p) table or canonical state is built
    monkeypatch.delenv("ISOGAUSS_MAX_TERMS", raising=False)
    ctx = prime_context(2147483659)
    clear_caches()
    for call, what in (
        (lambda: gauss_untwisted_bf(ctx, ((1,),), ((1,),)), "matrix enumeration"),
        (lambda: rep_star_bf(ctx, ((1,),), ((1,),)), "vector enumeration"),
    ):
        with pytest.raises(BudgetExceeded) as e:
            call()
        assert str(e.value) == f"{what} needs 2147483659 terms, budget is 20000000"
    assert not oracle._canonical_counts.cache_keys()


@pytest.mark.parametrize("p", [46337, 46349])
def test_scalar_targets_match_a_plain_count_at_large_p(p):
    # t = 1 on both sides of the int32 product boundary: the count of
    # x X x = a over every x in F_p
    ctx = prime_context(p)
    rng = random.Random(p)
    x = np.arange(p, dtype=np.int64)
    for X in (1, ctx.omega, rng.randrange(1, p)):
        q = x * x % p * X % p
        for a in (1, ctx.omega, p - 1, rng.randrange(1, p)):
            assert rep_star_bf(ctx, ((X,),), ((a,),)) == int(np.count_nonzero(q == a)), (X, a)


@pytest.mark.parametrize("p, t_max", [(3, 5), (5, 4)])
def test_isotropic_lines_match_a_scalar_count(p, t_max):
    # j = 1 counts the isotropic lines: the monic v with v^T X v = 0
    ctx = prime_context(p)
    rng = random.Random(p)
    for t in range(1, t_max + 1):
        monic = [
            v for v in itertools.product(range(p), repeat=t)
            if any(v) and next(x for x in v if x) == 1
        ]
        for c in all_classes(t):
            X = _congruent(ctx, canonical_matrix(ctx, c), rng)
            want = sum(
                sum(v[i] * X[i][k] * v[k] for i in range(t) for k in range(t)) % p == 0
                for v in monic
            )
            assert iso_subspaces_bf(ctx, X, 1) == want, (X,)


def test_budget_checks(ctx3):
    with pytest.raises(ValueError):
        Budget(max_terms=0)
    with pytest.raises(BudgetExceeded):
        gauss_twisted_bf(ctx3, ((1, 0), (0, 1)), Budget(max_terms=10))
    with pytest.raises(BudgetExceeded):
        gauss_untwisted_bf(ctx3, ((1, 0), (0, 1)), ((1, 0), (0, 1)), Budget(max_terms=10))
    with pytest.raises(BudgetExceeded):
        iso_subspaces_bf(ctx3, _zero(4), 2, Budget(max_terms=5))


def test_column_cap_is_fixed_and_named(ctx3):
    # 11^4 = 14,641 columns pass rep_count_bf's fixed cap of 10,000; a
    # larger budget lifts the budget, not the cap, and every except
    # BudgetExceeded still catches it
    ctx = prime_context(11)
    X = canonical_matrix(ctx, FormClass(4, 4, SQ))
    for budget in (None, Budget(max_terms=10**15)):
        with pytest.raises(oracle.CapExceeded) as e:
            rep_count_bf(ctx, X, ((1,),), budget=budget)
        assert isinstance(e.value, BudgetExceeded)
        assert str(e.value) == "column table needs 14641 terms, fixed cap is 10000"
    with pytest.raises(BudgetExceeded) as e:
        gauss_twisted_bf(ctx3, ((1, 0), (0, 1)), Budget(max_terms=10))
    assert str(e.value) == "symmetric enumeration needs 27 terms, budget is 10"
    assert not isinstance(e.value, oracle.CapExceeded)


def test_every_budget_message_is_pinned(ctx3, monkeypatch):
    I2 = ((1, 0), (0, 1))
    I3 = canonical_matrix(ctx3, FormClass(3, 3, SQ))
    Z4 = _zero(4)
    cases = [
        (lambda b: gauss_untwisted_bf(ctx3, I2, I2, b), 10, "matrix enumeration needs 81 terms"),
        (lambda b: rep_star_bf(ctx3, I3, ((1,),), b), 26, "vector enumeration needs 27 terms"),
        # [4, 1]_3 + [4, 2]_3: the lines and the planes of the walk
        (lambda b: iso_subspaces_bf(ctx3, Z4, 2, b), 5, "subspace enumeration needs 170 terms"),
        # rep_count_bf charges its frontiers: the root row and the 4
        # one-column rows it spawns (5), then those 4 as the next frontier (9)
        (lambda b: rep_count_bf(ctx3, I2, I2, budget=b), 1, "representation count needs 5 terms"),
        (lambda b: rep_count_bf(ctx3, I2, I2, budget=b), 5, "representation count needs 9 terms"),
    ]
    for call, limit, msg in cases:
        with pytest.raises(BudgetExceeded) as e:
            call(Budget(max_terms=limit))
        assert str(e.value) == f"{msg}, budget is {limit}"
        assert not isinstance(e.value, oracle.CapExceeded)
        # without a Budget the same charge reads ISOGAUSS_MAX_TERMS
        monkeypatch.setenv("ISOGAUSS_MAX_TERMS", str(limit))
        with pytest.raises(BudgetExceeded) as e:
            call(None)
        assert str(e.value) == f"{msg}, budget is {limit}"
        monkeypatch.delenv("ISOGAUSS_MAX_TERMS")


def test_env_budget(monkeypatch):
    monkeypatch.setenv("ISOGAUSS_MAX_TERMS", "123")
    assert Budget().max_terms == 123
    monkeypatch.setenv("ISOGAUSS_MAX_TERMS", "not a number")
    with pytest.raises(ValueError, match="ISOGAUSS_MAX_TERMS"):
        Budget()
    monkeypatch.setenv("ISOGAUSS_MAX_TERMS", "-5")
    with pytest.raises(ValueError, match="ISOGAUSS_MAX_TERMS"):
        Budget()
    # rep_count_bf reads the budget before its zero-form early return
    monkeypatch.setenv("ISOGAUSS_MAX_TERMS", "abc")
    with pytest.raises(ValueError, match="ISOGAUSS_MAX_TERMS"):
        rep_count_bf(prime_context(3), _zero(2), _zero(1))
    monkeypatch.delenv("ISOGAUSS_MAX_TERMS")
    assert Budget().max_terms == 20_000_000


def _lemma51_grid():
    """(p, X, Y) of the 104 lemma51 instances on the default grid."""
    out = []
    for p in (3, 5, 7):
        ctx = prime_context(p)
        for size in range(2, (5 if p == 3 else 4) + 1):
            targets = [((1,),), ((ctx.omega,),)] + [_zero(d) for d in range(1, size + 1)]
            for disc in (SQ, NONSQ):
                X = canonical_matrix(ctx, FormClass(size, size, disc))
                out += [(ctx, X, Y) for Y in targets]
    return out


def test_lemma51_oracle_matches_the_column_frontier():
    grid = _lemma51_grid()
    assert len(grid) == 104
    for ctx, X, Y in grid:
        want = rep_count_bf(ctx, X, Y, primitive=True)
        assert rep_star_bf(ctx, X, Y) == want, (ctx.p, X, Y)
    # degenerate forms and a zero target wider than the form
    ctx3 = prime_context(3)
    for c in (FormClass(3, 2, NONSQ), FormClass(3, 0, SQ), FormClass(2, 1, SQ)):
        X = canonical_matrix(ctx3, c)
        for Y in (((1,),), ((2,),), _zero(1), _zero(2), _zero(4)):
            assert rep_star_bf(ctx3, X, Y) == rep_count_bf(ctx3, X, Y, primitive=True)


def test_lemma51_oracle_shapes_and_budget(ctx3, monkeypatch):
    I3 = canonical_matrix(ctx3, FormClass(3, 3, SQ))
    for Y in (((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 0), (0, 0))):
        with pytest.raises(ValueError):
            rep_star_bf(ctx3, I3, Y)
    # a nonzero scalar target charges the p^t vectors
    assert rep_star_bf(ctx3, I3, ((1,),), Budget(max_terms=27)) == 6
    with pytest.raises(BudgetExceeded):
        rep_star_bf(ctx3, I3, ((1,),), Budget(max_terms=26))
    # a zero target charges the subspaces, as iso_subspaces_bf does
    with pytest.raises(BudgetExceeded):
        rep_star_bf(ctx3, _zero(4), _zero(2), Budget(max_terms=5))

    def refuse(*args, **kwargs):
        raise AssertionError("lemma51 must not reach rep_count_bf")

    monkeypatch.setattr(oracle, "rep_count_bf", refuse)
    reports = run_suite("lemma51", primes=(3,))
    assert len(reports) == 44 and all(r.match and not r.skipped for r in reports)


@pytest.mark.parametrize("p, n", [(3, 3), (3, 4), (5, 3), (7, 3)])
def test_small_cells_with_n_at_least_3_recurse(monkeypatch, p, n):
    # at the default _CHUNK these cells fit one chunk, yet the
    # reference's codes reach classify_batch only for their sub-cells
    ctx = prime_context(p)
    reference.clear()
    seen = _counting_classify_batch(monkeypatch)
    codes = reference.classified(ctx, n)
    assert seen and all(shape[1] < n for shape in seen)
    assert np.array_equal(codes, _direct_codes(ctx, n))
    reference.clear()


# the default verify grid: max_dim_for under the default budget
_GRID = [(3, n) for n in range(1, 6)] + [(5, n) for n in range(1, 5)] + [(7, n) for n in range(1, 4)]


def _expanded(ctx, J):
    """A canonical T's counts (oracle._canonical_counts) at every residue
    e, read at the square class of e, in Python integers."""
    return J[:, field.chi_table(ctx) % 3]


def _recursion_rows(ctx, T):
    return _expanded(ctx, oracle._canonical_counts(ctx, *reference.canonical_shape(ctx, T)))


def _random_congruent(rng, ctx, c):
    """A random T = P^T D P of class c, D = canonical_matrix(ctx, c),
    with an entry off the diagonal once n >= 2 and rank > 0."""
    p, n = ctx.p, c.n
    D = np.array(canonical_matrix(ctx, c), np.int64)
    while True:
        P = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)], np.int64)
        T = tuple(map(tuple, (P.T @ D @ P % p).tolist()))
        off = n < 2 or c.d == 0 or any(T[i][j] for i in range(n) for j in range(n) if i != j)
        if off and classify(ctx, T) == c:
            return T


@pytest.mark.parametrize("p, n", _GRID + [(211, 2)])
def test_tables_of_random_congruent_ts_match_the_code_count(p, n):
    # the oracle reads each T's class (classify) in a cell that recurses;
    # the reference counts the cell's class codes against T itself, so
    # the two sides share no classification of T. Two random T per
    # class, each with an entry off the diagonal where there is one. The
    # reference keeps the codes for the test below
    ctx = prime_context(p)
    rng = random.Random(97 * p + n)
    Ts = [_random_congruent(rng, ctx, c) for c in all_classes(n) for _ in range(2 if c.d else 1)]
    clear_caches()
    assert np.array_equal(class_character_tables(ctx, Ts), reference.code_tables(ctx, n, Ts))
    clear_caches()


def test_off_diagonal_tables_cache_no_class_codes():
    # one T off the diagonal at each of the 8 primes from 211 to 251: no
    # cell's codes (p^3 bytes, 9.4 MB at p = 211) are built or cached
    clear_caches()
    tracemalloc.start()
    try:
        for p in (211, 223, 227, 229, 233, 239, 241, 251):
            (tab,) = class_character_tables(prime_context(p), [((1, 1), (1, 0))])
            assert tab.sum() == p**3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not oracle._classified.cache_keys()
    assert peak < 10**6, peak
    clear_caches()


def test_canonical_counts_equal_the_count_of_the_codes():
    # on every default-grid cell, n = 1 and 2 included, the recursion's
    # counts of each canonical T, called directly, equal the table counted
    # from the enumerated class codes, which the tests above check against
    # direct and scalar classification; the vector counts V of its own
    # recursion equal a plain count of 2 v^T T v over every v. p = 3 and
    # 7 have chi(-1) = -1, where the hyperbolic case flips the class
    clear_caches()
    for p, n in _GRID:
        ctx = prime_context(p)
        Ts = [canonical_matrix(ctx, c) for c in all_classes(n)]
        for T, want in zip(Ts, reference.code_tables(ctx, n, Ts)):
            shape = reference.canonical_shape(ctx, T)
            J, V = oracle._canonical_counts(ctx, *shape), oracle._canonical_vectors(ctx, *shape)
            assert J.shape == (2 * n + 2, 3) and V.shape == (3,)
            assert np.array_equal(_expanded(ctx, J), want), (p, n, T)
            assert np.array_equal(_expanded(ctx, V[None])[0], reference.vector_counts(p, T)), (p, n, T)
    clear_caches()
    reference.clear()


def test_diagonal_n2_tables_count_the_codes(ctx5, monkeypatch):
    # in an n = 2 cell of at most _CHUNK matrices canonical T count the
    # cell's class codes, as a T off the diagonal does, never the
    # recursion on (class, trace square class): one pass of _code_counts
    # serves every T. At _CHUNK = 25 the cell's 125 matrices are past
    # the chunk, so the same T read the recursion and classify nothing
    Ts = [canonical_matrix(ctx5, c) for c in all_classes(2)]
    want = _scalar_tables(ctx5, 2, Ts)
    clear_caches()
    widths = []
    orig = oracle._code_counts

    def counted(p, codes, W, rows):
        widths.append(W.shape[1])
        return orig(p, codes, W, rows)

    with monkeypatch.context() as m:
        m.setattr(oracle, "_code_counts", counted)
        built = _counting_calls(m, "_canonical_counts")
        classified = _counting_calls(m, "_classified")
        assert np.array_equal(class_character_tables(ctx5, Ts), want)
    assert widths == [len(Ts)] and built == [] and classified[0] == 2
    assert not oracle._canonical_counts.cache_keys()
    clear_caches()
    with monkeypatch.context() as m:
        m.setattr(oracle, "_CHUNK", 25)
        classified = _counting_calls(m, "_classified")
        assert np.array_equal(class_character_tables(ctx5, Ts), want)
    assert classified == [] and not oracle._classified.cache_keys()
    assert {key[1:] for key in oracle._canonical_counts.cache_keys()} >= {(2, 0, 0), (1, 1, 0)}
    clear_caches()


def test_diagonal_n2_histogram_past_the_chunk():
    # (211, 2) has 211^3 > 2^18 matrices: its canonical tables come from
    # the recursion on (class, trace square class) with no class code,
    # and so does a T off the diagonal; both equal a table per T over
    # the reference's codes, built by recursion on dimension
    ctx = prime_context(211)
    Ts = [canonical_matrix(ctx, c) for c in all_classes(2)]
    clear_caches()
    tabs = class_character_tables(ctx, Ts)
    assert not oracle._classified.cache_keys()
    for T, tab in zip(Ts, tabs):
        assert np.array_equal(_recursion_rows(ctx, T), tab)
    dense = ((1, 1), (1, 0))
    (off,) = class_character_tables(ctx, [dense])
    assert not oracle._classified.cache_keys()
    want = reference.code_tables(ctx, 2, Ts + [dense])
    assert np.array_equal(tabs, want[:-1]) and np.array_equal(off, want[-1])
    clear_caches()
    reference.clear()


def test_oracle_imports_no_closed_form():
    # an oracle may not read a closed form under test: oracle.py imports
    # neither counts nor formulas, by any path, and nor does quadform,
    # which it imports; orbit_size, the one class count that reads the
    # group orders, lives in counts
    def imported(module):
        names = set()
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.Import):
                names.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                names.add(node.module or "")
                names.update(f"{node.module or ''}.{a.name}" for a in node.names)
        return {part for name in names for part in name.split(".")}

    parts = imported(oracle)
    assert "quadform" in parts and "cyclotomic" in parts
    assert not parts & {"counts", "formulas", "orbit_size"}
    assert not imported(quadform) & {"counts", "formulas", "orbit_size"}


def test_every_cache_is_made_by_prime_cache():
    # one cache mechanism: no module of the package but field imports
    # lru_cache or functools.cache, or binds an empty dict at module
    # level. The one exception is cli's argparse parser, built once per
    # process and not per prime
    for path in sorted(Path(oracle.__file__).parent.glob("*.py")):
        if path.stem == "field":
            continue
        tree = ast.parse(path.read_text())
        memo = {"lru_cache", "cache"}
        imported = [
            a.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for a in node.names
            if a.name.rpartition(".")[2] in memo or a.name == "functools"
        ]
        decorated = [
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            for d in node.decorator_list
            if {n.id for n in ast.walk(d) if isinstance(n, ast.Name)} & memo
            or {n.attr for n in ast.walk(d) if isinstance(n, ast.Attribute)} & memo
        ]
        empty = [
            ast.unparse(node)
            for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            and node.value is not None
            and ast.unparse(node.value) in ("{}", "dict()")
        ]
        exempt = ["_parser"] if path.stem == "cli" else []
        assert imported == ["lru_cache"] * len(exempt), path.name
        assert decorated == exempt and empty == [], path.name
        assert "per_prime_memo" not in path.read_text(), path.name


def _scalar_histogram(ctx, n):
    """The diagonal histogram by a plain loop: classify each S and read
    its diagonal as a base-p key, first entry most significant."""
    p = ctx.p
    hist = np.zeros((2 * n + 2, p**n), np.int64)
    for S in reference.enumerate_symmetric(ctx, n):
        c = classify(ctx, S)
        key = sum(S[i][i] * p ** (n - 1 - i) for i in range(n))
        hist[2 * c.d + (c.disc == NONSQ), key] += 1
    return hist


@pytest.mark.parametrize("p", [3, 5])
def test_canonical_counts_equal_a_scalar_loop(p):
    # each canonical T's table is the scalar loop's diagonal histogram
    # summed by the exponent 2 sum_i t_i d_i of each diagonal d
    ctx = prime_context(p)
    hist = _scalar_histogram(ctx, 3)
    clear_caches()
    for c in all_classes(3):
        T = canonical_matrix(ctx, c)
        want = np.zeros((8, p), np.int64)
        for key, d in enumerate(itertools.product(range(p), repeat=3)):
            want[:, 2 * sum(T[i][i] * d[i] for i in range(3)) % p] += hist[:, key]
        assert np.array_equal(_recursion_rows(ctx, T), want), c
    clear_caches()


def _signed_sum(ctx, rows, r):
    return CycInt(ctx.p, tuple(oracle.signed_rows(rows, r).tolist()))


@pytest.mark.parametrize("p", [3, 5])
def test_recursion_matches_thm11_and_zero_forms_to_n_40(p):
    # far past the int64 cap, the recursion's counts in Python integers,
    # through signed_rows and embed, equal thm11 for every class with
    # n <= 40, and the zero form's full sum of the zero_forms suite
    ctx = prime_context(p)
    clear_caches()
    for n in range(1, 41):
        for c in all_classes(n):
            want = embed(formulas.thm11_value(ctx, n, c.d, c.disc), ctx)
            assert _signed_sum(ctx, _recursion_rows(ctx, canonical_matrix(ctx, c)), n) == want
        zero = QuadValue(0, 0) if n % 2 else formulas.gauss_zero_even(ctx, n // 2)
        assert _signed_sum(ctx, _recursion_rows(ctx, _zero(n)), n) == embed(zero, ctx), n
    clear_caches()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_recursion_matches_prop41_at_every_rank_to_n_12(p):
    # every class and every rank r >= 1 with n <= 12, and with n <= 30 at
    # p = 3; the zero form's rows are those of zero_forms' restricted sums
    ctx = prime_context(p)
    clear_caches()
    for n in range(1, 31 if p == 3 else 13):
        for c in all_classes(n):
            rows = _recursion_rows(ctx, canonical_matrix(ctx, c))
            for r in range(1, n + 1):
                want = embed(formulas.prop41_value(ctx, n, c.d, c.disc, r), ctx)
                assert _signed_sum(ctx, rows, r) == want, (n, c, r)
    clear_caches()


def test_diagonal_ts_build_no_class_codes_past_n_2(monkeypatch):
    # from a cold cache, the tables of canonical T with n >= 3 come from
    # the recursion alone: no class code is classified or counted, and
    # the tables equal the reference's count of the codes
    def refuse(*args, **kwargs):
        raise AssertionError("class codes were built")

    for p, n in ((3, 4), (5, 3), (7, 3)):
        ctx = prime_context(p)
        Ts = [canonical_matrix(ctx, c) for c in all_classes(n)]
        want = reference.code_tables(ctx, n, Ts)
        clear_caches()
        with monkeypatch.context() as mp:
            mp.setattr(oracle, "_classified", refuse)
            mp.setattr(oracle, "_code_counts", refuse)
            assert np.array_equal(class_character_tables(ctx, Ts), want), (p, n)
    # so do a T with an entry off the diagonal and a diagonal T that is
    # not canonical: each reads the canonical T of its class
    ctx5 = prime_context(5)
    dense = ((1, 2, 0), (2, 0, 3), (0, 3, 4))
    for T in (dense, ((2, 0, 0), (0, 1, 0), (0, 0, 0)), ((0, 0, 0), (0, 1, 0), (0, 0, 0))):
        want = reference.code_tables(ctx5, 3, [T])
        c = classify(ctx5, T)
        clear_caches()
        with monkeypatch.context() as mp:
            mp.setattr(oracle, "_classified", refuse)
            mp.setattr(oracle, "_code_counts", refuse)
            assert np.array_equal(class_character_tables(ctx5, [T]), want)
        shape = reference.canonical_shape(ctx5, canonical_matrix(ctx5, c))
        assert (ctx5, *shape) in oracle._canonical_counts.cache_keys()
        assert not oracle._classified.cache_keys()
    clear_caches()


def test_int64_cap_refuses_before_any_histogram(monkeypatch):
    # 3^45 matrices at (3, 9) pass 2^63 - 1: a lifted budget gets
    # CapExceeded, never a wrapped table, and nothing is built first
    ctx = prime_context(3)
    lifted = Budget(max_terms=10**30)
    T9 = canonical_matrix(ctx, FormClass(9, 9, SQ))
    clear_caches()
    with monkeypatch.context() as m:
        built = _counting_calls(m, "_canonical_counts")
        classified = _counting_calls(m, "_classified")
        with pytest.raises(oracle.CapExceeded) as e:
            class_character_tables(ctx, [T9], lifted)
    assert built == [] and classified == [] and not oracle._canonical_counts.cache_keys()
    assert isinstance(e.value, BudgetExceeded)
    assert str(e.value) == f"int64 class table needs {3**45} terms, fixed cap is {2**63 - 1}"
    # the default budget refuses first, with the budget's own message
    with pytest.raises(BudgetExceeded) as e:
        class_character_tables(ctx, [T9])
    assert not isinstance(e.value, oracle.CapExceeded)
    # (3, 8), 3^36 matrices, is exact: every table sums to that total in
    # Python integers, with no negative count
    Ts = [canonical_matrix(ctx, c) for c in all_classes(8)]
    tabs = class_character_tables(ctx, Ts, lifted)
    assert tabs.min() >= 0
    assert all(sum(tab.ravel().tolist()) == 3**36 for tab in tabs)
    clear_caches()
