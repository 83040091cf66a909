import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isogauss import (
    NONSQ,
    SQ,
    FormClass,
    all_classes,
    canonical_matrix,
    class_character_tables,
    classify,
    clear_caches,
    iso_subspaces_bf,
    orbit_size,
    prime_context,
    sym_matrix,
)
from isogauss.quadform import (
    SymMatrix,
    _eliminate,
    block_diag,
    classify_batch,
    digits_block,
    int_dtype,
    upper_positions,
)

from reference import enumerate_symmetric, symmetric_from_digits


def _invertible(rng, p, n):
    # a permutation times a unit lower triangular matrix and an upper
    # triangular one with a nonzero diagonal, all other entries random:
    # invertible by construction, with no determinant
    lower = [[int(i == j) if i <= j else rng.randrange(p) for j in range(n)] for i in range(n)]
    upper = [[0 if i > j else rng.randrange(1, p) if i == j else rng.randrange(p) for j in range(n)] for i in range(n)]
    rows = [[sum(x * y for x, y in zip(r, col)) % p for col in zip(*upper)] for r in lower]
    return [rows[i] for i in rng.sample(range(n), n)]


def _congruent(p, D, U):
    # U^T D U mod p, in Python integers
    DU = [[sum(x * y for x, y in zip(r, col)) % p for col in zip(*U)] for r in D]
    return tuple(tuple(sum(x * y for x, y in zip(r, col)) % p for col in zip(*DU)) for r in zip(*U))


def test_all_classes_enumeration():
    assert all_classes(1) == [
        FormClass(1, 0, SQ),
        FormClass(1, 1, SQ),
        FormClass(1, 1, NONSQ),
    ]
    assert len(all_classes(4)) == 9
    for c in all_classes(3):
        assert 0 <= c.d <= 3
        if c.d == 0:
            assert c.disc == SQ


def test_canonical_matrices(ctx3):
    assert canonical_matrix(ctx3, FormClass(2, 2, SQ)) == ((1, 0), (0, 1))
    assert canonical_matrix(ctx3, FormClass(2, 2, NONSQ)) == ((1, 0), (0, 2))
    assert canonical_matrix(ctx3, FormClass(3, 1, SQ)) == (
        (1, 0, 0),
        (0, 0, 0),
        (0, 0, 0),
    )


def test_classify_round_trip():
    for p in (3, 5, 7):
        ctx = prime_context(p)
        for n in range(1, 5):
            for c in all_classes(n):
                assert classify(ctx, canonical_matrix(ctx, c)) == c


def test_classify_diagonal_cases(ctx3, ctx5):
    # diag(1,1) over F_5 is hyperbolic but still the Square class
    assert classify(ctx5, ((1, 0), (0, 1))) == FormClass(2, 2, SQ)
    # det 2 = nonsquare at p=3
    assert classify(ctx3, ((0, 1), (1, 0))) == FormClass(2, 2, NONSQ)
    # rank drops
    assert classify(ctx3, ((1, 1), (1, 1))) == FormClass(2, 1, SQ)
    assert classify(ctx3, ((0, 0), (0, 0))) == FormClass(2, 0, SQ)


def test_orbit_partition_p3_n2(ctx3):
    # the 27 symmetric 2x2 matrices split into orbits of known sizes
    found = {}
    for T in enumerate_symmetric(ctx3, 2):
        c = classify(ctx3, T)
        found[c] = found.get(c, 0) + 1
    assert found == {
        FormClass(2, 0, SQ): 1,
        FormClass(2, 1, SQ): 4,
        FormClass(2, 1, NONSQ): 4,
        FormClass(2, 2, SQ): 6,
        FormClass(2, 2, NONSQ): 12,
    }
    for c, size in found.items():
        assert orbit_size(ctx3, c) == size


def test_orbit_sizes_sum_to_symmetric_count():
    for p in (3, 5):
        ctx = prime_context(p)
        for n in range(1, 4):
            total = sum(orbit_size(ctx, c) for c in all_classes(n))
            assert total == p ** (n * (n + 1) // 2)


def test_congruence_invariance_of_classify():
    # U^T D U, D the canonical matrix of each class, has D's class: both
    # classifiers, both sides of each int_dtype boundary, and for the
    # scalar one the largest prime that prime_context accepts (the batch
    # one reads an O(p) chi table)
    rng = random.Random(11)
    for p in (3, 5, 181, 191, 46337, 46349, 1000003, 3037000493):
        ctx = prime_context(p)
        for n in range(1, 7):
            want, mats = [], []
            for c in all_classes(n):
                D = canonical_matrix(ctx, c)
                for _ in range(3):
                    T = _congruent(p, D, _invertible(rng, p, n))
                    assert classify(ctx, T) == c, (p, T)
                    want.append((c.d, -1 if c.disc == NONSQ else 1))
                    mats.append(T)
            if p <= 1000003:
                ranks, discs = classify_batch(ctx, np.array(mats, np.int64))
                assert list(zip(ranks.tolist(), discs.tolist())) == want, (p, n)


def test_classify_batch_agrees_with_scalar():
    rng = random.Random(5)
    for p in (3, 5, 7):
        ctx = prime_context(p)
        for n in (1, 2, 3, 4):
            mats = []
            for _ in range(40):
                M = np.zeros((n, n), dtype=np.int64)
                for i in range(n):
                    for j in range(i, n):
                        M[i, j] = M[j, i] = rng.randrange(p)
                mats.append(M)
            batch = np.stack(mats)
            ranks, discs = classify_batch(ctx, batch)
            for k, M in enumerate(mats):
                c = classify(ctx, tuple(tuple(int(x) for x in row) for row in M))
                assert ranks[k] == c.d
                assert discs[k] == (-1 if c.disc == NONSQ else 1)


def test_int_dtype_boundaries():
    assert int_dtype(3) is np.int16 and int_dtype(181) is np.int16
    assert int_dtype(191) is np.int32 and int_dtype(46337) is np.int32
    assert int_dtype(46349) is np.int64


@pytest.mark.parametrize("p", [127, 131, 181, 191, 1009, 32771])
def test_classify_batch_agrees_across_dtype_boundaries(p):
    ctx = prime_context(p)
    rng = random.Random(p)
    mats = []
    for _ in range(100):
        n = rng.choice((2, 3))
        M = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            for j in range(i, n):
                M[i, j] = M[j, i] = rng.randrange(p)
        # degenerate rows exercise the pivot swaps and the off-diagonal fixup
        if rng.random() < 0.3:
            M[0, 0] = 0
        mats.append(M)
    for n in (2, 3):
        group = [M for M in mats if len(M) == n]
        ranks, discs = classify_batch(ctx, np.stack(group))
        for k, M in enumerate(group):
            c = classify(ctx, tuple(tuple(int(x) for x in row) for row in M))
            assert (ranks[k], discs[k]) == (c.d, -1 if c.disc == NONSQ else 1)


@given(st.data())
@settings(max_examples=200)
def test_classify_batch_matches_classify(data):
    # primes on both sides of the int16 and int32 boundaries of int_dtype
    p = data.draw(st.sampled_from((3, 5, 181, 191, 46337, 46349)))
    n = data.draw(st.integers(min_value=1, max_value=4))
    entry = st.integers(min_value=0, max_value=p - 1)
    upper = data.draw(st.lists(entry, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    T = symmetric_from_digits(n, upper)
    ctx = prime_context(p)
    ranks, discs = classify_batch(ctx, np.array([T], dtype=np.int64))
    c = classify(ctx, T)
    assert (ranks[0], discs[0]) == (c.d, -1 if c.disc == NONSQ else 1)


def test_digits_block_wide_primes():
    p = 100003
    block = digits_block(p, 2, 40000 * p + 39999, 40000 * p + 40002)
    assert block.tolist() == [[40000, 39999], [40000, 40000], [40000, 40001]]


def test_enumerate_symmetric_is_exhaustive(ctx3):
    seen = set(enumerate_symmetric(ctx3, 2))
    assert len(seen) == 27
    assert ((0, 0), (0, 0)) in seen
    for T in seen:
        assert T[0][1] == T[1][0]


def test_digit_layout_round_trip():
    # digits_block rows must inflate to the same matrices the
    # sequential enumerator yields, in the same order
    p, n = 3, 3
    ctx = prime_context(p)
    K = n * (n + 1) // 2
    assert len(upper_positions(n)) == K
    block = digits_block(p, K, 5, 12)
    mats = list(enumerate_symmetric(ctx, n))
    for row, want in zip(block, mats[5:12]):
        assert symmetric_from_digits(n, [int(x) for x in row]) == want


def test_sym_matrix_validates(ctx3):
    assert sym_matrix(ctx3, [[4, 1], [1, 0]]) == ((1, 1), (1, 0))
    # a plain tuple is checked as a list is: only a SymMatrix is not
    assert sym_matrix(ctx3, ((4, 1), (1, 0))) == ((1, 1), (1, 0))
    with pytest.raises(ValueError):
        sym_matrix(ctx3, [[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        sym_matrix(ctx3, [[0, 1]])


def test_a_checked_matrix_is_checked_again_only_for_another_prime(ctx3, ctx5):
    m = sym_matrix(ctx5, [[9, 1], [6, 3]])
    assert type(m) is SymMatrix and m.p == 5 and m == ((4, 1), (1, 3))
    assert all(type(r) is tuple for r in m)
    assert sym_matrix(ctx5, m) is m
    c = canonical_matrix(ctx5, FormClass(3, 2, NONSQ))
    assert type(c) is SymMatrix and c.p == 5 and sym_matrix(ctx5, c) is c
    # checked for 5, then passed with 3: reduced again, and classified
    # at 3 (det 11 is a square mod 5, det -1 is not mod 3)
    m3 = sym_matrix(ctx3, m)
    assert m3 == ((1, 1), (1, 0)) and m3.p == 3 and m.p == 5
    assert classify(ctx5, m) == FormClass(2, 2, SQ)
    assert classify(ctx3, m) == FormClass(2, 2, NONSQ)


@pytest.mark.parametrize(
    "rows", [[[0, 1], [2, 0]], ((0, 1), (2, 0)), [[0, 1]], ((0, 1),), ((1, 2), (2,))]
)
def test_a_bad_matrix_raises_on_every_call(ctx3, rows):
    # non-symmetric mod 3, or not square: no cache keeps a verdict
    for _ in range(2):
        with pytest.raises(ValueError):
            sym_matrix(ctx3, rows)
        with pytest.raises(ValueError):
            classify(ctx3, rows)


@pytest.mark.parametrize(
    "count",
    [
        classify,
        lambda ctx, T: iso_subspaces_bf(ctx, T, 1),
        lambda ctx, T: class_character_tables(ctx, [T]),
    ],
    ids=["classify", "iso_subspaces_bf", "class_character_tables"],
)
def test_float_entries_raise_type_error(ctx5, count):
    # operator.index, not int: 0.5 must not count as 0, nor 1.0 as 1;
    # a zero float gets no further than sym_matrix either
    floats = ((0.5, 0), (0, 0)), ((1.0, 0), (0, 0)), ((0.0, 0), (0, 0)), [[np.float64(2), 1], [1, 0]]
    for rows in floats:
        with pytest.raises(TypeError):
            count(ctx5, rows)


def test_numpy_entries_are_taken_as_python_ints():
    # at the largest prime, products of np.int64 residues would wrap:
    # every checked entry is a Python int, so classify never sees one
    p = 3037000493
    ctx = prime_context(p)
    rng = random.Random(3)
    for _ in range(200):
        rows = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                rows[i][j] = rows[j][i] = rng.randrange(p)
        wide = tuple(tuple(np.int64(x) for x in r) for r in rows)
        assert classify(ctx, wide) == classify(ctx, rows), rows
        assert all(type(x) is int for r in sym_matrix(ctx, wide) for x in r)
    # and below the int64 bound the counts read them as the ints they are
    ctx = prime_context(46349)
    for rows in ([[3, 46348], [46348, 0]], [[0, 0], [0, 5]]):
        wide = np.array(rows, np.int64)
        assert iso_subspaces_bf(ctx, wide, 1) == iso_subspaces_bf(ctx, rows, 1)
    wide = np.array([[46348]], np.int64)
    assert np.array_equal(class_character_tables(ctx, [wide]), class_character_tables(ctx, [[[46348]]]))


@pytest.mark.parametrize("p", [3, 5, 181, 46349, 1000003, 3037000493])
def test_memoized_classify_equals_the_elimination(p):
    # classify of U^T D U, twice over, as a tuple and as lists: the
    # class of D each time, and what the uncached elimination finds;
    # each distinct matrix is eliminated once
    ctx = prime_context(p)
    rng = random.Random(p)
    clear_caches()
    mats = []
    for n in range(1, 6):
        for c in all_classes(n):
            D = canonical_matrix(ctx, c)
            mats += [(c, _congruent(p, D, _invertible(rng, p, n))) for _ in range(2)]
    for c, T in mats + mats:
        assert classify(ctx, T) == classify(ctx, [list(r) for r in T]) == c, (p, T)
        assert _eliminate.__wrapped__(ctx, sym_matrix(ctx, T)) == c, (p, T)
    distinct = len({T for _, T in mats})
    assert _eliminate.cache_info()[:2] == (4 * len(mats) - distinct, distinct)
    clear_caches()


def test_block_diag():
    assert block_diag(((1,),), ((2, 0), (0, 2))) == (
        (1, 0, 0),
        (0, 2, 0),
        (0, 0, 2),
    )
