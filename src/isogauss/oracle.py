"""Brute-force oracles.

Every closed formula in this package is checked against the functions
here, which evaluate sums and counts by full enumeration with no
number-theoretic shortcuts. numpy does the batch work; all
accumulation is exact integer arithmetic. Large spaces of symmetric
matrices are classified by recursion on dimension (the Witt
decomposition) rather than matrix by matrix; the recursive, chunked and
pooled classifications give the same class codes bit for bit.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from .cyclotomic import CycInt, cyc_zero, reduce_exponent_vector
from .field import PrimeContext, legendre
from .quadform import (
    NONSQ,
    SQ,
    FormClass,
    classify_batch,
    digits_block,
    int_dtype,
    sym_matrix,
    upper_positions,
)

DEFAULT_MAX_TERMS = 20_000_000
_CHUNK = 1 << 18
_COL_CAP = 10_000  # hard cap on p^t column tables in rep_count_bf


def _env_max_terms() -> int:
    raw = os.environ.get("ISOGAUSS_MAX_TERMS", "")
    if not raw:
        return DEFAULT_MAX_TERMS
    try:
        val = int(raw)
        if val <= 0:
            raise ValueError
    except ValueError:
        raise ValueError(
            f"ISOGAUSS_MAX_TERMS must be a positive integer, got {raw!r}"
        ) from None
    return val


@dataclass(frozen=True)
class Budget:
    """Cap on enumeration work."""

    max_terms: int = field(default_factory=_env_max_terms)

    def __post_init__(self):
        if self.max_terms <= 0:
            raise ValueError("max_terms must be positive")


class BudgetExceeded(Exception):
    def __init__(self, needed: int, limit: int, what: str = "enumeration"):
        super().__init__(f"{what} needs {needed} terms, budget is {limit}")
        self.needed = needed
        self.limit = limit


def _resolve(budget) -> Budget:
    return budget if budget is not None else Budget()


def _mats_from_digits(n: int, digits: np.ndarray) -> np.ndarray:
    """Inflate upper-triangle digit rows into symmetric matrices, in the
    integer type digits_block chose for p."""
    m = np.empty((digits.shape[0], n, n), digits.dtype)
    for k, (i, j) in enumerate(upper_positions(n)):
        m[:, i, j] = digits[:, k]
        if i != j:
            m[:, j, i] = digits[:, k]
    return m


def _exp_weights(ctx: PrimeContext, Ts) -> np.ndarray:
    # column t is w with  2*trace(Ts[t] S) = digits(S) . w  (mod p)
    pos = upper_positions(len(Ts[0]))
    w = [[(2 if i == j else 4) * T[i][j] % ctx.p for T in Ts] for i, j in pos]
    return np.array(w, np.int64)


def _ranges(total: int, jobs: int):
    """Split 0..total-1 into at least `jobs` ranges of at most _CHUNK."""
    tasks = max(jobs, -(-total // _CHUNK))
    step = -(-total // tasks)
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _codes(ctx: PrimeContext, mats: np.ndarray) -> np.ndarray:
    """Class code rank*2 + is_nonsquare of each matrix in a batch."""
    rank, disc = classify_batch(ctx, mats)
    return (rank * 2 + (disc == -1)).astype(np.uint8)


def _class_codes(ctx: PrimeContext, n: int, lo: int, hi: int) -> np.ndarray:
    """Class codes of enumeration indices lo..hi-1."""
    digits = digits_block(ctx.p, n * (n + 1) // 2, lo, hi)
    return _codes(ctx, _mats_from_digits(n, digits))


def _restriction(ctx: PrimeContext, s1) -> np.ndarray:
    """C with digits(N^T S' N) = digits(S') @ C mod p, where the columns
    of N are a basis of the kernel of the nonzero row s1.

    Digits are upper-triangle entries in enumeration order, so C has one
    row per digit of S' and one column per digit of N^T S' N.
    """
    p = ctx.p
    m = len(s1)
    piv = next(i for i, v in enumerate(s1) if v)
    inv = pow(s1[piv], -1, p)
    N = np.zeros((m, m - 1), np.int64)
    for col, i in enumerate(i for i in range(m) if i != piv):
        N[i, col] = 1
        N[piv, col] = -s1[i] * inv % p
    I, J = np.array(upper_positions(m), np.int64).reshape(-1, 2).T
    A, B = np.array(upper_positions(m - 1), np.int64).reshape(-1, 2).T
    # digit (i, j) of S' stands for E_ij + E_ji, or E_ii on the diagonal
    C = N[I][:, A] * N[J][:, B]
    C += np.where((I != J)[:, None], N[J][:, A] * N[I][:, B], 0)
    return C % p


def _recursed(ctx: PrimeContext, n: int) -> np.ndarray:
    """Class codes of the (p, n) cell built from the (p, n-1) and
    (p, n-2) cells, by splitting off the first basis vector (Witt
    decomposition).

    Write S with first row (s11, s1) and lower-right block S'. Each
    prefix (s11, s1) owns one contiguous block of codes, indexed by the
    digits of S' in (p, n-1) enumeration order:
    - s11 != 0: S = <s11> perp (S' - s1 s1^T / s11), so the block is the
      (p, n-1) codes rolled by the digits of s1 s1^T / s11, with rank + 1
      and the class flipped when chi(s11) = -1;
    - s11 = 0, s1 = 0: S = <0> perp S', the (p, n-1) codes as they are;
    - s11 = 0, s1 != 0: S = H perp (S' restricted to ker s1), H a
      hyperbolic plane of discriminant -1, so the block looks up the
      (p, n-2) codes at the digits of N^T S' N, with rank + 2 and the
      class flipped when chi(-1) = -1.

    Prefixes with the same block, (l^2 s11, l s1) for every l != 0 in the
    first case and every multiple of s1 in the last, build it once and
    copy it.
    """
    p = ctx.p
    k1 = n * (n - 1) // 2
    k2 = (n - 1) * (n - 2) // 2
    sub = _classified(ctx, n - 1)
    raised = (sub + 2).reshape((p,) * k1)
    aniso = {1: raised, -1: raised ^ 1}
    hyper = (_classified(ctx, n - 2) + 4) ^ int(ctx.epsilon == -1)
    pos = upper_positions(n - 1)
    axes = tuple(range(k1))
    digits = digits_block(p, k1, 0, p**k1).astype(np.int64)
    powers = p ** np.arange(k2 - 1, -1, -1, dtype=np.int64)
    size = p**k1
    codes = np.empty(p**n * size, np.uint8)
    seen = {}  # block key -> first prefix holding that block
    for h, (s11, *s1) in enumerate(product(range(p), repeat=n)):
        block = codes[h * size : (h + 1) * size]
        if s11:
            # (l^2 s11, l s1) gives the same block for every l != 0
            inv = pow(s11, -1, p)
            key = (legendre(ctx, s11), *(s1[i] * s1[j] * inv % p for i, j in pos))
        elif any(s1):
            # N, and so the block, depends only on the line of s1; the
            # leading 0 keeps these keys apart from the chi(s11) = +-1 ones
            inv = pow(next(v for v in s1 if v), -1, p)
            key = (0, *(v * inv % p for v in s1))
        else:
            block[:] = sub
            continue
        if key in seen:
            block[:] = codes[seen[key] * size : (seen[key] + 1) * size]
            continue
        seen[key] = h
        if s11:
            block[:] = np.roll(aniso[key[0]], key[1:], axes).ravel()
        else:
            block[:] = hyper[(digits @ _restriction(ctx, key[1:])) % p @ powers]
    return codes


# class codes of the full symmetric space, cached per (p, n)
_class_cache: dict = {}


def _classified(ctx: PrimeContext, n: int, jobs=None) -> np.ndarray:
    """Class codes of every symmetric n x n matrix, in enumeration order.

    The first call for a (p, n) cell builds its codes and caches them;
    later calls return the cached codes. A cell with n >= 2 of more than
    _CHUNK matrices is built by recursion on dimension (_recursed) from
    the cached (p, n-1) and (p, n-2) cells. Every other cell, n = 1 at
    any p included, is classified matrix by matrix, through a process
    pool when jobs > 1.
    """
    key = (ctx.p, n)
    codes = _class_cache.get(key)
    if codes is not None:
        return codes
    total = ctx.p ** (n * (n + 1) // 2)
    if n >= 2 and total > _CHUNK:
        codes = _recursed(ctx, n)
    elif jobs and jobs > 1:
        codes = np.empty(total, np.uint8)
        ranges = _ranges(total, jobs)
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            futs = [ex.submit(_class_codes, ctx, n, lo, hi) for lo, hi in ranges]
            for (lo, hi), f in zip(ranges, futs):
                codes[lo:hi] = f.result()
    else:
        codes = np.empty(total, np.uint8)
        for lo, hi in _ranges(total, 1):
            codes[lo:hi] = _class_codes(ctx, n, lo, hi)
    codes.flags.writeable = False  # shared by every later caller
    _class_cache[key] = codes
    return codes


def clear_caches():
    _class_cache.clear()


def _digit_exponents(p: int, W: np.ndarray, dt, mod=None) -> np.ndarray:
    """Row t holds sum_k W[k, t] * d_k mod `mod` (default p) for every
    digit string d of length len(W), in enumeration order (first digit
    most significant).

    Built as an iterated outer sum, one broadcast per digit, so the work
    is one add per entry and no digit matrix is formed.
    """
    e = np.zeros((W.shape[1], 1), np.int64)
    for w in W:
        term = np.multiply.outer(w, np.arange(p, dtype=np.int64))
        e = (e[:, :, None] + term[:, None, :]).reshape(len(e), -1)
    return (e % (mod or p)).astype(dt)


def _tables_per_t(p, codes, W, rows, k_low):
    """Counts (T, class code, exponent): one bincount per T and block."""
    K = len(W)
    nbins = rows * p
    dt = np.min_scalar_type(nbins - 1)  # holds every bin index
    low = _digit_exponents(p, W[K - k_low :], dt)
    high = _digit_exponents(p, W[: K - k_low], np.int64)
    size = low.shape[1]
    acc = np.zeros((W.shape[1], rows, p), np.int64)
    for h in range(high.shape[1]):
        base = codes[h * size : (h + 1) * size].astype(dt) * p
        for row, e in enumerate(low):
            cnt = np.bincount(base + e, minlength=nbins).reshape(-1, p)
            shift = high[row, h]
            acc[row] += np.roll(cnt, shift, axis=1) if shift else cnt
    return acc


def _tables_from_live_digits(p, codes, W, rows, k_low, live):
    """Counts (T, class code, exponent) from one histogram of the class
    code and the live digits, those that some T weights.

    The key of S is its live digits read as a base-p number. Each block
    of codes is counted by one bincount over (code, key of its low live
    digits); its high live digits fix where those counts land. Each T's
    table is then read off the histogram through its exponent on every
    key.
    """
    K = len(W)
    L = int(live.sum())
    nkeys = p**L
    nlow = p ** int(live[K - k_low :].sum())
    place = np.zeros((K, 1), np.int64)  # place value of each digit in the key
    place[live, 0] = p ** np.arange(L - 1, -1, -1, dtype=np.int64)
    dt = np.min_scalar_type(rows * nlow - 1)  # holds every bin index
    # every key is below nkeys, so reducing by it leaves keys whole
    low = _digit_exponents(p, place[K - k_low :], dt, nkeys)[0]
    high = _digit_exponents(p, place[: K - k_low], np.int64, nkeys)[0]
    size = len(low)
    hist = np.zeros((rows, nkeys), np.int64)
    for h, key in enumerate(high.tolist()):
        base = codes[h * size : (h + 1) * size].astype(dt) * nlow
        cnt = np.bincount(base + low, minlength=rows * nlow).reshape(rows, -1)
        hist[:, key : key + nlow] += cnt
    acc = np.zeros((W.shape[1], rows, p), np.int64)
    for tab, e in zip(acc, _digit_exponents(p, W[live], np.int64)):
        np.add.at(tab, (slice(None), e), hist)
    return acc


def _count_rows(ctx: PrimeContext, Ts, budget=None, jobs=None) -> np.ndarray:
    """Counts of symmetric S by (T, class code of S, 2*trace(TS) mod p),
    as an int64 array of shape (len(Ts), 2n + 2, p). Class code
    2*rank + (disc is NonSquare) indexes the rows; row 1 stays zero.

    The exponent 2*trace(TS) is sum_k w_k * d_k mod p, one term per
    upper-triangle digit d_k of S. The digits split into a low part of
    at most _CHUNK entries (a single digit when p alone exceeds it) and
    a high prefix, and each high prefix owns one contiguous block of the
    cached class codes. Call a digit live if some T gives it a nonzero
    weight; for a diagonal T only the n diagonal digits are live. Two
    passes count the blocks, both exactly in int64:
    - when some digit is dead and the histogram over (class code, live
      digits) has at most _CHUNK bins, one bincount per block builds
      that histogram whatever the number of T, and each T's table is
      read off it with np.add.at;
    - otherwise (as at n = 1, or for a T without zero entries) the low
      part's exponents are built once per T, each block is counted by
      one bincount of code*p + low exponent per T, and the prefix adds
      its own exponent by rotating those counts.
    The choice rests on the T alone. Neither pass diagonalises T or
    uses congruence invariance; summing out dead digits is counting.
    """
    p = ctx.p
    Ts = [sym_matrix(ctx, T) for T in Ts]
    n = len(Ts[0])
    if any(len(T) != n for T in Ts):
        raise ValueError("all matrices must share one size")
    K = n * (n + 1) // 2
    total = p**K
    bud = _resolve(budget)
    if total > bud.max_terms:
        raise BudgetExceeded(total, bud.max_terms, "symmetric enumeration")
    codes = _classified(ctx, n, jobs)
    W = _exp_weights(ctx, Ts)
    rows = 2 * n + 2
    k_low = 1
    while k_low < K and p ** (k_low + 1) <= _CHUNK:
        k_low += 1
    live = W.any(axis=1)
    L = int(live.sum())
    if L < K and rows * p**L <= _CHUNK:
        return _tables_from_live_digits(p, codes, W, rows, k_low, live)
    return _tables_per_t(p, codes, W, rows, k_low)


def class_character_tables(ctx: PrimeContext, Ts, budget=None, jobs=None):
    """For each T, count symmetric S by (class of S, 2*trace(TS) mod p).

    Returns one dict per T mapping (rank, disc) to a length-p tuple of
    counts. Every signed or restricted character sum over symmetric
    matrices against T is a linear functional of this table, so one
    enumeration pass (_count_rows) serves all of them.
    """
    tables = []
    for mat in _count_rows(ctx, Ts, budget, jobs):
        tab = {}
        for d in range(len(mat) // 2):
            tab[(d, SQ)] = tuple(mat[2 * d].tolist())
            if d >= 1:
                tab[(d, NONSQ)] = tuple(mat[2 * d + 1].tolist())
        tables.append(tab)
    return tables


def class_character_table(ctx: PrimeContext, T, budget=None):
    return class_character_tables(ctx, [T], budget)[0]


def signed_sum(ctx: PrimeContext, plus, minus) -> CycInt:
    """sum over e of (plus[e] - minus[e]) * zeta^e, for two length-p
    count vectors of one table.

    The counts are nonnegative and share one total below 2^63, so the
    int64 differences, and those taken by the reduction, cannot overflow.
    """
    diff = np.subtract(plus, minus, dtype=np.int64)
    return CycInt(ctx.p, reduce_exponent_vector(ctx.p, diff))


# gauss_twisted_bf and gauss_restricted_bf read class_character_tables,
# not signed_coords, so that their counting pass shows in that span;
# perfbench/test_perfbench.py expects it there under cor12_check


def gauss_twisted_bf(ctx: PrimeContext, T, budget=None) -> CycInt:
    """Sum of legendre(det S) * character(trace(TS)) over symmetric S."""
    tab = class_character_table(ctx, T, budget)
    n = len(T)
    return signed_sum(ctx, tab[(n, SQ)], tab[(n, NONSQ)])


def gauss_restricted_bf(ctx: PrimeContext, T, r: int, budget=None) -> CycInt:
    """Signed character sum over the two rank-r orbits.

    Weight +1 on the Square orbit, -1 on the NonSquare orbit. At r=0
    the orbits coincide and the sum is 0.
    """
    n = len(T)
    if not 0 <= r <= n:
        raise ValueError(f"rank {r} out of range")
    if r == 0:
        return cyc_zero(ctx)
    tab = class_character_table(ctx, T, budget)
    return signed_sum(ctx, tab[(r, SQ)], tab[(r, NONSQ)])


def signed_coords(ctx: PrimeContext, T, r: int, budget=None) -> np.ndarray:
    """Power-basis coordinates, as int64, of the signed character sum
    over the two rank-r orbits of symmetric S against T: the value of
    gauss_restricted_bf(ctx, T, r), and of gauss_twisted_bf at r = len(T).

    Reads the counting pass's int64 rows directly; their differences fit
    int64 as in signed_sum. At r=0 the orbits coincide, and the zero
    vector comes back without an enumeration.
    """
    if not 0 <= r <= len(T):
        raise ValueError(f"rank {r} out of range")
    if r == 0:
        return np.zeros(ctx.p - 1, np.int64)
    rows = _count_rows(ctx, [T], budget)[0]
    diff = rows[2 * r] - rows[2 * r + 1]
    return diff[:-1] - diff[-1]


def gauss_untwisted_bf(ctx: PrimeContext, A, B, budget=None) -> CycInt:
    """Sum of character(trace(^tU A U B)) over all square matrices U."""
    A = sym_matrix(ctx, A)
    B = sym_matrix(ctx, B)
    p = ctx.p
    n = len(A)
    if len(B) != n:
        raise ValueError("A and B must have the same size")
    total = p ** (n * n)
    bud = _resolve(budget)
    if total > bud.max_terms:
        raise BudgetExceeded(total, bud.max_terms, "matrix enumeration")
    Aa = np.array(A, np.int64)
    Bb = np.array(B, np.int64)
    acc = np.zeros(p, np.int64)
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        U = digits_block(p, n * n, lo, hi).astype(np.int64).reshape(-1, n, n)
        V = (Aa @ U) % p
        V = (V @ Bb) % p
        e = (2 * (U * V).sum(axis=(1, 2))) % p
        acc += np.bincount(e, minlength=p)
    return CycInt(p, reduce_exponent_vector(p, acc))


# representation counts ------------------------------------------------


def rep_count_bf(ctx: PrimeContext, X, Y, primitive: bool = False, budget=None) -> int:
    """Count matrices C with ^tC X C = Y; rank C = s when primitive.

    Columns are chosen one at a time subject to the Gram constraints
    against the earlier columns, keeping the whole frontier of partial
    solutions as index arrays. In the primitive case each frontier row
    also excludes the span of its earlier columns, so exactly the
    full-rank C survive. The budget charges frontier rows processed plus
    rows materialized, not the nominal p^(t*s) search space, which the
    frontier never visits.
    """
    X = sym_matrix(ctx, X)
    Y = sym_matrix(ctx, Y)
    p = ctx.p
    t, s = len(X), len(Y)
    if s == 0:
        return 1
    if t == 0:
        if primitive:
            return 0
        return 1 if all(v == 0 for row in Y for v in row) else 0
    limit = _resolve(budget).max_terms
    if all(v == 0 for row in X for v in row):
        # Gram form is identically zero
        if any(v for row in Y for v in row):
            return 0
        if not primitive:
            return p ** (t * s)
        result = 1
        for i in range(s):
            result *= p**t - p**i  # 0 once s > t
        return result

    V = p**t
    if V > _COL_CAP:
        raise BudgetExceeded(V, _COL_CAP, "column table")
    vecs = digits_block(p, t, 0, V).astype(np.int64)
    Xa = np.array(X, np.int64)
    W = (vecs @ Xa) % p
    # entries are residues: int8 holds them below p = 128 and keeps the
    # row gathers below at half the memory traffic of int16
    M = np.empty((V, V), np.int8 if p < 128 else int_dtype(p))
    step = max(1, (1 << 22) // V)
    for lo in range(0, V, step):
        M[lo : lo + step] = (W[lo : lo + step] @ vecs.T) % p
    qdiag = np.ascontiguousarray(M.diagonal())
    pw = p ** np.arange(t - 1, -1, -1, dtype=np.int64)

    cols = np.zeros((1, 0), np.int32)
    nodes = 0
    for j in range(s):
        final = j == s - 1
        R = cols.shape[0]
        if R == 0:
            return 0
        nodes += R
        if nodes > limit:
            raise BudgetExceeded(nodes, limit, "representation count")
        base = qdiag == Y[j][j]
        chunk = 8192
        if primitive:
            # coefficients of every combination of the j earlier columns;
            # the chunk keeps each span array near 4M entries
            coef = digits_block(p, j, 0, p**j).astype(np.int64)
            chunk = max(1, min(chunk, (1 << 22) // (len(coef) * t)))
        parts = []
        total = 0
        for lo in range(0, R, chunk):
            rows = cols[lo : lo + chunk]
            m = np.tile(base, (rows.shape[0], 1))
            for i in range(j):
                m &= M[rows[:, i]] == Y[i][j]
            if primitive:
                span = ((coef @ vecs[rows]) % p) @ pw
                m[np.arange(rows.shape[0])[:, None], span] = False
            cnt = int(m.sum())
            if final:
                total += cnt
                continue
            nodes += cnt
            if nodes > limit:
                raise BudgetExceeded(nodes, limit, "representation count")
            rr, vv = np.nonzero(m)
            parts.append(np.column_stack([rows[rr], vv.astype(np.int32)]))
        if final:
            return total
        cols = np.vstack(parts) if parts else np.zeros((0, j + 1), np.int32)


# subspace counts ------------------------------------------------------


def _subspace_grams(ctx: PrimeContext, X, ell: int, budget):
    """Gram matrices B X ^tB, in batches, of one reduced-row-echelon basis
    B per ell-dimensional subspace of F_p^t, pivot pattern by pattern.

    The budget charges each subspace before its pattern is enumerated.
    """
    X = sym_matrix(ctx, X)
    p = ctx.p
    t = len(X)
    if not 0 <= ell <= t:
        raise ValueError(f"subspace dimension {ell} out of range")
    limit = _resolve(budget).max_terms
    Xa = np.array(X, np.int64)
    nodes = 0
    for pivots in combinations(range(t), ell):
        free = [
            (r, c)
            for r in range(ell)
            for c in range(pivots[r] + 1, t)
            if c not in pivots
        ]
        cnt = p ** len(free)
        nodes += cnt
        if nodes > limit:
            raise BudgetExceeded(nodes, limit, "subspace enumeration")
        for lo in range(0, cnt, 1 << 16):
            hi = min(lo + (1 << 16), cnt)
            digits = digits_block(p, len(free), lo, hi)
            B = np.zeros((hi - lo, ell, t), np.int64)
            for r in range(ell):
                B[:, r, pivots[r]] = 1
            for k, (r, c) in enumerate(free):
                B[:, r, c] = digits[:, k]
            E = (B @ Xa) % p
            yield (E @ B.transpose(0, 2, 1)) % p


def iso_subspaces_bf(ctx: PrimeContext, X, j: int, budget=None) -> int:
    """Count j-dimensional totally isotropic subspaces."""
    return sum(
        int((G == 0).all(axis=(1, 2)).sum())
        for G in _subspace_grams(ctx, X, j, budget)
    )


def subspace_census(ctx: PrimeContext, X, ell: int, budget=None) -> dict:
    """Count ell-dimensional subspaces W by the class of X restricted to W.

    Returns {FormClass(ell, rank, disc): count}, leaving out empty
    classes. The count of class Y is r*(X, Y)/|O(Y)|: the bases of W
    with Gram matrix Y form one O(Y)-torsor.
    """
    acc = np.zeros(2 * ell + 2, np.int64)
    for G in _subspace_grams(ctx, X, ell, budget):
        acc += np.bincount(_codes(ctx, G), minlength=len(acc))
    return {
        FormClass(ell, code // 2, NONSQ if code % 2 else SQ): int(cnt)
        for code, cnt in enumerate(acc)
        if cnt
    }
