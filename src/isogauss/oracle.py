"""Brute-force oracles.

Every closed formula in this package is checked against the functions
here, which evaluate sums and counts by full enumeration with no
number-theoretic shortcuts. numpy does the batch work; all
accumulation is exact integer arithmetic.

The cell picks how a character table is counted. One rule (_recurses:
n >= 3, or a cell of more than _CHUNK matrices) marks the cells counted
by recursion on dimension (the Witt decomposition). There every T is
classified and reads the counts by (class, square class of
2*trace(TS)) of its class's canonical T, diag(1^a1, omega^a2, 0^a0),
from _canonical_counts, cached per shape, with no class code: a
congruence S -> P S P^T carries one table to the other. The smaller
cells, n <= 2 of at most _CHUNK matrices, count their class codes
(_code_counts), classified once per (p, n), chunked or pooled. That
int64 table (class_character_tables) is the only one: every signed or
restricted sum is one reduction of it (signed_rows).
Its counts are exact while a cell holds at most 2^63 - 1 matrices; past
that it is refused with CapExceeded whatever the budget. Every budget
is charged through one check (_charge).

The values of a quadratic form over every vector are counted the same
way (_vector_counts): T = P^T D P, and v -> P v is a bijection of
F_p^t with v^T T v = (P v)^T D (P v), so T reads the vector counts V
of its class's canonical D, in Python integers, from their own cached
recursion (_canonical_vectors), which builds no J. The untwisted sums
(gauss_untwisted_bf) are those of T = A kron B on the entries of U, and
the nonzero scalar targets of rep_star_bf those of X / 2.

The subspaces of F_p^t rest on one primitive, the row sets (_row_set):
each row of a reduced-row-echelon basis ranges over its own set of
lines, independently of the other rows. subspace_census classifies the
Gram matrices of a family of echelon bases (_family), the Cartesian
products of the row sets, built once per (p, t, ell) and kept like the
codes. iso_subspaces_bf reads no family: one walk per form counts every
dimension, each level the last with an isotropic row prepended (_walk).
Both read X from one line table (_line_forms): u^T X v is L[u] . XL[v],
exact in int64 while t (p - 1)^2 fits, refused with CapExceeded past
it. The lemma 5.1 counts (rep_star_bf) come from the vector counts or
from iso_subspaces_bf; rep_count_bf, the general column-by-column
count, stays as the reference the tests compare them with. Every table
kept between calls is a field.prime_cache: at most CACHED_PRIMES
primes, read-only, counted, and emptied by clear_caches.
"""

import os
from dataclasses import dataclass, field
from itertools import combinations
from math import prod

import numpy as np

from .cyclotomic import CycInt, reduce_exponent_vector
from .field import _INT64_MAX, PrimeContext, chi_table, clear_caches, legendre, prime_cache
from .quadform import (
    NONSQ,
    SQ,
    FormClass,
    classify,
    classify_batch,
    digits_block,
    int_dtype,
    sym_matrix,
    upper_positions,
)

DEFAULT_MAX_TERMS = 20_000_000
_CHUNK = 1 << 18
_COL_CAP = 10_000  # fixed cap on p^t column tables in rep_count_bf


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
    limit_name = "budget"

    def __init__(self, needed: int, limit: int, what: str = "enumeration"):
        super().__init__(f"{what} needs {needed} terms, {self.limit_name} is {limit}")
        self.needed = needed
        self.limit = limit


class CapExceeded(BudgetExceeded):
    """A fixed size cap, which no Budget lifts, was passed."""

    limit_name = "fixed cap"


def _charge(budget, needed: int, what: str) -> Budget:
    """Raise BudgetExceeded when `needed` terms of `what` pass the budget
    (Budget(), read from ISOGAUSS_MAX_TERMS, when None); return it."""
    budget = budget if budget is not None else Budget()
    if needed > budget.max_terms:
        raise BudgetExceeded(needed, budget.max_terms, what)
    return budget


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


def _recurses(p: int, n: int) -> bool:
    """Whether the tables of a (p, n) cell come from the recursion on
    dimension (_canonical_counts) and not from its class codes: every
    cell with n >= 3, and any cell of more than _CHUNK matrices."""
    return n >= 3 or p ** (n * (n + 1) // 2) > _CHUNK


@prime_cache
def _classified(ctx: PrimeContext, n: int, jobs=None) -> np.ndarray:
    """Class codes of every symmetric n x n matrix of a cell that does not
    _recurse (n <= 2, at most _CHUNK matrices), in enumeration order,
    classified matrix by matrix, through a process pool when jobs > 1:
    kept per (p, n), or (p, n, jobs) if jobs is given.
    """
    total = ctx.p ** (n * (n + 1) // 2)
    codes = np.empty(total, np.uint8)
    if jobs and jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported by the pool alone

        ranges = _ranges(total, jobs)
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            futs = [ex.submit(_class_codes, ctx, n, lo, hi) for lo, hi in ranges]
            for (lo, hi), f in zip(ranges, futs):
                codes[lo:hi] = f.result()
    else:
        for lo, hi in _ranges(total, 1):
            codes[lo:hi] = _class_codes(ctx, n, lo, hi)
    return codes


def _digit_exponents(p: int, W: np.ndarray) -> np.ndarray:
    """Row t holds sum_k W[k, t] * d_k mod p, in int64, for every digit
    string d of length len(W), in enumeration order (first digit most
    significant).

    Built as an iterated outer sum, one broadcast per digit, so the work
    is one add per entry and no digit matrix is formed.
    """
    e = np.zeros((W.shape[1], 1), np.int64)
    for w in W:
        term = np.multiply.outer(w, np.arange(p, dtype=np.int64))
        e = (e[:, :, None] + term[:, None, :]).reshape(len(e), -1)
    return e % p


def _code_counts(p, codes, W, rows):
    """Counts of a cell's class codes by (column t of W, class code,
    sum_k W[k, t] * d_k mod p), d the digits of the code's enumeration
    index: int64, of shape (W.shape[1], rows, p), one bincount of
    code * p + exponent per column. Only a cell that does not _recurse
    counts codes: n <= 2 with at most _CHUNK matrices, so each column's
    exponents are a single array.
    """
    base = codes * np.int64(p)
    acc = np.empty((W.shape[1], rows * p), np.int64)
    for tab, e in zip(acc, _digit_exponents(p, W)):
        tab[:] = np.bincount(base + e, minlength=rows * p)
    return acc.reshape(-1, rows, p)


@prime_cache
def _class_sums(ctx: PrimeContext) -> np.ndarray:
    """A[k, i, j] = #{x : x in class i, rep_k - x in class j} over the
    square classes of F_p, 0, the nonzero squares and the nonsquares
    (chi mod 3), with representatives 0, 1 and omega. A function f
    constant on square classes, convolved with another such g, takes the
    value sum_ij A[k, i, j] f_i g_j on class k: (A @ g) @ f. Counted with
    chi in O(p), as Python integers (an object array) that multiply
    counts of any size exactly."""
    cls = chi_table(ctx) % 3
    neg = np.roll(cls[::-1], 1)  # the class of -x; rolled by rep, of rep - x
    A = [np.bincount(3 * cls + np.roll(neg, rep), minlength=9) for rep in (0, 1, ctx.omega)]
    return np.array(np.reshape(A, (3, 3, 3)).tolist(), object)


@prime_cache
def _canonical_counts(ctx: PrimeContext, a1: int, a2: int, a0: int):
    """J for T = diag(1^a1, omega^a2, 0^a0), n = a1 + a2 + a0, as an
    object array of Python integers, by recursion on n; each shape is
    built once and cached read-only, with every shape it recursed
    through.

    J[c, k] counts the symmetric S of class code c with 2*trace(TS)
    equal to one given residue of square class k (0, a nonzero square,
    a nonsquare): the same for each residue of the class, since
    S -> l^2 S keeps the class of S and multiplies trace(TS) by l^2.
    V_T[k], the vectors s with 2 s^T T s that residue, comes from its
    own recursion (_canonical_vectors).

    Write S with first row (d1, s1) and lower-right block S', t1 the
    first entry of T and T' the rest, of size m = n - 1; splitting off
    the first basis vector (Witt decomposition) gives three cases:
    - d1 = 0, s1 = 0: S = <0> perp S', J_T' as it is;
    - d1 != 0: S = <d1> perp S'', S'' = S' - s1 s1^T / d1 a bijection of
      S' for each s1, and 2 trace(TS) = 2 t1 d1 + 2 trace(T'S'') +
      2 Q_T'(s1) / d1. So J_T' is convolved with the values of
      2 Q_T'(s1) / d1 (V_T', its classes swapped when chi(d1) = -1) and
      with the point masses at 2 t1 d1 over the d1 of each character,
      two rows up, the class flipped when chi(d1) = -1;
    - d1 = 0, s1 != 0: S = H perp R, H a hyperbolic plane of
      discriminant -1 and R = S' restricted to ker s1, four rows up, the
      class flipped when chi(-1) = -1. S' -> R is onto Sym_(m-1) with
      fibres of p^m, in the basis of ker s1 that corrects each other unit
      vector at the pivot of s1. An s1 supported on the a0' zeros of T'
      has its pivot at a zero, so trace(T'S') = trace(T''R) for T'' = T'
      with one zero fewer; for any other s1, trace(T'S') is
      not constant on the fibres and each residue gets p^(m-1) of them.
      Together: p^m (p^a0' - 1) J_T'' + p^(m-1) (p^m - p^a0') N_(m-1),
      N_(m-1) the class totals of Sym_(m-1), the zero T's J at 0.
    """
    p, n = ctx.p, a1 + a2 + a0
    if not n:  # the empty matrix: rank 0, trace 0
        J = np.array([[1, 0, 0], [0, 0, 0]], object)
    else:
        t1, sub, cls = _first_entry(ctx, a1, a2, a0)
        m, m_zeros = n - 1, sub[2]
        sub_J, sub_V = _canonical_counts(ctx, *sub), _canonical_vectors(ctx, *sub)
        A = _class_sums(ctx)
        J = np.zeros((2 * n + 2, 3), object)
        J[: 2 * n] = sub_J
        for sign in (1, -1):
            shift = np.zeros(3, object)  # the point masses at 2 t1 d1, chi(d1) = sign
            shift[cls * sign % 3] = 1 if t1 else (p - 1) // 2
            K = (A @ shift) @ sub_V[[0, 1, 2] if sign == 1 else [0, 2, 1]]
            J[(np.arange(2 * n) + 2) ^ (sign == -1)] += sub_J @ (A @ K).T
        if m:
            N = _canonical_counts(ctx, 0, 0, m - 1)[:, :1]
            H = p ** (m - 1) * (p**m - p**m_zeros) * N
            if m_zeros:  # T'' = T' with one zero fewer
                H = H + p**m * (p**m_zeros - 1) * _canonical_counts(ctx, *sub[:2], m_zeros - 1)
            J[(np.arange(2 * m) + 4) ^ (ctx.epsilon == -1)] += H
    return J


def _first_entry(ctx: PrimeContext, a1: int, a2: int, a0: int):
    """(t1, the shape of T', the square class of 2 t1 x^2 for x != 0):
    t1 the first diagonal entry of T = diag(1^a1, omega^a2, 0^a0), n >= 1,
    and T' the rest."""
    t1 = 1 if a1 else ctx.omega if a2 else 0
    sub = (max(a1 - 1, 0), a2 - (t1 == ctx.omega), a0 - (t1 == 0))
    return t1, sub, legendre(ctx, 2 * t1) % 3


@prime_cache
def _canonical_vectors(ctx: PrimeContext, a1: int, a2: int, a0: int):
    """V for T = diag(1^a1, omega^a2, 0^a0) (_canonical_counts), by its
    own recursion on n: v = (x, v') gives 2 v^T T v = 2 t1 x^2 +
    2 v'^T T' v', so V_T is the values of 2 t1 x^2 convolved with V_T'.
    Each shape is built once and cached read-only; no J table is built."""
    if not a1 + a2 + a0:  # the empty vector: 2 v^T T v = 0
        return np.array([1, 0, 0], object)
    t1, sub, cls = _first_entry(ctx, a1, a2, a0)
    # 2 t1 x^2 takes 0 once and each residue of its class twice
    v = np.array([1, 2 * (cls == 1), 2 * (cls == 2)] if t1 else [ctx.p, 0, 0], object)
    return (_class_sums(ctx) @ v) @ _canonical_vectors(ctx, *sub)


def _class_shape(ctx: PrimeContext, T):
    """(a1, a2, a0) with T congruent to diag(1^a1, omega^a2, 0^a0), the
    canonical_matrix of its class (classify)."""
    c = classify(ctx, T)
    nonsq = c.disc == NONSQ
    return c.d - nonsq, int(nonsq), c.n - c.d


def _vector_counts(ctx: PrimeContext, T):
    """V[k], the number of v in F_p^t with 2 v^T T v equal to one given
    residue of square class k (0, a nonzero square, a nonsquare), for a
    symmetric T of size t: the V of T's canonical D (_canonical_vectors),
    in Python integers. T = P^T D P, and v -> P v is a bijection of F_p^t
    with v^T T v = (P v)^T D (P v)."""
    return _canonical_vectors(ctx, *_class_shape(ctx, T))


def class_character_tables(ctx: PrimeContext, Ts, budget=None, jobs=None):
    """Counts of symmetric S by (T, class code of S, 2*trace(TS) mod p),
    as an int64 array of shape (len(Ts), 2n + 2, p). Class code
    2*rank + (disc is NonSquare) indexes the rows; row 1 stays zero.
    Every signed or restricted character sum over symmetric matrices
    against T is a linear functional of T's rows (signed_rows), so one
    table serves all of them.

    The cell picks the count (_recurses), exact in int64 either way:
    - n >= 3, or a cell past _CHUNK matrices: each T is classified
      (_class_shape) and reads the counts of its class's canonical D =
      diag(1^a1, omega^a2, 0^a0), as canonical_matrix gives, by (class
      code, square class of 2*trace(DS)), built by recursion on
      dimension (_canonical_counts) with no class code, at each
      residue's square class. T = P^T D P, and S -> P S P^T is a
      bijection of the symmetric matrices that keeps the class of S,
      with trace(TS) = trace(D P S P^T): a fact of linear algebra, not a
      closed form under test;
    - every other cell, n <= 2 of at most _CHUNK matrices: the
      cell's cached class codes counted against T's exponents
      2*trace(TS) = sum_k w_k * d_k mod p, one term per upper-triangle
      digit d_k of S (_code_counts).

    The budget charges the p^(n(n+1)/2) matrices S. Past 2^63 - 1 of
    them the int64 counts could wrap, so CapExceeded is raised then,
    whatever the budget, before anything is built.
    """
    p = ctx.p
    Ts = [sym_matrix(ctx, T) for T in Ts]
    n = len(Ts[0])
    if any(len(T) != n for T in Ts):
        raise ValueError("all matrices must share one size")
    total = p ** (n * (n + 1) // 2)
    _charge(budget, total, "symmetric enumeration")
    if total > _INT64_MAX:
        raise CapExceeded(total, _INT64_MAX, "int64 class table")
    if _recurses(p, n):
        states = np.array([_canonical_counts(ctx, *_class_shape(ctx, T)) for T in Ts], np.int64)
        return np.take(states, chi_table(ctx) % 3, axis=2)
    # kept per (p, n), and per (p, n, jobs) when pooled
    codes = _classified(ctx, n, jobs) if jobs and jobs > 1 else _classified(ctx, n)
    return _code_counts(p, codes, _exp_weights(ctx, Ts), 2 * n + 2)


def signed_rows(rows: np.ndarray, r: int) -> np.ndarray:
    """int64 power-basis coordinates of the signed sum over the rank-r
    orbits, sum_e (rows[2r][e] - rows[2r+1][e]) * zeta^e, for one T's
    rows of class_character_tables; at r = 0 (row 1 is zero) the zero
    matrix's own term.

    The counts are nonnegative and share one total below 2^63, so the
    int64 differences, and those taken by the reduction, cannot overflow.
    """
    diff = rows[2 * r] - rows[2 * r + 1]
    return diff[:-1] - diff[-1]


def signed_coords(ctx: PrimeContext, T, r: int, budget=None) -> np.ndarray:
    """signed_rows of T's counts at rank r: the signed character sum over
    the two rank-r orbits of symmetric S against T, the restricted sum
    G*(T; r), and at r = len(T) the twisted sum G*(T).

    At r = 0 the two orbits coincide, and the zero vector comes back
    without an enumeration.
    """
    if not 0 <= r <= len(T):
        raise ValueError(f"rank {r} out of range")
    if r == 0:
        return np.zeros(ctx.p - 1, np.int64)
    return signed_rows(class_character_tables(ctx, [T], budget)[0], r)


def gauss_restricted_bf(ctx: PrimeContext, T, r: int, budget=None) -> CycInt:
    """Signed character sum over the two rank-r orbits (signed_coords).

    Weight +1 on the Square orbit, -1 on the NonSquare orbit. At r=0
    the orbits coincide and the sum is 0.
    """
    return CycInt(ctx.p, tuple(signed_coords(ctx, T, r, budget).tolist()))


def gauss_twisted_bf(ctx: PrimeContext, T, budget=None) -> CycInt:
    """Sum of legendre(det S) * character(trace(TS)) over symmetric S."""
    return gauss_restricted_bf(ctx, T, len(T), budget)


def gauss_untwisted_bf(ctx: PrimeContext, A, B, budget=None) -> CycInt:
    """Sum of character(trace(^tU A U B)) over all square matrices U.

    With the n^2 entries of U in row-major order as a vector u,
    trace(^tU A U B) = u^T T u with T = A kron B mod p, so the sum is the
    Gauss sum of one quadratic form on F_p^(n^2): the counts of
    2 u^T T u over every u, read from the vector counts of T's class
    (_vector_counts) at each residue's square class and reduced to the
    power basis. The counts are Python integers, exact at every size.
    The budget charges the p^(n^2) matrices U before anything is built.
    """
    A = sym_matrix(ctx, A)
    B = sym_matrix(ctx, B)
    p = ctx.p
    n = len(A)
    if len(B) != n:
        raise ValueError("A and B must have the same size")
    _charge(budget, p ** (n * n), "matrix enumeration")
    T = tuple(tuple(a * b % p for a in ra for b in rb) for ra in A for rb in B)
    return CycInt(p, reduce_exponent_vector(p, _vector_counts(ctx, T)[chi_table(ctx) % 3]))


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
    # read the budget, and so ISOGAUSS_MAX_TERMS, before any early return
    budget = _charge(budget, 0, "representation count")
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
        raise CapExceeded(V, _COL_CAP, "column table")
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
        _charge(budget, nodes, "representation count")
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
            _charge(budget, nodes, "representation count")
            rr, vv = np.nonzero(m)
            parts.append(np.column_stack([rows[rr], vv.astype(np.int32)]))
        if final:
            return total
        cols = np.vstack(parts) if parts else np.zeros((0, j + 1), np.int32)


# subspace counts ------------------------------------------------------


def _subspace_count(p: int, t: int, ell: int) -> int:
    """[t, ell]_p, the number of ell-dimensional subspaces of F_p^t."""
    num = den = 1
    for i in range(ell):
        num *= p ** (t - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _subspaces_up_to(p: int, t: int, j: int) -> int:
    """sum_{1 <= k <= j} [t, k]_p, by [t, k]_p = [t, k-1]_p (p^(t-k+1) - 1) / (p^k - 1)."""
    counts = [1]
    for k in range(1, j + 1):
        counts.append(counts[-1] * (p ** (t - k + 1) - 1) // (p**k - 1))
    return sum(counts) - 1


def _few_lines(p: int, t: int, *rest) -> bool:
    """Whether F_p^t has at most _CHUNK lines, so its tables are kept."""
    return (p**t - 1) // (p - 1) <= _CHUNK


@prime_cache(keep=_few_lines)
def _lines(p: int, t: int) -> np.ndarray:
    """Digits, one int64 row each, of the (p^t - 1)/(p - 1) monic vectors
    of F_p^t (first nonzero digit 1), one per line, as the rows of a
    reduced-row-echelon basis are: by the position c of the leading 1,
    then by the digits after it. Line index offset(c) + (digits after c
    read in base p), offset(c) the number of lines whose leading 1 comes
    before c. Kept when there are at most _CHUNK lines.
    """
    L = np.zeros(((p**t - 1) // (p - 1), t), np.int64)
    lo = 0
    for c in range(t):
        hi = lo + p ** (t - 1 - c)
        L[lo:hi, c] = 1
        L[lo:hi, c + 1 :] = digits_block(p, t - 1 - c, 0, hi - lo)
        lo = hi
    return L


@prime_cache(keep=_few_lines)
def _row_set(p: int, t: int, lead: int, later) -> np.ndarray:
    """The line indices (see _lines), ascending, in the narrowest unsigned
    dtype, of a row of a reduced-row-echelon basis with its leading 1 at
    column lead and the basis's later pivots at the columns `later`:
    zeros there and a free digit d at every other column c after lead,
    adding d * p^(t-1-c) to the line index. So each row of a basis ranges
    over its own set, and the bases of one pivot pattern are the
    Cartesian product of its row sets. Kept when F_p^t has at most
    _CHUNK lines.
    """
    x = np.arange(p, dtype=np.int64)
    s = np.array([(p**t - p ** (t - lead)) // (p - 1)], np.int64)  # offset(lead)
    for c in range(lead + 1, t):
        if c not in later:
            s = (s[:, None] + x * p ** (t - 1 - c)).ravel()
    return s.astype(np.min_scalar_type((p**t - 1) // (p - 1) - 1))  # the last line's index


def _echelon_blocks(p: int, t: int, ell: int):
    """One row of ell line indices (see _lines) per reduced-row-echelon
    basis of an ell-dimensional subspace of F_p^t, pattern by pattern,
    each the product of its row sets (_row_set), the first row slowest:
    column-major blocks of at most _CHUNK rows, so each row position is
    contiguous, in the narrowest unsigned dtype for every line index.
    """
    dt = np.min_scalar_type((p**t - 1) // (p - 1) - 1)  # the index of the last line
    for pivots in combinations(range(t), ell):
        sets = [_row_set(p, t, c, pivots[r + 1 :]) for r, c in enumerate(pivots)]
        cnt = prod(len(s) for s in sets)
        for lo in range(0, cnt, _CHUNK):
            k = np.arange(lo, min(lo + _CHUNK, cnt), dtype=np.int64)
            block = np.empty((len(k), ell), dt, order="F")
            for r in reversed(range(ell)):
                k, d = np.divmod(k, len(sets[r]))
                block[:, r] = sets[r][d]
            yield block


def _family(p: int, t: int, ell: int):
    """The ell-dimensional subspaces of F_p^t, 0 < ell < t, as blocks of
    rows of line indices (_echelon_blocks): one block, built once and
    kept (_family_rows), for at most _CHUNK subspaces, else blocks built
    on every call and not kept.
    """
    if _subspace_count(p, t, ell) > _CHUNK:
        return _echelon_blocks(p, t, ell)
    return (_family_rows(p, t, ell),)


@prime_cache
def _family_rows(p: int, t: int, ell: int) -> np.ndarray:
    """The _echelon_blocks of a family of at most _CHUNK subspaces as one
    column-major block."""
    return np.asfortranarray(np.concatenate(list(_echelon_blocks(p, t, ell))))


def _check_dim(ell: int, t: int):
    if not 0 <= ell <= t:
        raise ValueError(f"subspace dimension {ell} out of range")


@prime_cache(entries=1, keep=lambda ctx, X: _few_lines(ctx.p, len(X)))
def _line_forms(ctx: PrimeContext, X):
    """(L, XL, zero) for a reduced symmetric X of size t >= 1, for the
    last X only, since the subspace counts ask for each dimension in a
    row: L = _lines(p, t), XL = L X mod p and zero whether q(v) = ^tv X v
    is 0 on each line. So u^T X v = L[u] . XL[v] for any two lines, a sum
    of t products of residues, exact in int64 while t (p - 1)^2 <=
    2^63 - 1; past that (t >= 2 and p > 2.1 * 10^9, so more than p + 1
    subspaces to count) CapExceeded is raised before any table is built.
    Kept when F_p^t has at most _CHUNK lines.
    """
    p, t = ctx.p, len(X)
    if t * (p - 1) ** 2 > _INT64_MAX:
        raise CapExceeded(t * (p - 1) ** 2, _INT64_MAX, "int64 line forms")
    L = _lines(p, t)
    XL = L @ np.array(X, np.int64) % p
    return L, XL, np.einsum("ij,ij->i", L, XL) % p == 0  # ^tv X v on each line


@prime_cache(entries=1, keep=lambda ctx, X: _few_lines(ctx.p, len(X)))
def _walk(ctx: PrimeContext, X):
    """[counts, level] of iso_subspaces_bf's walk on X, kept like
    _line_forms: counts[k] the number of k-dimensional totally isotropic
    subspaces so far, level the last level built, {pivots: bases}, each
    column of bases the line indices (_row_set) of one reduced-row-echelon
    basis, top row first. Level 1: the isotropic members of each
    _row_set(p, t, c, ())."""
    p, t = ctx.p, len(X)
    zero = _line_forms(ctx, X)[2]
    level = {}
    for c in range(t):
        s = _row_set(p, t, c, ())
        if (iso := s.compress(zero.take(s))).size:
            level[(c,)] = iso[None]
    return [[1, int(np.count_nonzero(zero))], level]


def _orthogonal(p: int, L: np.ndarray, C: np.ndarray, block: np.ndarray) -> np.ndarray:
    """ok[c, b]: whether the line with C[c] = XL[v] is orthogonal under X
    to every row u of basis b of `block`, L[u] . XL[v] = 0 mod p."""
    dots = C @ L.take(block.ravel(), axis=0).T % p == 0  # a column per row of each basis
    return dots if len(block) == 1 else dots.reshape(len(C), *block.shape).all(axis=1)


def _prepend(p: int, t: int, L, XL, zero, level: dict) -> dict:
    """The walk's next level: each basis of `level` with a row prepended,
    its lead c before the basis's first pivot, drawn from _row_set(p, t,
    c, pivots), isotropic and orthogonal to every row of the basis
    (_orthogonal), tested in blocks of at most _CHUNK (candidate, basis)
    pairs. Patterns with no basis are left out."""
    grown = {}
    for pivots, bases in level.items():
        for c in range(pivots[0]):
            s = _row_set(p, t, c, pivots)
            if not (cand := s.compress(zero.take(s))).size:
                continue
            C, step, parts = XL.take(cand, axis=0), max(1, _CHUNK // len(cand)), []
            for lo in range(0, bases.shape[1], step):
                block = bases[:, lo : lo + step]
                k, b = np.nonzero(_orthogonal(p, L, C, block))
                if k.size:
                    parts.append(np.concatenate((cand.take(k)[None], block.take(b, axis=1))))
            if parts:
                grown[(c,) + pivots] = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    return grown


def iso_subspaces_bf(ctx: PrimeContext, X, j: int, budget=None) -> int:
    """Count the j-dimensional totally isotropic subspaces of X.

    A subspace is totally isotropic when the rows of its echelon basis
    are isotropic and pairwise orthogonal. Below the top row of the
    reduced-row-echelon basis of one lies the basis of a smaller one, so
    one upward walk per form counts every dimension (_walk): level k + 1
    is level k with one row prepended (_prepend), drawn from its row set,
    isotropic, q(v) = ^tv X v = 0 on its line (_line_forms), and
    orthogonal to every row below it. Each tested (candidate, basis)
    pair is the basis of a different subspace, so level k + 1 tests at
    most [t, k + 1]_p pairs. The walk is kept for the last X and resumed
    when a larger j is asked. The budget charges sum_{1 <= k <= j}
    [t, k]_p, the lines and every level built up to j, before any table
    is built or the kept walk is read. j = 0 and j = t (the whole space,
    totally isotropic exactly when X = 0) are one subspace each, within
    every budget, and build no table.
    """
    X = sym_matrix(ctx, X)
    p, t = ctx.p, len(X)
    _check_dim(j, t)
    if j == 0 or j == t:
        return int(j == 0 or not any(map(any, X)))
    _charge(budget, _subspaces_up_to(p, t, j), "subspace enumeration")
    walk = _walk(ctx, X)
    while len(walk[0]) <= j:
        level = _prepend(p, t, *_line_forms(ctx, X), walk[1])
        walk[:] = walk[0] + [sum(bases.shape[1] for bases in level.values())], level
    return walk[0][j]


def rep_star_bf(ctx: PrimeContext, X, Y, budget=None) -> int:
    """Count the rank-s matrices C with ^tC X C = Y (the primitive
    representations of Y by X) for the two target shapes of lemma 5.1.

    - Y = (a), a != 0: the vectors v with ^tv X v = a, that is with
      2 v^T T v = a for T = X / 2: the vector count of T's class at the
      square class of a (_vector_counts), in Python integers. The
      budget charges p^t terms before anything is built.
    - Y the s x s zero form: the columns of C are an ordered basis of an
      s-dimensional totally isotropic subspace, and each such subspace
      has |GL_s(F_p)| = prod_{i<s} (p^s - p^i) ordered bases. So the
      count is iso_subspaces_bf(X, s), with its charge, times that
      product; one kept walk of X serves s = 1, 2, ... asked in a row.

    Any other Y raises ValueError.
    """
    X = sym_matrix(ctx, X)
    Y = sym_matrix(ctx, Y)
    p, t, s = ctx.p, len(X), len(Y)
    if not any(v for row in Y for v in row):
        if s > t:
            return 0
        bases = 1
        for i in range(s):
            bases *= p**s - p**i
        return iso_subspaces_bf(ctx, X, s, budget) * bases
    if s != 1:
        raise ValueError("target must be a nonzero 1 x 1 form or a zero form")
    _charge(budget, p**t, "vector enumeration")
    half = pow(2, -1, p)
    T = tuple(tuple(x * half % p for x in row) for row in X)
    return int(_vector_counts(ctx, T)[legendre(ctx, Y[0][0]) % 3])


def subspace_census(ctx: PrimeContext, X, ell: int, budget=None) -> dict:
    """Count ell-dimensional subspaces W by the class of X restricted to W.

    Returns {FormClass(ell, rank, disc): count}, leaving out empty
    classes. The count of class Y is r*(X, Y)/|O(Y)|: the bases of W
    with Gram matrix Y form one O(Y)-torsor.

    The budget charges the [t, ell]_p subspaces before any table is
    built. The Gram matrices B X ^tB of the echelon family (_family) are
    one stacked product, L[rows] @ XL[rows]^T mod p (_line_forms),
    classified in batches (_codes). Since 0 < ell < t the
    family has more than p subspaces, so the batch classifier's O(p)
    chi table fits the budget too. ell = 0 and ell = t are one subspace
    each, on which X restricts to the empty form and to X itself: the
    scalar classify reads those, with no table.
    """
    X = sym_matrix(ctx, X)
    p, t = ctx.p, len(X)
    _check_dim(ell, t)
    if ell == 0 or ell == t:
        return {classify(ctx, X if ell else ()): 1}
    _charge(budget, _subspace_count(p, t, ell), "subspace enumeration")
    L, XL, _ = _line_forms(ctx, X)
    acc = np.zeros(2 * ell + 2, np.int64)
    for rows in _family(p, t, ell):
        G = L[rows] @ XL[rows].transpose(0, 2, 1) % p  # rows i, j of basis k
        acc += np.bincount(_codes(ctx, G), minlength=len(acc))
    return {
        FormClass(ell, code // 2, NONSQ if code % 2 else SQ): int(cnt)
        for code, cnt in enumerate(acc)
        if cnt
    }
