"""Symmetric matrices over F_p and their congruence classification.

Over an odd prime field a symmetric matrix is determined up to
congruence by its rank d and the square class of the discriminant of
its nondegenerate part. Classes are canonically represented by
I_d perp 0_(n-d) (Square) and J_d perp 0_(n-d) (NonSquare) with
J_d = I_(d-1) perp <omega>. Rank 0 is Square by convention.

sym_matrix checks a matrix for one prime: it returns a SymMatrix, a
tuple of rows of Python ints reduced mod p that records p, and hands a
SymMatrix back unchanged when asked again for the same prime. So a
matrix passed from one public function to the next is checked once.

classify finds the class of one matrix in Python integers, once per
checked matrix and prime (a prime_cache), and classify_batch that of
each matrix of a batch in numpy, by the same elimination: a congruence
that multiplies instead of dividing, so no residue is inverted.
"""

from operator import index
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .field import PrimeContext, chi_table, legendre, prime_cache

SQ = "sq"
NONSQ = "nonsq"

Matrix = Tuple[Tuple[int, ...], ...]
# how many checked matrices classify keeps the class of, over all primes
CLASSIFY_ENTRIES = 1024


class FormClass(NamedTuple):
    n: int
    d: int
    disc: str  # SQ or NONSQ


class SymMatrix(tuple):
    """A symmetric matrix that sym_matrix checked for the prime p: a
    tuple of rows, each a tuple of Python ints in 0..p-1. It equals and
    hashes as the plain tuple of its rows."""


def sym_matrix(ctx: PrimeContext, rows: Sequence[Sequence[int]]) -> SymMatrix:
    """rows as a SymMatrix for ctx.p: square, each entry taken through
    operator.index (a Python int; a float raises TypeError) and reduced
    mod p, and symmetric after the reduction, else ValueError. A
    SymMatrix already checked for p comes back as it is."""
    p = ctx.p
    if type(rows) is SymMatrix and rows.p == p:
        return rows
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError("matrix is not square")
    out = SymMatrix(tuple(index(x) % p for x in r) for r in rows)
    for i in range(n):
        for j in range(i):
            if out[i][j] != out[j][i]:
                raise ValueError(f"matrix not symmetric at ({i},{j})")
    out.p = p
    return out


def block_diag(*blocks: Matrix) -> Matrix:
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[off + i][off + j] = x
        off += len(b)
    return tuple(tuple(r) for r in out)


def all_classes(n: int) -> List[FormClass]:
    """All congruence classes in dimension n, by rank then disc type."""
    out = [FormClass(n, 0, SQ)]
    for d in range(1, n + 1):
        out.append(FormClass(n, d, SQ))
        out.append(FormClass(n, d, NONSQ))
    return out


def canonical_matrix(ctx: PrimeContext, c: FormClass) -> SymMatrix:
    """I_d perp 0_(n-d), or J_d perp 0_(n-d) for NonSquare, as a
    SymMatrix checked for ctx.p, its rows cut from tuples of zeros."""
    if not 0 <= c.d <= c.n:
        raise ValueError(f"rank {c.d} out of range for dimension {c.n}")
    if c.d == 0 and c.disc == NONSQ:
        raise ValueError("rank 0 has no nonsquare class")
    n, d = c.n, c.d
    zeros = (0,) * (n - 1)
    unit = zeros + (1,) + zeros  # row i is unit[n - 1 - i : 2n - 1 - i]
    rows = [unit[n - 1 - i : 2 * n - 1 - i] for i in range(d)]
    if c.disc == NONSQ:
        rows[-1] = zeros[: d - 1] + (ctx.omega,) + zeros[d - 1 :]
    out = SymMatrix(rows + [zeros + (0,)] * (n - d))
    out.p = ctx.p
    return out


def classify(ctx: PrimeContext, T: Sequence[Sequence[int]]) -> FormClass:
    """Congruence class of a symmetric matrix: (dimension, rank, disc type).

    Symmetric elimination on a block that loses its first row and column
    at each step. The pivot is the first nonzero diagonal entry a_ss,
    swapped into place; when the whole diagonal is zero, the first
    nonzero a_ij (i < j) is made one: adding row and column j to row
    and column i puts 2*a_ij there, a unit as p is odd. The rest of the
    block becomes piv * (piv * a_ij - a_i0 * a_0j): the congruence
    E A E^T with E_ii = piv and E_i0 = -a_i0, of determinant
    piv^(m-1), so no pivot is inverted and the discriminant moves by a
    square only. A zero pivot means the block is zero. The disc type is
    the character of the product of the pivots.

    T is checked by sym_matrix, and the class of each checked matrix is
    kept per prime (_eliminate), at most CLASSIFY_ENTRIES of them.
    """
    return _eliminate(ctx, sym_matrix(ctx, T))


@prime_cache(entries=CLASSIFY_ENTRIES)
def _eliminate(ctx: PrimeContext, a: SymMatrix) -> FormClass:
    """classify's elimination of the checked matrix a, in Python ints."""
    p = ctx.p
    n = len(a)
    rank, prod = 0, 1
    while a:
        m = len(a)
        s = next((i for i in range(m) if a[i][i]), None)
        if s is None:
            ij = next(((i, j) for i in range(m) for j in range(i + 1, m) if a[i][j]), None)
            if ij is None:
                break  # the block is zero
            s, j = ij
            row = [(x + y) % p for x, y in zip(a[s], a[j])]
            row[s] = 2 * a[s][j] % p
        else:
            row = a[s]
        piv = row[s]
        rank += 1
        prod = prod * piv % p
        # the block without row and column s, in the order that swapping
        # them with row and column 0 leaves
        rest = [0 if i == s else i for i in range(1, m)]
        a = [[piv * (piv * a[i][j] - row[i] * row[j]) % p for j in rest] for i in rest]
    return FormClass(n, rank, SQ if legendre(ctx, prod) == 1 else NONSQ)


def int_dtype(p: int):
    """Narrowest of int16, int32 and int64 that holds (p-1)^2, the
    largest product of two residues mod p."""
    if (p - 1) ** 2 <= np.iinfo(np.int16).max:
        return np.int16
    if (p - 1) ** 2 <= np.iinfo(np.int32).max:
        return np.int32
    return np.int64


def _swap(a: np.ndarray, j: np.ndarray) -> None:
    """Swap row and column 0 of each matrix a[k] with its row and column
    j[k], in place."""
    k = np.arange(len(a))
    a[k, 0], a[k, j] = a[k, j], a[k, 0]
    a[k, :, 0], a[k, :, j] = a[k, :, j], a[k, :, 0]


def classify_batch(ctx: PrimeContext, mats: np.ndarray):
    """Vectorized classify over a batch of symmetric matrices.

    mats: (B, n, n) integer array with entries already reduced mod p.
    Returns (rank, disc) as int arrays; disc is +1/-1, +1 for rank 0.
    Mirrors the scalar classify step for step, in int_dtype(p): every
    product is of two residues, and the difference of two such products
    fits as well.
    """
    p = ctx.p
    a = mats.astype(int_dtype(p))
    rank = np.zeros(len(a), np.int64)
    prod = np.ones(len(a), a.dtype)
    while a.shape[1]:
        m = a.shape[1]
        rows = np.flatnonzero(a[:, 0, 0] == 0)
        if m > 1 and rows.size:
            sub = a[rows]
            diag = sub.diagonal(axis1=1, axis2=2) != 0
            s = diag.argmax(axis=1)  # the row and column that become the pivot's
            fix = np.flatnonzero(~diag.any(axis=1))
            if fix.size:
                # no nonzero diagonal entry: add row and column j to row
                # and column i for the first nonzero a_ij, i < j (a zero
                # block adds zeros to zeros)
                ui, uj = np.triu_indices(m, 1)
                first = (sub[fix][:, ui, uj] != 0).argmax(axis=1)
                i, j = ui[first], uj[first]
                sub[fix, i] = (sub[fix, i] + sub[fix, j]) % p
                sub[fix, :, i] = (sub[fix, :, i] + sub[fix, :, j]) % p
                s[fix] = i
            _swap(sub, s)
            a[rows] = sub
        piv = a[:, 0, 0]
        act = piv != 0
        prod = np.where(act, prod * piv % p, prod)
        rank += act
        piv = piv[:, None, None]
        col = a[:, 1:, :1]
        a = a[:, 1:, 1:] * piv
        a -= col * col.transpose(0, 2, 1)
        a %= p
        a *= piv
        a %= p
    return rank, chi_table(ctx)[prod]


def upper_positions(n: int) -> List[Tuple[int, int]]:
    """Row-major upper-triangle positions; the digit order of enumeration."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def digits_block(p: int, K: int, lo: int, hi: int) -> np.ndarray:
    """Base-p digits (most significant first) of indices lo..hi-1: (hi-lo, K)."""
    idx = np.arange(lo, hi, dtype=np.int64)
    out = np.empty((hi - lo, K), dtype=int_dtype(p))
    for pos in range(K):
        out[:, K - 1 - pos] = idx % p
        idx = idx // p
    return out
