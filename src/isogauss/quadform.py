"""Symmetric matrices over F_p and their congruence classification.

Over an odd prime field a symmetric matrix is determined up to
congruence by its rank d and the square class of the discriminant of
its nondegenerate part. Classes are canonically represented by
I_d perp 0_(n-d) (Square) and J_d perp 0_(n-d) (NonSquare) with
J_d = I_(d-1) perp <omega>. Rank 0 is Square by convention.
"""

from itertools import product
from typing import Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from .field import PrimeContext, chi_table, legendre

SQ = "sq"
NONSQ = "nonsq"

Matrix = Tuple[Tuple[int, ...], ...]


class FormClass(NamedTuple):
    n: int
    d: int
    disc: str  # SQ or NONSQ


def sym_matrix(ctx: PrimeContext, rows: Sequence[Sequence[int]]) -> Matrix:
    """Validate symmetry and reduce entries mod p."""
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError("matrix is not square")
    out = tuple(tuple(x % ctx.p for x in r) for r in rows)
    for i in range(n):
        for j in range(i):
            if out[i][j] != out[j][i]:
                raise ValueError(f"matrix not symmetric at ({i},{j})")
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


def canonical_matrix(ctx: PrimeContext, c: FormClass) -> Matrix:
    if not 0 <= c.d <= c.n:
        raise ValueError(f"rank {c.d} out of range for dimension {c.n}")
    if c.d == 0 and c.disc == NONSQ:
        raise ValueError("rank 0 has no nonsquare class")
    diag = [1] * c.d + [0] * (c.n - c.d)
    if c.disc == NONSQ:
        diag[c.d - 1] = ctx.omega
    return tuple(
        tuple(diag[i] if i == j else 0 for j in range(c.n)) for i in range(c.n)
    )


def classify(ctx: PrimeContext, T: Sequence[Sequence[int]]) -> FormClass:
    """Congruence class of a symmetric matrix: (dimension, rank, disc type).

    Symmetric Gaussian elimination: pivot on a nonzero diagonal entry,
    pulling one up by a diagonal swap when available; if the remaining
    block has an all-zero diagonal but some nonzero off-diagonal entry
    a[i][j], add row j to row i and column j to column i first (this
    puts 2*a[i][j] != 0 on the diagonal; p is odd so 2 is a unit).
    The disc type is the character of the product of the pivots.
    """
    p = ctx.p
    a = [list(r) for r in sym_matrix(ctx, T)]
    n = len(a)
    rank, prod = 0, 1
    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[j][j]), None)
            if j is not None:
                for r in range(n):
                    a[r][k], a[r][j] = a[r][j], a[r][k]
                a[k], a[j] = a[j], a[k]
            else:
                found = None
                for i in range(k, n):
                    for jj in range(i + 1, n):
                        if a[i][jj]:
                            found = (i, jj)
                            break
                    if found:
                        break
                if found is None:
                    break  # remaining block is zero
                i, jj = found
                for r in range(n):
                    a[i][r] = (a[i][r] + a[jj][r]) % p
                for r in range(n):
                    a[r][i] = (a[r][i] + a[r][jj]) % p
                if i != k:
                    for r in range(n):
                        a[r][k], a[r][i] = a[r][i], a[r][k]
                    a[k], a[i] = a[i], a[k]
        piv = a[k][k]
        if piv == 0:
            continue
        rank += 1
        prod = prod * piv % p
        inv = pow(int(piv), -1, p)
        col = [a[r][k] for r in range(n)]
        for i in range(k + 1, n):
            f = col[i] * inv % p
            if f:
                for j2 in range(n):
                    a[i][j2] = (a[i][j2] - f * a[k][j2]) % p
        for i in range(k + 1, n):
            f = col[i] * inv % p
            if f:
                for r in range(k + 1, n):
                    a[r][i] = (a[r][i] - f * a[r][k]) % p
    disc = SQ if rank == 0 or legendre(ctx, prod) == 1 else NONSQ
    return FormClass(n, rank, disc)


def int_dtype(p: int):
    """Narrowest of int16, int32 and int64 that holds (p-1)^2, the
    largest product of two residues mod p."""
    if (p - 1) ** 2 <= np.iinfo(np.int16).max:
        return np.int16
    if (p - 1) ** 2 <= np.iinfo(np.int32).max:
        return np.int32
    return np.int64


def _inverses(p: int, x: np.ndarray) -> np.ndarray:
    """x^(p-2) mod p elementwise, by square-and-multiply in x's dtype:
    the inverse of each nonzero residue (Fermat), 0 at 0. Each product
    is of two residues, so it is exact in int_dtype(p)."""
    out, e = np.ones_like(x), p - 2
    while e:
        if e & 1:
            out = out * x % p
        x = x * x % p
        e >>= 1
    return out


def classify_batch(ctx: PrimeContext, mats: np.ndarray):
    """Vectorized classify over a batch of symmetric matrices.

    mats: (B, n, n) integer array with entries already reduced mod p.
    Returns (rank, disc) as int arrays; disc is +1/-1, +1 for rank 0.
    Mirrors the scalar classify step for step; the pivots are inverted
    by _inverses, with no table.
    """
    p = ctx.p
    dt = int_dtype(p)
    a = mats.astype(dt, copy=True)
    B, n, _ = a.shape
    rank = np.zeros(B, dtype=np.int16)
    prod = np.ones(B, dtype=dt)

    for k in range(n):
        need = a[:, k, k] == 0
        if need.any() and k + 1 <= n - 1:
            # diagonal swap: first j > k with a nonzero diagonal entry
            didx = np.arange(k + 1, n)
            diags = a[:, didx, didx]  # (B, n-k-1)
            nzd = diags != 0
            has_diag = need & nzd.any(axis=1)
            if has_diag.any():
                rows = np.where(has_diag)[0]
                j = k + 1 + np.argmax(nzd[rows], axis=1)
                tmp = a[rows, k, :].copy()
                a[rows, k, :] = a[rows, j, :]
                a[rows, j, :] = tmp
                tmp = a[rows, :, k].copy()
                a[rows, :, k] = a[rows, :, j]
                a[rows, :, j] = tmp
                need = need & ~has_diag
        if need.any():
            # off-diagonal fixup inside the remaining block
            ui, uj = np.triu_indices(n, k=1)
            keep = ui >= k
            ui, uj = ui[keep], uj[keep]
            if ui.size:
                rows = np.where(need)[0]
                vals = a[rows][:, ui, uj]
                nzo = vals != 0
                hasoff = nzo.any(axis=1)
                rows = rows[hasoff]
                if rows.size:
                    first = np.argmax(nzo[hasoff], axis=1)
                    fi, fj = ui[first], uj[first]
                    # row i += row j, col i += col j
                    a[rows, fi, :] = (a[rows, fi, :] + a[rows, fj, :]) % p
                    a[rows, :, fi] = (a[rows, :, fi] + a[rows, :, fj]) % p
                    doswap = fi != k
                    srows, si = rows[doswap], fi[doswap]
                    if srows.size:
                        tmp = a[srows, k, :].copy()
                        a[srows, k, :] = a[srows, si, :]
                        a[srows, si, :] = tmp
                        tmp = a[srows, :, k].copy()
                        a[srows, :, k] = a[srows, :, si]
                        a[srows, :, si] = tmp
        piv = a[:, k, k]
        act = piv != 0
        rank += act
        prod = np.where(act, prod * piv % p, prod)
        if k + 1 < n:
            pinv = _inverses(p, piv)
            col = a[:, :, k].copy()
            f = col * pinv[:, None] % p
            f[:, : k + 1] = 0
            f[~act] = 0
            a = (a - f[:, :, None] * a[:, k : k + 1, :]) % p
    disc = chi_table(ctx)[prod]
    disc = np.where(rank == 0, np.int8(1), disc)
    return rank.astype(np.int64), disc.astype(np.int8)


def upper_positions(n: int) -> List[Tuple[int, int]]:
    """Row-major upper-triangle positions; the digit order of enumeration."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def symmetric_from_digits(n: int, digits: Sequence[int]) -> Matrix:
    pos = upper_positions(n)
    a = [[0] * n for _ in range(n)]
    for (i, j), v in zip(pos, digits):
        a[i][j] = v
        a[j][i] = v
    return tuple(tuple(r) for r in a)


def enumerate_symmetric(ctx: PrimeContext, n: int) -> Iterator[Matrix]:
    """All symmetric n x n matrices over F_p, exactly once.

    Order is lexicographic in the n(n+1)/2 upper-triangle digits base p
    (first position most significant).
    """
    for digits in product(range(ctx.p), repeat=n * (n + 1) // 2):
        yield symmetric_from_digits(n, digits)


def digits_block(p: int, K: int, lo: int, hi: int) -> np.ndarray:
    """Base-p digits (most significant first) of indices lo..hi-1: (hi-lo, K)."""
    idx = np.arange(lo, hi, dtype=np.int64)
    out = np.empty((hi - lo, K), dtype=int_dtype(p))
    for pos in range(K):
        out[:, K - 1 - pos] = idx % p
        idx = idx // p
    return out
