"""The tests' code-count reference for oracle.class_character_tables.

It counts every T, in every cell, from the class codes of the whole
cell: no canonical form and no congruence invariance. So it stays
independent of the oracle's tables in the cells that oracle._recurses,
where each T reads the counts of its class's canonical T.

The codes of a cell with n >= 2 that oracle._recurses are built by
recursion on dimension (recursed) from the (p, n-1) and (p, n-2) cells,
which is far faster than classifying each matrix: 0.4 s against 29 s at
(3, 5). The other cells, and n = 1 at any p, are classified matrix by
matrix (oracle._class_codes). The codes are then counted prefix block
by prefix block (code_counts), so no exponent array holds more than
oracle._CHUNK entries.

vector_counts counts the values of a quadratic form over every vector
directly, the reference for the vector counts of oracle._canonical_vectors.

symmetric_from_digits and enumerate_symmetric list the symmetric
matrices as tuples, one at a time, in the digit order of
oracle._class_codes and quadform.digits_block.

mu, delta, mudelta, nu, frames and odd_product are the loop definitions
of the product functions that counts and formulas read as quotients of
prefix products (counts._prefix), one factor per step.

pytest does not collect this module; the test modules import it.
"""

from itertools import product

import numpy as np

from isogauss import oracle
from isogauss.field import legendre
from isogauss.quadform import digits_block, upper_positions

# class codes per (p, n), built once until clear()
_codes: dict = {}


def clear():
    _codes.clear()


def symmetric_from_digits(n: int, digits):
    """The symmetric n x n matrix, as a tuple of rows, with its upper
    triangle read from digits in row-major order (upper_positions)."""
    a = [[0] * n for _ in range(n)]
    for (i, j), v in zip(upper_positions(n), digits):
        a[i][j] = v
        a[j][i] = v
    return tuple(tuple(r) for r in a)


def enumerate_symmetric(ctx, n: int):
    """All symmetric n x n matrices over F_p, exactly once.

    Order is lexicographic in the n(n+1)/2 upper-triangle digits base p
    (first position most significant).
    """
    for digits in product(range(ctx.p), repeat=n * (n + 1) // 2):
        yield symmetric_from_digits(n, digits)


def canonical_shape(ctx, T):
    """(a1, a2, a0) when T = diag(1^a1, omega^a2, 0^a0), else None."""
    n = len(T)
    diag = [T[i][i] for i in range(n)]
    a1, a2 = diag.count(1), diag.count(ctx.omega)
    entries = [1] * a1 + [ctx.omega] * a2 + [0] * (n - a1 - a2)
    want = tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))
    return (a1, a2, n - a1 - a2) if tuple(map(tuple, T)) == want else None


def restriction(ctx, s1) -> np.ndarray:
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


def classified(ctx, n: int) -> np.ndarray:
    """Class codes rank*2 + is_nonsquare of every symmetric n x n matrix,
    in enumeration order: by recursion on dimension in a cell that
    oracle._recurses, n = 1 and every other cell matrix by matrix."""
    key = (ctx.p, n)
    if key not in _codes:
        if n > 1 and oracle._recurses(ctx.p, n):
            codes = recursed(ctx, n)
        else:
            codes = oracle._class_codes(ctx, n, 0, ctx.p ** (n * (n + 1) // 2))
        codes.flags.writeable = False
        _codes[key] = codes
    return _codes[key]


def recursed(ctx, n: int) -> np.ndarray:
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
    sub = classified(ctx, n - 1)
    raised = (sub + 2).reshape((p,) * k1)
    aniso = {1: raised, -1: raised ^ 1}
    hyper = (classified(ctx, n - 2) + 4) ^ int(ctx.epsilon == -1)
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
            block[:] = hyper[(digits @ restriction(ctx, key[1:])) % p @ powers]
    return codes


def low_digits(p: int, K: int) -> int:
    """How many of K digits form the low part of a counting pass
    (code_counts): the most whose p^k entries fit oracle._CHUNK, and at
    least one."""
    k_low = 1
    while k_low < K and p ** (k_low + 1) <= oracle._CHUNK:
        k_low += 1
    return k_low


def code_counts(p, codes, W, rows):
    """Counts of a cell's class codes by (column t of W, class code,
    sum_k W[k, t] * d_k mod p), d the digits of the code's enumeration
    index: int64, of shape (W.shape[1], rows, p).

    The low digits (low_digits) index within one contiguous
    block of codes, and each high prefix owns a block. Each block is
    counted by one bincount of code * width + low exponent per column,
    and the prefix's own exponent places the counts: by a slice add
    while they fit below p, else by one roll (a nonzero low weight takes
    every residue, so only a block p wide wraps).
    """
    K = len(W)
    k_low = low_digits(p, K)
    low = oracle._digit_exponents(p, W[K - k_low :])
    high = oracle._digit_exponents(p, W[: K - k_low])
    width = int(low.max()) + 1  # every low exponent is below it
    dt = np.min_scalar_type(rows * width - 1)  # holds every bin index
    low = low.astype(dt)
    size = low.shape[1]
    acc = np.zeros((W.shape[1], rows, p), np.int64)
    for h, shifts in enumerate(high.T.tolist()):
        base = codes[h * size : (h + 1) * size].astype(dt) * width
        for tab, e, shift in zip(acc, low, shifts):
            cnt = np.bincount(base + e, minlength=rows * width).reshape(rows, width)
            if shift + width <= p:
                tab[:, shift : shift + width] += cnt
            else:
                tab += np.roll(cnt, shift, axis=1)
    return acc


def code_tables(ctx, n, Ts):
    """class_character_tables of Ts, all n x n, counted from the class
    codes of the whole (p, n) cell."""
    W = oracle._exp_weights(ctx, Ts)
    return code_counts(ctx.p, classified(ctx, n), W, 2 * n + 2)


def vector_counts(p: int, T) -> np.ndarray:
    """Counts of 2 v^T T v mod p over every v of F_p^t, t = len(T), from
    the digit rows of digits_block: int64, of length p, exact while
    t (p - 1)^2 fits int64."""
    t = len(T)
    v = digits_block(p, t, 0, p**t).astype(np.int64)
    M = 2 * np.array(T, np.int64).reshape(t, t) % p
    return np.bincount((v @ M % p * v).sum(axis=1) % p, minlength=p)


def mu(p: int, t: int, s: int) -> int:
    out = 1
    for i in range(s):
        if t - i <= 0:
            return 0  # the exponent-0 factor vanishes
        out *= p ** (t - i) - 1
    return out


def delta(p: int, t: int, s: int) -> int:
    out = 1
    for i in range(s):
        if t - i < 0:
            raise ValueError(f"delta({t},{s}) runs past exponent 0")
        out *= p ** (t - i) + 1
    return out


def mudelta(p: int, t: int, s: int) -> int:
    out = 1
    for i in range(s):
        if t - i <= 0:
            return 0
        out *= p ** (2 * (t - i)) - 1
    return out


def nu(p: int, t: int, s: int) -> int:
    out = 1
    for i in range(s, t):
        out *= p**t - p**i
    return out


def frames(p: int, t: int, j: int) -> int:
    """prod_{i<j} (p^t - p^i): linearly independent j-tuples in F_p^t."""
    out = 1
    for i in range(j):
        out *= p**t - p**i
    return out


def odd_product(p: int, count: int) -> int:
    # (p^1 - 1)(p^3 - 1) ... (p^(2*count-1) - 1)
    out = 1
    for i in range(1, count + 1):
        out *= p ** (2 * i - 1) - 1
    return out
