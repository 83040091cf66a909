"""Arithmetic in the prime field F_p, p an odd prime.

A PrimeContext fixes the prime together with the canonical nonsquare
omega (least positive nonsquare) and epsilon = chi(-1), both found by
Euler's criterion; it is O(1) in size and hashes in O(1). Everything
downstream takes the context as first argument; contexts are immutable
and safe to share. Scalar code reads chi and inverses through pow. The
O(p) chi and inverse arrays are built by tables(), once per prime, for
the vectorised callers only, both from one table of the powers of a
primitive root: chi(g^k) = (-1)^k and (g^k)^-1 = g^(p-1-k).
"""

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from operator import index

import numpy as np

# how many primes each per-prime cache keeps
CACHED_PRIMES = 32
# the tables are built in int64: every product of two residues must fit
_INT64_MAX = np.iinfo(np.int64).max


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    i = 3
    while i * i <= p:
        if p % i == 0:
            return False
        i += 2
    return True


def _euler(p: int, a: int) -> int:
    """Euler's criterion: a^((p-1)/2) mod p, as 0, +1 or -1."""
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


@dataclass(frozen=True)
class PrimeContext:
    p: int
    omega: int
    epsilon: int


@lru_cache(maxsize=CACHED_PRIMES, typed=True)
def prime_context(p: int) -> PrimeContext:
    """The context for an odd prime p, shared by later calls.

    A non-prime, or a p with (p-1)^2 past the int64 range that tables()
    computes in, raises ValueError on every call.
    """
    if p >= 3 and (p - 1) ** 2 > _INT64_MAX:
        raise ValueError(
            f"p must satisfy (p-1)^2 <= 2^63-1 (p <= 3037000500), got {p}"
        )
    if not _is_prime(p) or p < 3:
        raise ValueError(f"p must be an odd prime >= 3, got {p}")
    omega = next(a for a in range(2, p) if _euler(p, a) == -1)
    return PrimeContext(p=p, omega=omega, epsilon=_euler(p, p - 1))


def _primitive_root(p: int) -> int:
    """The least generator of F_p^*: g with g^((p-1)/q) != 1 for every
    prime q dividing p - 1, found by trial division of p - 1."""
    qs, m, q = [], p - 1, 2
    while q * q <= m:
        if m % q == 0:
            qs.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        qs.append(m)
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in qs))


@lru_cache(maxsize=CACHED_PRIMES)
def tables(ctx: PrimeContext):
    """(chi, inv): chi[a] as int8 and the inverse inv[a] as int64 for a
    in 0..p-1, with inv[0] = 0. Built once per prime, read-only.

    Both come from one power table pw[k] = g^k, k in 0..p-2, for a
    primitive root g: chi[g^k] = (-1)^k and inv[g^k] = g^(-k) = pw[-k].
    pw is an s x s outer product of g^(s*i) and g^j, s = ceil(sqrt(p-1)),
    so it takes O(sqrt p) Python steps and one numpy pass; every product
    is below (p-1)^2, inside int64.
    """
    p = ctx.p
    g = _primitive_root(p)
    s = isqrt(p - 2) + 1

    def powers(x):  # x^0 .. x^(s-1) mod p
        out = [1]
        for _ in range(s - 1):
            out.append(out[-1] * x % p)
        return np.array(out, np.int64)

    pw = (np.multiply.outer(powers(pow(g, s, p)), powers(g)) % p).ravel()[: p - 1]
    chi = np.zeros(p, np.int8)
    chi[pw[0::2]] = 1
    chi[pw[1::2]] = -1
    inv = np.zeros(p, np.int64)
    inv[pw] = pw[-np.arange(p - 1)]
    chi.flags.writeable = inv.flags.writeable = False
    return chi, inv


def legendre(ctx: PrimeContext, a: int) -> int:
    """Quadratic character of a mod p: 0 at 0, +1 on squares, -1 otherwise."""
    return _euler(ctx.p, index(a) % ctx.p)
