"""Arithmetic in the prime field F_p, p an odd prime.

A PrimeContext fixes the prime together with its quadratic character
table, the canonical nonsquare omega (least positive nonsquare), and
epsilon = chi(-1). Everything downstream takes the context as first
argument; contexts are immutable and safe to share.
"""

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache, wraps

import numpy as np

# how many primes' O(p) tables each per-prime cache keeps
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


@dataclass(frozen=True)
class PrimeContext:
    p: int
    omega: int
    epsilon: int
    # chi[a] for a in 0..p-1; tuple so the dataclass stays hashable
    chi: tuple = field(repr=False)
    # multiplicative inverses, inv[0] unused
    inv: tuple = field(repr=False)


@lru_cache(maxsize=CACHED_PRIMES, typed=True)
def prime_context(p: int) -> PrimeContext:
    """The context for an odd prime p.

    Building one costs O(p) (the chi and inv tables), and contexts are
    immutable, so each p is built once and shared by later calls. A
    non-prime, or a p with (p-1)^2 past the int64 range the tables are
    built in, raises ValueError on every call.
    """
    if p >= 3 and (p - 1) ** 2 > _INT64_MAX:
        raise ValueError(
            f"p must satisfy (p-1)^2 <= 2^63-1 (p <= 3037000500), got {p}"
        )
    if not _is_prime(p) or p < 3:
        raise ValueError(f"p must be an odd prime >= 3, got {p}")
    a = np.arange(p, dtype=np.int64)
    chi = np.full(p, -1, np.int8)
    chi[a[1 : (p + 1) // 2] ** 2 % p] = 1  # a and p-a share a square
    chi[0] = 0
    # inv[a] = a^(p-2) by square-and-multiply over the whole table;
    # every product is below (p-1)^2, inside int64
    inv = np.ones(p, np.int64)
    e = p - 2
    while e:
        if e & 1:
            inv = inv * a % p
        e >>= 1
        if e:
            a = a * a % p
    omega = int(np.argmax(chi == -1))
    return PrimeContext(
        p=p,
        omega=omega,
        epsilon=int(chi[p - 1]),
        chi=tuple(chi.tolist()),
        inv=tuple(inv.tolist()),
    )


def per_prime(build):
    """Memoize build(ctx) on ctx.p, for the last CACHED_PRIMES primes.

    The key is p, not the context: hashing a context hashes its two
    O(p) tables. The cached value is shared by every caller, so it must
    not be mutated.
    """
    cache = OrderedDict()

    @wraps(build)
    def cached(ctx: PrimeContext):
        value = cache.get(ctx.p)
        if value is None:
            value = cache[ctx.p] = build(ctx)
            if len(cache) > CACHED_PRIMES:
                cache.popitem(last=False)
        else:
            cache.move_to_end(ctx.p)
        return value

    return cached


def legendre(ctx: PrimeContext, a: int) -> int:
    """Quadratic character of a mod p: 0 at 0, +1 on squares, -1 otherwise."""
    return ctx.chi[a % ctx.p]


def epsilon(ctx: PrimeContext) -> int:
    """chi(-1), i.e. +1 iff p = 1 mod 4."""
    return ctx.epsilon


def canonical_nonsquare(ctx: PrimeContext) -> int:
    """The least positive nonsquare mod p."""
    return ctx.omega
