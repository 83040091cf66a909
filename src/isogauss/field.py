"""Arithmetic in the prime field F_p, p an odd prime.

A PrimeContext fixes the prime together with the canonical nonsquare
omega (least positive nonsquare) and epsilon = chi(-1), both found by
Euler's criterion; it is an O(1) tuple of three ints that hashes in C.
Everything downstream takes the context as first argument; contexts are
immutable and safe to share. Scalar code reads chi through pow, by
Euler's criterion. The one O(p) array, chi as int8, is built by
chi_table(), once per prime, for the vectorised callers only: 1 at the
squares x^2 mod p, x = 1 .. (p-1)/2, -1 at every other nonzero residue. Every cache of the
package is a prime_cache, bounded per prime; clear_caches empties them.
"""

from collections import namedtuple
from functools import partial, update_wrapper
from operator import index
from typing import NamedTuple

import numpy as np
from numpy import ndarray

# how many primes each per-prime cache keeps
CACHED_PRIMES = 32
# the oracle works in int64: every product of two residues must fit, and
# its sums of products and its counts are refused past this
_INT64_MAX = np.iinfo(np.int64).max


CacheInfo = namedtuple("CacheInfo", "hits misses primes entries")
# every cache prime_cache made, emptied together by clear_caches
_CACHES = []


def prime_cache(fn=None, *, entries=None, keep=None):
    """fn with its values kept per prime, keyed on the positional
    arguments; the first, the prime or its PrimeContext, picks a table.

    At most CACHED_PRIMES tables are kept, a new prime dropping the
    oldest, and at most `entries` entries over all of them when given,
    the oldest entry of the oldest table going first. keep(*args), when
    given, says whether a new value is kept. A kept array, alone or in a
    tuple, is made read-only. Every call is a hit or a miss; one with
    keyword arguments, or arguments that do not hash, keeps nothing, so
    fn raises its own error. The result has fn as __wrapped__, and
    cache_info(), cache_keys() and cache_clear(); clear_caches clears it.
    """
    if fn is None:
        return partial(prime_cache, entries=entries, keep=keep)
    tables = {}  # first argument -> {args: value}, oldest first
    hits = misses = size = 0
    missing = object()

    def cached(*args, **kwargs):
        nonlocal hits, misses, size
        try:
            value = tables[args[0]].get(args, missing)
        except (IndexError, KeyError, TypeError):  # a new prime, no argument, or no hash
            value = missing
        if value is not missing and not kwargs:
            hits += 1
            return value
        misses += 1
        value = fn(*args, **kwargs)
        if kwargs or (keep is not None and not keep(*args)):
            return value
        if size == entries:
            oldest, table = next(iter(tables.items()))
            del table[next(iter(table))]
            size -= 1
            if not table:
                del tables[oldest]
        try:
            table = tables.get(args[0])
            if table is None:  # a new prime
                table = {args: value}
                if len(tables) == CACHED_PRIMES:
                    size -= len(tables.pop(next(iter(tables))))
                tables[args[0]] = table
            else:
                table[args] = value
        except TypeError:  # nothing to key the value on
            return value
        size += 1
        if isinstance(value, ndarray):
            value.flags.writeable = False  # shared by every later caller
        elif type(value) is tuple:
            for item in value:
                if isinstance(item, ndarray):
                    item.flags.writeable = False
        return value

    def cache_clear():
        nonlocal hits, misses, size
        tables.clear()
        hits = misses = size = 0

    cached.cache_info = lambda: CacheInfo(hits, misses, len(tables), size)
    cached.cache_keys = lambda: [args for table in tables.values() for args in table]
    cached.cache_clear = cache_clear
    _CACHES.append(cached)
    return update_wrapper(cached, fn)


def clear_caches():
    """Empty every cache that prime_cache made, counts included."""
    for cache in _CACHES:
        cache.cache_clear()


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


class PrimeContext(NamedTuple):
    p: int
    omega: int
    epsilon: int


@prime_cache
def prime_context(p: int) -> PrimeContext:
    """The context for an odd prime p, shared by later calls.

    A non-prime, or a p with (p-1)^2 past the int64 range that the
    oracle's products of two residues are computed in, raises ValueError
    on every call.
    """
    if p >= 3 and (p - 1) ** 2 > _INT64_MAX:
        raise ValueError(
            f"p must satisfy (p-1)^2 <= 2^63-1 (p <= 3037000500), got {p}"
        )
    if not _is_prime(p) or p < 3:
        raise ValueError(f"p must be an odd prime >= 3, got {p}")
    omega = next(a for a in range(2, p) if _euler(p, a) == -1)
    return PrimeContext(p=p, omega=omega, epsilon=_euler(p, p - 1))


@prime_cache
def chi_table(ctx: PrimeContext) -> np.ndarray:
    """chi[a], the quadratic character of a, as read-only int8 for a in
    0..p-1. Built once per prime.

    x and -x have one square, so x = 1..(p-1)/2 reach every nonzero
    square once: chi is 1 there, 0 at 0 and -1 elsewhere. The squares
    are taken in place in int64, where x^2 < p^2/4 fits for every p that
    prime_context accepts.
    """
    p = ctx.p
    x = np.arange(1, (p + 1) // 2, dtype=np.int64)
    x *= x
    x %= p
    chi = np.full(p, -1, np.int8)
    chi[0] = 0
    chi[x] = 1
    return chi


def legendre(ctx: PrimeContext, a: int) -> int:
    """Quadratic character of a mod p: 0 at 0, +1 on squares, -1 otherwise."""
    return _euler(ctx.p, index(a) % ctx.p)
