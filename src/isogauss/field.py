"""Arithmetic in the prime field F_p, p an odd prime.

A PrimeContext fixes the prime together with its quadratic character
table, the canonical nonsquare omega (least positive nonsquare), and
epsilon = chi(-1). Everything downstream takes the context as first
argument; contexts are immutable and safe to share.
"""

from dataclasses import dataclass, field
from functools import lru_cache


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


@lru_cache(maxsize=32, typed=True)
def prime_context(p: int) -> PrimeContext:
    """The context for an odd prime p.

    Building one costs O(p) (the chi and inv tables), and contexts are
    immutable, so each p is built once and shared by later calls. A
    non-prime raises ValueError on every call.
    """
    if not _is_prime(p) or p < 3:
        raise ValueError(f"p must be an odd prime >= 3, got {p}")
    squares = {(a * a) % p for a in range(1, p)}
    chi = tuple(0 if a == 0 else (1 if a in squares else -1) for a in range(p))
    omega = next(a for a in range(2, p) if chi[a] == -1)
    inv = tuple(0 if a == 0 else pow(a, p - 2, p) for a in range(p))
    return PrimeContext(p=p, omega=omega, epsilon=chi[p - 1], chi=chi, inv=inv)


def legendre(ctx: PrimeContext, a: int) -> int:
    """Quadratic character of a mod p: 0 at 0, +1 on squares, -1 otherwise."""
    return ctx.chi[a % ctx.p]


def epsilon(ctx: PrimeContext) -> int:
    """chi(-1), i.e. +1 iff p = 1 mod 4."""
    return ctx.epsilon


def canonical_nonsquare(ctx: PrimeContext) -> int:
    """The least positive nonsquare mod p."""
    return ctx.omega
