"""Closed-form counting over F_p: product functions, representation
numbers of scalar and zero targets, orthogonal group orders, and
totally isotropic subspace counts.

All values are exact Python integers. A product of factors (p^i -+ 1)
is a quotient of two cached prefix products (_prefix), times a power
of p where one is needed. Every other ratio that must be an integer
(beta, gamma, the division by nu(j,0) in iso_count, and the callers'
group-order quotients) goes through exact_div, which raises
ArithmeticError on a nonzero remainder: that means a formula was
applied outside its domain, not a rounding problem.

The prefix table, qfunc, rep_star_lemma51, orth_order and iso_count
are memoized per prime (field.prime_cache, at most MEMO_SIZE entries
over all primes), as is formulas._even_restricted: a value is a
function of the prime and a few small arguments, and the formulas ask
for the same ones many times over. No oracle reads these memos.
"""

from math import prod

from .field import PrimeContext, prime_cache
from .quadform import SQ, NONSQ, FormClass

_KINDS = ("mu", "delta", "mudelta", "beta", "nu", "gamma")
# entries each per-prime memo keeps, over all primes
MEMO_SIZE = 1 << 13


def exact_div(num, den: int, what: str, *args) -> int:
    """num / den, which must be an integer; what.format(*args) names it
    in the error, formatted only when it is raised."""
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{what.format(*args)} is not integral")
    return q


@prime_cache(entries=MEMO_SIZE)
def _prefix(p: int, k: int) -> tuple:
    """(P-(k), P+(k)), P-+(k) = prod_{1<=i<=k} (p^i -+ 1): each by one
    math.prod, reading no other entry, so no k is deep enough to reach
    the recursion limit. Every product function is a quotient of two."""
    powers = [p**i for i in range(1, k + 1)]
    return prod(x - 1 for x in powers), prod(x + 1 for x in powers)


def _mu(p: int, t: int, s: int) -> int:
    # prod_{i<s} (p^(t-i) - 1)
    if s > t:
        return 0 if s else 1  # the exponent-0 factor vanishes
    return _prefix(p, t)[0] // _prefix(p, t - s)[0]


def _delta(p: int, t: int, s: int) -> int:
    # prod_{i<s} (p^(t-i) + 1); its exponent-0 factor is 2
    if not s:
        return 1
    if s > t + 1:
        raise ValueError(f"delta({t},{s}) runs past exponent 0")
    if s == t + 1:
        return 2 * _prefix(p, t)[1]
    return _prefix(p, t)[1] // _prefix(p, t - s)[1]


def _mudelta(p: int, t: int, s: int) -> int:
    # prod_{i<s} (p^(2(t-i)) - 1) = mu(t,s) delta(t,s)
    if s > t:
        return 0 if s else 1
    (mt, pt), (ms, ps) = _prefix(p, t), _prefix(p, t - s)
    return (mt // ms) * (pt // ps)


def _nu(p: int, t: int, s: int) -> int:
    # prod_{s<=i<t} (p^t - p^i) = p^(s+...+(t-1)) mu(t-s, t-s)
    if s >= t:
        return 1
    return p ** ((t * (t - 1) - s * (s - 1)) // 2) * _prefix(p, t - s)[0]


def frames(p: int, t: int, j: int) -> int:
    """prod_{i<j} (p^t - p^i): linearly independent j-tuples in F_p^t."""
    return p ** (j * (j - 1) // 2) * _mu(p, t, j)


@prime_cache(entries=MEMO_SIZE)
def qfunc(ctx: PrimeContext, kind: str, t: int, s: int) -> int:
    """The six product functions.

    mu(t,s), delta(t,s), mudelta(t,s) = mu*delta: products of s factors
    (empty, hence 1, at s=0). beta(t,s) = mu(t,s)/mu(s,s) counts
    s-dimensional subspaces of F_p^t, and is 0 for s < 0.
    nu(t,s): product over i in [s, t) of (p^t - p^i); nu(t,0) = |GL_t|.
    gamma(t,s) = mudelta(t,s)/mudelta(s,s).
    """
    p = ctx.p
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "beta" and s < 0:
        return 0
    if s < 0:
        raise ValueError(f"{kind} needs s >= 0")
    if kind == "beta":
        return exact_div(_mu(p, t, s), _mu(p, s, s), "beta({},{})", t, s)
    if kind == "gamma":
        return exact_div(_mudelta(p, t, s), _mudelta(p, s, s), "gamma({},{})", t, s)
    if kind == "mu":
        return _mu(p, t, s)
    if kind == "delta":
        return _delta(p, t, s)
    if kind == "mudelta":
        return _mudelta(p, t, s)
    return _nu(p, t, s)


@prime_cache(entries=MEMO_SIZE)
def rep_star_lemma51(ctx: PrimeContext, form: str, size: int, target) -> int:
    """Primitive representation numbers of nondegenerate forms.

    form is "I" or "J" (Square / NonSquare type of the given size);
    target is "one", "omega", or ("zeros", d) for the d-fold zero form.
    Values may legitimately be 0 (zero targets beyond the Witt index).
    """
    p, eps = ctx.p, ctx.epsilon
    if form not in ("I", "J"):
        raise ValueError(f"form must be I or J, got {form!r}")
    if size < 1:
        raise ValueError("size must be >= 1")
    t, odd = divmod(size, 2)
    if target in ("one", "omega"):
        if not odd:
            # even size: the target's square class does not matter
            sign = -1 if form == "I" else 1
            return p ** (t - 1) * (p**t + sign * eps**t)
        want_plus = (form == "I") == (target == "one")
        sign = 1 if want_plus else -1
        return p**t * (p**t + sign * eps**t)
    if isinstance(target, tuple) and len(target) == 2 and target[0] == "zeros":
        d = target[1]
        if d < 1:
            raise ValueError("zeros target needs d >= 1")
        if odd:
            return p ** (d * (d - 1) // 2) * _mudelta(p, t, d)
        # p^e (p^(t-d) - sign eps^t) with e = d(d-1)/2, multiplied out:
        # e + t - d = d(d-3)/2 + t >= 0 since t >= 1, so no division
        sign = -1 if form == "I" else 1
        e = d * (d - 1) // 2
        return (
            (p**t + sign * eps**t)
            * _mudelta(p, t - 1, d - 1)
            * (p ** (e + t - d) - sign * eps**t * p**e)
        )
    raise ValueError(f"unsupported target {target!r}")


@prime_cache(entries=MEMO_SIZE)
def orth_order(ctx: PrimeContext, c: FormClass) -> int:
    """Order of the orthogonal group of the class representative.

    Odd nondegenerate size 2m+1: 2 p^(m^2) mudelta(m,m), same for both
    disc types. Even size 2m: 2 p^(m(m-1)) (p^m - eta) mudelta(m-1,m-1)
    where eta = +1 exactly when the form is hyperbolic; the Square type
    is hyperbolic iff epsilon^m = 1. A degenerate form Q perp 0_s has
    order o(Q) * p^(d*s) * nu(s,0): an isometry is block triangular
    with an isometry of Q, an arbitrary d x s mixing block, and an
    arbitrary invertible map on the radical.
    """
    p, eps = ctx.p, ctx.epsilon
    n, d = c.n, c.d
    if not 0 <= d <= n:
        raise ValueError(f"bad class {c}")
    m, odd = divmod(d, 2)
    if d == 0:
        nd = 1
    elif odd:
        nd = 2 * p ** (m * m) * _mudelta(p, m, m)
    else:
        eta = eps**m if c.disc == SQ else -(eps**m)
        nd = 2 * p ** (m * (m - 1)) * (p**m - eta) * _mudelta(p, m - 1, m - 1)
    s = n - d
    return nd * p ** (d * s) * _nu(p, s, 0)


def orbit_size(ctx: PrimeContext, c: FormClass) -> int:
    """Number of symmetric matrices congruent to the class representative:
    |GL_n| / |O(c)|."""
    return exact_div(qfunc(ctx, "nu", c.n, 0), orth_order(ctx, c), "orbit size of {}", c)


@prime_cache(entries=MEMO_SIZE)
def iso_count(ctx: PrimeContext, c: FormClass, j: int) -> int:
    """Number of j-dimensional totally isotropic subspaces of the class.

    Nondegenerate part via the closed primitive zero-representation
    formulas divided by nu(j,0). Radical of dimension s contributes by
    splitting a subspace W as (W cap radical) of dimension i, a
    projected totally isotropic subspace of dimension j-i, and an
    arbitrary lifting hom into the rest of the radical:
    R*(Q perp 0_s, 0_j) = sum_i R*(Q, 0_(j-i)) beta(s,i) p^((j-i)(s-i)).
    """
    p = ctx.p
    if not 0 <= j <= c.n:
        raise ValueError(f"subspace dimension {j} out of range for {c}")
    if j == 0:
        return 1
    d, s = c.d, c.n - c.d
    form = "I" if c.disc == SQ else "J"

    def nd_count(x: int) -> int:
        # totally isotropic x-subspaces of the nondegenerate part
        if x == 0:
            return 1
        if x > d or d == 0:
            return 0
        rstar = rep_star_lemma51(ctx, form, d, ("zeros", x))
        return exact_div(rstar, _nu(p, x, 0), "iso count for {}, j={}", c, x)

    total = 0
    for i in range(0, min(j, s) + 1):
        total += nd_count(j - i) * qfunc(ctx, "beta", s, i) * p ** ((j - i) * (s - i))
    return total


def rep_zero_full(ctx: PrimeContext, c: FormClass, d: int) -> int:
    """r(c, 0_d): all matrices C (any rank) with ^tC X C = 0_d.

    Sums primitive subspace counts against the number of d-tuples
    spanning a fixed j-dimensional space, frames(p, d, j).
    """
    p = ctx.p
    if d < 0:
        raise ValueError("d must be >= 0")
    total = 0
    for j in range(0, min(d, c.n) + 1):
        total += iso_count(ctx, c, j) * frames(p, d, j)
    return total
