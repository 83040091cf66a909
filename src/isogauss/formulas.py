"""Closed-form values of the twisted Gauss sums and the companion
identities: the main rank/disc formula, the zero-form product, the
isotropic-subspace expansion of g^n * G*_T, the rank-restricted sums,
the four untwisted products, the weighted class sums, and the
alternating zero-representation identities.

Conventions shared with the rest of the package: forms live over F_p
with p an odd prime, values are exact (QuadValue = a + b*g with
g^2 = epsilon*p), and every value that must be an integer is computed
in Python integers, with counts.exact_div as the one integrality check:
the rank-restricted sums too, whose group-order ratios are divided out
once per value. Fraction is kept only where a value is truly rational,
in lemma 5.4's weights and sums.
"""

from fractions import Fraction

from . import counts, oracle
from .cyclotomic import (
    CycInt,
    QuadValue,
    cyc_const,
    cyc_mul,
    cyc_pow,
    embed,
    g_star_one,
    quad_mul,
    quad_pow,
)
from .field import PrimeContext, prime_cache
from .quadform import (
    NONSQ,
    SQ,
    FormClass,
    block_diag,
    canonical_matrix,
    classify,
    sym_matrix,
)


def _odd_product(p: int, count: int) -> int:
    # (p^1 - 1)(p^3 - 1) ... (p^(2*count-1) - 1) = P-(2 count) / (P-(count) P+(count)),
    # 1 at count <= 0, where every prefix is the empty product
    minus, plus = counts._prefix(p, count)
    return counts._prefix(p, 2 * count)[0] // (minus * plus)


def _check_class(n: int, d: int, disc: str):
    if n < 1 or not 0 <= d <= n:
        raise ValueError(f"bad class ({n},{d})")
    if d == 0 and disc == NONSQ:
        raise ValueError("rank 0 has no nonsquare class")
    if disc not in (SQ, NONSQ):
        raise ValueError(f"bad disc {disc!r}")


def thm11_value(ctx: PrimeContext, n: int, d: int, disc: str) -> QuadValue:
    """Closed value of the twisted sum for the class (n, d, disc).

    Even n gives a rational integer independent of disc; odd n gives a
    pure g-multiple, zero for even d, and the NonSquare class is the
    exact negative of the Square class.
    """
    p, eps = ctx.p, ctx.epsilon
    _check_class(n, d, disc)
    m, odd = divmod(n, 2)
    c = d // 2
    if not odd:
        a = (-1) ** c * eps**m * p ** (m * m) * _odd_product(p, m - c)
        return QuadValue(a, 0)
    if d % 2 == 0:
        return QuadValue(0, 0)
    b = (-1) ** c * eps ** (m + c) * p ** (m * m + 2 * m - c)
    b *= _odd_product(p, m - c)
    if disc == NONSQ:
        b = -b
    return QuadValue(0, b)


def gauss_zero_even(ctx: PrimeContext, m: int) -> QuadValue:
    """Twisted sum of the zero form in dimension 2m: epsilon^m p^(m^2)
    mu(2m,2m) / mudelta(m,m)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return QuadValue(ctx.epsilon**m * ctx.p ** (m * m) * _odd_product(ctx.p, m), 0)


def cor12_check(
    ctx: PrimeContext, T, use_oracle: bool = False, budget=None, ext_cls=None
):
    """Both sides of the isotropic-subspace expansion of g^n * G*_T.

    lhs: g^n times the twisted sum of T, either via the closed form or
    via the brute-force oracle (use_oracle=True). rhs: the alternating
    sum over a of p^(n(n+1)/2 + a(a-n)) times the number of a-dim
    totally isotropic subspaces of T perp <1>, whose class a caller
    that has it already may pass as ext_cls. Returns (lhs, rhs, match)
    with both sides as CycInt.
    """
    T = sym_matrix(ctx, T)
    n = len(T)
    g = QuadValue(0, 1)
    if use_oracle:
        lhs = cyc_mul(
            cyc_pow(g_star_one(ctx), n),
            oracle.gauss_twisted_bf(ctx, T, budget),
        )
    else:
        cls = classify(ctx, T)
        lhs = embed(quad_mul(quad_pow(g, n, ctx), thm11_value(ctx, n, cls.d, cls.disc), ctx), ctx)
    ext = ext_cls if ext_cls is not None else classify(ctx, block_diag(T, ((1,),)))
    rhs = 0
    for a in range(n + 1):
        e = n * (n + 1) // 2 + a * (a - n)
        rhs += (-1) ** (n + a) * ctx.p**e * counts.iso_count(ctx, ext, a)
    rhs_cyc = cyc_const(ctx, rhs)
    return lhs, rhs_cyc, lhs == rhs_cyc


def _rep_star_zeros(ctx: PrimeContext, c: FormClass, want: int) -> int:
    # r*(form of class c, 0_want) = nu(want,0) * (isotropic subspace count)
    if want == 0:
        return 1
    if want > c.n:
        return 0
    return counts.qfunc(ctx, "nu", want, 0) * counts.iso_count(ctx, c, want)


@prime_cache(entries=counts.MEMO_SIZE)
def _even_restricted(ctx: PrimeContext, n: int, d: int, t: int) -> int:
    """Restricted sum at even rank 2t for a rank-d class in dimension n.

    Shared core for both parities of d; disc-independent. At t=0 the
    even-d branch collapses to 1, which is the value the odd-rank
    reduction needs (the r=0 definitional zero applies only to the
    public entry point). The value is nu(n,d) times an integer sum over
    k, divided once by the order of O(2t+1) perp 0_(n-2t), and exact_div
    checks that it is an integer.
    """
    p, eps = ctx.p, ctx.epsilon
    s = n - 2 * t
    c, rem = divmod(d, 2)
    nu = counts.qfunc(ctx, "nu", n, d)
    orth = counts.orth_order(ctx, FormClass(n + 1, 2 * t + 1, SQ))
    total = 0
    if rem == 0:
        # even d: alternating sum against signed zero representations
        # of the two degenerate rank-2x companions
        for k in range(0, min(c, t) + 1):
            x, y = t - k, c - k
            plus = (p**x + eps**x) * _rep_star_zeros(
                ctx, FormClass(2 * x + s, 2 * x, SQ), 2 * y
            )
            if x >= 1:
                minus = (p**x - eps**x) * _rep_star_zeros(
                    ctx, FormClass(2 * x + s, 2 * x, NONSQ), 2 * y
                )
            else:
                minus = 0
            term = (
                (-1) ** k
                * eps**k
                * p ** (s * (2 * k + 1) + 2 * t * k + t - k)
                * counts.qfunc(ctx, "mudelta", t, k)
                * counts.qfunc(ctx, "gamma", c, k)
                * (plus - minus)
            )
            total += term
    elif t == 0:
        raise ValueError("odd-rank reduction never lands here with t=0")
    else:
        # odd d: split off the rank-2k part shared with the radical, then
        # count embeddings of the leftover odd-rank block by transporter
        # ratios of orthogonal group orders. orth_order ignores disc at
        # odd rank: one order serves both forms
        o_odd = counts.orth_order(ctx, FormClass(2 * t + 1, 2 * t + 1, SQ))
        for k in range(0, min(c, t) + 1):
            x = t - k
            rho = d - 2 * k
            # delta_k sums w_j * o_odd * (z_I / o_I - z_J / o_J) over j,
            # with z the zero representations of the two rank-2x forms
            # (o_odd alone at x = 0, where only a = 0 counts): the two
            # weighted sums are integers, and so are o_odd / o_I and
            # o_odd / o_J, as O(2x) of either type is a subgroup of O(2t+1)
            num_sq = num_nsq = 0
            inj = 1  # frames(p, s, j), one factor more per j: 0 once j > s
            for j in range(0, rho + 1):
                if j:
                    inj *= p**s - p ** (j - 1)
                a = rho - j
                if inj == 0 or (x == 0 and a):
                    continue
                w = counts.qfunc(ctx, "beta", rho, j) * inj * p ** (s * (d + 1 - j))
                if a:
                    num_sq += w * counts.rep_star_lemma51(ctx, "I", 2 * x, ("zeros", a))
                    num_nsq += w * counts.rep_star_lemma51(ctx, "J", 2 * x, ("zeros", a))
                else:
                    num_sq += w
                    num_nsq += w
            if x == 0:
                delta_k = o_odd * num_sq
            else:
                o_sq = counts.orth_order(ctx, FormClass(2 * x, 2 * x, SQ))
                o_nsq = counts.orth_order(ctx, FormClass(2 * x, 2 * x, NONSQ))
                what = "o(2t+1) / o(2x) at t={}, x={}"
                delta_k = num_sq * counts.exact_div(o_odd, o_sq, what, t, x)
                delta_k -= num_nsq * counts.exact_div(o_odd, o_nsq, what, t, x)
            total += (
                (-1) ** k
                * eps**k
                * p ** (k * k)
                * counts.qfunc(ctx, "gamma", c, k)
                * delta_k
            )
    return counts.exact_div(nu * total, orth, "even-rank value at ({},{},{})", n, d, 2 * t)


def prop41_value(ctx: PrimeContext, n: int, d: int, disc: str, r: int) -> QuadValue:
    """Closed value of the rank-restricted twisted sum.

    r=0 is 0 by definition (the two defining orbits coincide). Odd
    restriction rank: zero for even d; for odd d a nu-ratio times
    epsilon^c p^c g times the even-rank value one dimension down, with
    the NonSquare class the exact negative. Even restriction rank:
    a disc-independent rational integer.
    """
    p, eps = ctx.p, ctx.epsilon
    _check_class(n, d, disc)
    if not 0 <= r <= n:
        raise ValueError(f"restriction rank {r} out of range")
    if r == 0:
        return QuadValue(0, 0)
    t, odd = divmod(r, 2)
    if odd:
        if d % 2 == 0:
            return QuadValue(0, 0)
        c = (d - 1) // 2
        b = counts.exact_div(
            counts.qfunc(ctx, "nu", n, d)
            * eps**c
            * p**c
            * (_even_restricted(ctx, n - 1, 2 * c, t) if t >= 1 else 1),
            counts.qfunc(ctx, "nu", n - 1, 2 * c),
            "odd-rank value at ({},{},{})",
            n,
            d,
            r,
        )
        if disc == NONSQ:
            b = -b
        return QuadValue(0, b)
    return QuadValue(_even_restricted(ctx, n, d, t), 0)


_UNTWISTED = ("G_I", "G_J", "Gbar_I", "Gbar_J")


def untwisted_closed(ctx: PrimeContext, n: int, which: str) -> QuadValue:
    """The four untwisted sums as powers of the scalar sum g.

    Diagonalizing, each sum is a product of n^2 scalar sums whose
    coefficients are the pairwise products of the two diagonals, so
    the value is g^(n^2) times chi(detA * detB)^n. G_I and Gbar_J get
    +1 (Gbar_J's twist is chi(omega^2)^n = +1: the omega^2 entry is a
    square); G_J and Gbar_I get (-1)^n.
    """
    if which not in _UNTWISTED:
        raise ValueError(f"which must be one of {_UNTWISTED}")
    if n < 1:
        raise ValueError("n must be >= 1")
    out = quad_pow(QuadValue(0, 1), n * n, ctx)
    if which in ("G_J", "Gbar_I") and n % 2 == 1:
        out = QuadValue(-out.a, -out.b)
    return out


def lemma54_h(ctx: PrimeContext, ell: int, rank_y: int, disc: str) -> Fraction:
    """Weight attached to a dimension-ell class of rank rank_y."""
    p, eps = ctx.p, ctx.epsilon
    if ell < 1 or not 0 <= rank_y <= ell:
        raise ValueError(f"bad (ell, rank) = ({ell}, {rank_y})")
    b = rank_y // 2
    k, odd = divmod(ell, 2)
    core = _odd_product(p, k - b)  # mu(2(k-b),2(k-b)) / mudelta(k-b,k-b)
    if not odd:
        return Fraction((-1) ** b * core)
    if rank_y % 2 == 0:
        return Fraction(0)
    out = Fraction((-1) ** b * eps**b * core, p**b)
    if disc == NONSQ:
        out = -out
    return out


def lemma54_target(ctx: PrimeContext, d: int, form: str, ell: int) -> Fraction:
    """Closed value the weighted class sum must equal."""
    p, eps = ctx.p, ctx.epsilon
    if form not in ("I", "J"):
        raise ValueError(f"form must be I or J, got {form!r}")
    c = d // 2
    k, odd = divmod(ell, 2)
    gamma = counts.qfunc(ctx, "gamma", c, k)
    if not odd:
        return Fraction((-1) ** k * gamma)
    if d % 2 == 0:
        return Fraction(0)
    sign = 1 if form == "I" else -1
    return sign * (-1) ** k * eps**c * Fraction(p) ** (c - 2 * k) * gamma


def lemma54_sum(ctx: PrimeContext, d: int, form: str, ell: int, budget=None) -> Fraction:
    """Sum of r*(form_d, Y)/o(Y) * h_Y over the dimension-ell classes.

    r*(X, Y)/o(Y) is the number of ell-dimensional subspaces on which
    X restricts to the class Y, counted by the brute-force census.
    """
    if form not in ("I", "J"):
        raise ValueError(f"form must be I or J, got {form!r}")
    if not 0 < ell <= d:
        raise ValueError(f"need 0 < ell <= d, got ell={ell}, d={d}")
    disc = SQ if form == "I" else NONSQ
    x_mat = canonical_matrix(ctx, FormClass(d, d, disc))
    census = oracle.subspace_census(ctx, x_mat, ell, budget)
    return sum(
        (count * lemma54_h(ctx, ell, cls.d, cls.disc) for cls, count in census.items()),
        Fraction(0),
    )


def lemma52_check(ctx: PrimeContext, m: int, variant: str):
    """One of the three alternating-sum identities for r(. , 0_dim).

    Returns (lhs, rhs, match). For the odd variant, rhs is the common
    value of the Square and NonSquare forms and match also asserts
    they agree; for the even variants the representing form is chosen
    by the sign of epsilon^m (matching form for even_match, the other
    one for even_cross).
    """
    p, eps = ctx.p, ctx.epsilon
    if m < 0:
        raise ValueError("m must be >= 0")
    if variant == "odd":
        lhs = 0
        for s in range(m + 1):
            lhs += (
                (-1) ** s
                * p ** ((2 * m + 1) * (m - s) + s * s)
                * counts.qfunc(ctx, "beta", m, m - s)
                * counts.qfunc(ctx, "delta", m, m - s)
            )
        dim = 2 * m + 1
        rhs = counts.rep_zero_full(ctx, FormClass(dim, dim, SQ), dim)
        other = counts.rep_zero_full(ctx, FormClass(dim, dim, NONSQ), dim)
        return lhs, rhs, lhs == rhs == other
    if variant == "even_match":
        lhs = 0
        for s in range(m + 1):
            lhs += (
                (-1) ** s
                * p ** (2 * m * (m - s) + s * (s - 1))
                * counts.qfunc(ctx, "beta", m, m - s)
                * counts.qfunc(ctx, "delta", m - 1, m - s)
            )
        disc = SQ if eps**m == 1 else NONSQ
    elif variant == "even_cross":
        if m < 1:
            raise ValueError("even_cross needs m >= 1")
        lhs = 0
        for s in range(1, m + 1):
            lhs += (
                (-1) ** (s + 1)
                * p ** (2 * m * (m - s) + s * (s - 1))
                * counts.qfunc(ctx, "beta", m - 1, m - s)
                * counts.qfunc(ctx, "delta", m, m - s)
            )
        disc = NONSQ if eps**m == 1 else SQ
    else:
        raise ValueError(f"unknown variant {variant!r}")
    dim = 2 * m
    if dim == 0:
        rhs = 1
    else:
        rhs = counts.rep_zero_full(ctx, FormClass(dim, dim, disc), dim)
    return lhs, rhs, lhs == rhs
