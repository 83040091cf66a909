"""Identity-checking suites.

Each suite enumerates a deterministic grid of instances, each with a
check of both sides of one family of identities (closed form vs brute
force, or displayed sum vs counting identity). One runner, _run, turns
them into one VerifyReport per instance. Enumeration too large for the
budget marks instances skipped rather than failed.

One enumeration pass per (p, dimension) cell feeds every instance in
that cell: the per-class, per-exponent tables from the oracle module
are linear in everything a suite needs.
"""

from dataclasses import dataclass
from functools import partial
from time import perf_counter

from . import counts, formulas, oracle
from .cyclotomic import (
    CycInt,
    QuadValue,
    cyc_const,
    cyc_mul,
    cyc_neg,
    embed,
    g_star_one,
)
from .field import prime_context
from .oracle import Budget, BudgetExceeded, CapExceeded
from .quadform import (
    NONSQ,
    SQ,
    FormClass,
    all_classes,
    block_diag,
    canonical_matrix,
    classify,
    sym_matrix,
)

_GAUSS_PRIMES = (3, 5, 7)
_SCALAR_PRIMES = (3, 5, 7, 11)
# g_squared builds O(p) tables for g* and squares it with cyc_mul, (p-1)^2
# products in Python; past this many products it is skipped. A fixed cap
# (CapExceeded) like oracle._COL_CAP, not the budget, which counts
# enumerated terms
_G_SQUARED_CAP = 20_000_000


@dataclass
class VerifyReport:
    suite: str
    instance: dict
    lhs: str
    rhs: str
    match: bool
    elapsed: float
    skipped: bool = False
    reason: str = ""

    def to_json(self):
        return {
            "suite": self.suite,
            "instance": self.instance,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "match": self.match,
            "elapsed": round(self.elapsed, 6),
            "skipped": self.skipped,
            "reason": self.reason,
        }


def _ser(v) -> str:
    if isinstance(v, CycInt):
        return "[" + ",".join(map(str, v.coeffs)) + "]"
    return str(v)


def max_dim_for(p: int, budget: Budget) -> int:
    """Largest n whose full symmetric enumeration fits the budget."""
    n = 0
    while p ** ((n + 1) * (n + 2) // 2) <= budget.max_terms:
        n += 1
    return n


def _cells(primes, max_n, budget):
    for p in primes:
        cap = min(max_n, max_dim_for(p, budget))
        for n in range(1, cap + 1):
            yield p, n


def _skip(suite, instance, exc) -> VerifyReport:
    return VerifyReport(suite, instance, "", "", False, 0.0, True, str(exc))


def _report(suite, instance, check, data) -> VerifyReport:
    try:
        lhs, rhs, match = check(data)
    except BudgetExceeded as e:
        return _skip(suite, instance, e)
    return VerifyReport(suite, instance, _ser(lhs), _ser(rhs), match, 0.0)


def _run(suite, groups):
    """Turn a suite's groups into reports, yielding each in order as
    soon as its check ends.

    Each group is (shared, items). shared is None or a thunk for the
    work its reports have in common; each item is (instance, check),
    and check(data) returns (lhs, rhs, match) given data = shared()
    (None without a shared step). A BudgetExceeded from shared() skips
    the whole group; one from a check skips only its report.

    Every report's elapsed is its own check plus an even share of its
    group's set-up: building the group and shared(). The intervals are
    taken back to back, so the elapsed times of a suite's reports add
    up to the time its consumer takes to draw them all; time the
    consumer spends between two reports falls to the next one.

    A check must bind everything it reads (functools.partial or
    default arguments): a group's items may be built lazily, and a
    suite must not count on its group being used up before its
    generator moves on.
    """
    mark = perf_counter()  # time before mark is charged to some report
    for shared, items in groups:
        items = list(items)
        failed = None
        try:
            data = shared() if shared is not None else None
        except BudgetExceeded as e:
            failed = e
        now = perf_counter()
        share, mark = (now - mark) / max(len(items), 1), now
        for instance, check in items:
            if failed is None:
                rep = _report(suite, instance, check, data)
            else:
                rep = _skip(suite, instance, failed)
            now = perf_counter()
            rep.elapsed, mark = share + now - mark, now
            yield rep


def _class_tables(ctx, classes, budget):
    mats = [canonical_matrix(ctx, c) for c in classes]
    return oracle.class_character_tables(ctx, mats, budget)


def _signed(ctx, rows, r) -> CycInt:
    return CycInt(ctx.p, tuple(oracle.signed_rows(rows, r).tolist()))


def _closed_vs_table(ctx, closed, i, r, tabs):
    """lhs: the closed value closed() embedded; rhs: the signed sum of
    the rank-r counts of table i.

    At r = 0 rhs is a literal zero and the table is not read: the two
    rank-0 orbits are the zero matrix alone, so the signed sum over them
    is zero by definition. Such a report checks that the closed form
    gives zero there, not a count.
    """
    rhs = _signed(ctx, tabs[i], r) if r else cyc_const(ctx, 0)
    lhs = embed(closed(), ctx)
    return lhs, rhs, lhs == rhs


def _class_inst(p, c):
    return {"p": p, "n": c.n, "d": c.d, "disc": c.disc}


def _suite_thm11(primes, max_n, budget):
    max_n = max_n if max_n is not None else 5
    for p, n in _cells(primes or _GAUSS_PRIMES, max_n, budget):
        ctx = prime_context(p)
        classes = all_classes(n)
        yield partial(_class_tables, ctx, classes, budget), [
            (
                _class_inst(p, c),
                partial(
                    _closed_vs_table, ctx,
                    partial(formulas.thm11_value, ctx, n, c.d, c.disc), i, n,
                ),
            )
            for i, c in enumerate(classes)
        ]


def _cor12_closed(ctx, T, ext_cls):
    return formulas.cor12_check(ctx, T, ext_cls=ext_cls)


def _cor12_count(ctx, ext, a, budget, ext_cls):
    bf = oracle.iso_subspaces_bf(ctx, ext, a, budget)
    cf = counts.iso_count(ctx, ext_cls, a)
    return cf, bf, cf == bf


def _suite_cor12(primes, max_n, budget):
    max_n = max_n if max_n is not None else 5
    for p, n in _cells(primes or _GAUSS_PRIMES, max_n, budget):
        ctx = prime_context(p)
        for c in all_classes(n):
            inst = _class_inst(p, c)
            T = canonical_matrix(ctx, c)
            # the subspace counts feeding the right side, re-counted
            # by direct enumeration over echelon bases; checked here once
            # for its classify and every count
            ext = sym_matrix(ctx, block_diag(T, ((1,),)))
            yield partial(classify, ctx, ext), [
                (inst, partial(_cor12_closed, ctx, T)),
                *(
                    (dict(inst, a=a), partial(_cor12_count, ctx, ext, a, budget))
                    for a in range(n + 1)
                ),
            ]


def _suite_prop41(primes, max_n, budget):
    """prop41_value(n, d, disc, r) against the signed rank-r counts of
    the class's table, for every class and every r in 0..n.

    The r = 0 reports compare the closed form with the zero that defines
    G*(T; 0) (_closed_vs_table), not with a count.
    """
    max_n = max_n if max_n is not None else 4
    for p, n in _cells(primes or _GAUSS_PRIMES, max_n, budget):
        ctx = prime_context(p)
        classes = all_classes(n)
        yield partial(_class_tables, ctx, classes, budget), [
            (
                dict(_class_inst(p, c), r=r),
                partial(
                    _closed_vs_table, ctx,
                    partial(formulas.prop41_value, ctx, n, c.d, c.disc, r), i, r,
                ),
            )
            for i, c in enumerate(classes)
            for r in range(n + 1)
        ]


def _lemma51(ctx, size, form, target, budget, _):
    lhs = counts.rep_star_lemma51(ctx, form, size, target)
    disc = SQ if form == "I" else NONSQ
    x_mat = canonical_matrix(ctx, FormClass(size, size, disc))
    if target == "one":
        y = ((1,),)
    elif target == "omega":
        y = ((ctx.omega,),)
    else:
        d = target[1]
        y = tuple(tuple(0 for _ in range(d)) for _ in range(d))
    rhs = oracle.rep_star_bf(ctx, x_mat, y, budget)
    return lhs, rhs, lhs == rhs


def _suite_lemma51(primes, max_n, budget):
    max_size = max_n if max_n is not None else 5
    for p in primes or _GAUSS_PRIMES:
        ctx = prime_context(p)
        # size 5 only at p = 3: scalar targets stay cheap, zero targets do not
        for size in range(2, min(max_size, 5 if p == 3 else 4) + 1):
            targets = [("one", "one"), ("omega", "omega")]
            targets += [(f"zeros{d}", ("zeros", d)) for d in range(1, size + 1)]
            yield None, [
                (
                    {"p": p, "size": size, "form": form, "target": label},
                    partial(_lemma51, ctx, size, form, target, budget),
                )
                for form in ("I", "J")
                for label, target in targets
            ]


def _suite_lemma52(primes, max_n, budget):
    max_m = max_n if max_n is not None else 2
    for p in primes or _GAUSS_PRIMES:
        ctx = prime_context(p)
        yield None, [
            (
                {"p": p, "m": m, "variant": variant},
                lambda _, ctx=ctx, m=m, v=variant: formulas.lemma52_check(ctx, m, v),
            )
            for m in range(0, max_m + 1)
            for variant in ("odd", "even_match", "even_cross")
            if not (variant == "even_cross" and m == 0)
        ]


def _lemma53(ctx, cls, i, ell, budget, tabs):
    # at ell = 0 the NonSquare orbit is empty: the bare zero-matrix term
    lhs = _signed(ctx, tabs[i], ell)
    # each ell-dimensional subspace W contributes the closed G* of X|_W
    a_part = b_part = 0
    census = oracle.subspace_census(ctx, canonical_matrix(ctx, cls), ell, budget)
    for w, count in census.items():
        gv = QuadValue(1, 0) if w.n == 0 else formulas.thm11_value(ctx, w.n, w.d, w.disc)
        a_part += count * gv.a
        b_part += count * gv.b
    rhs = embed(QuadValue(a_part, b_part), ctx)
    return lhs, rhs, lhs == rhs


def _suite_lemma53(primes, max_n, budget):
    max_d = max_n if max_n is not None else 4
    for p in primes or (3, 5):
        ctx = prime_context(p)
        for d in range(1, max_d + 1):
            forms = (("I", FormClass(d, d, SQ)), ("J", FormClass(d, d, NONSQ)))
            yield partial(_class_tables, ctx, [c for _, c in forms], budget), [
                (
                    {"p": p, "d": d, "form": form, "ell": ell},
                    partial(_lemma53, ctx, cls, i, ell, budget),
                )
                for i, (form, cls) in enumerate(forms)
                for ell in range(d)
            ]


def _lemma54(ctx, d, form, ell, budget, _):
    lhs = formulas.lemma54_sum(ctx, d, form, ell, budget)
    rhs = formulas.lemma54_target(ctx, d, form, ell)
    return lhs, rhs, lhs == rhs


def _suite_lemma54(primes, max_n, budget):
    max_d = max_n if max_n is not None else 4
    for p in primes or _GAUSS_PRIMES:
        ctx = prime_context(p)
        yield None, [
            (
                {"p": p, "d": d, "form": form, "ell": ell},
                partial(_lemma54, ctx, d, form, ell, budget),
            )
            for d in range(1, max_d + 1)
            for form in ("I", "J")
            for ell in range(1, d + 1)
        ]


def _g_squared(ctx, _):
    terms = (ctx.p - 1) ** 2
    if terms > _G_SQUARED_CAP:
        raise CapExceeded(terms, _G_SQUARED_CAP, "product g* * g*")
    g = g_star_one(ctx)
    lhs = cyc_mul(g, g)
    rhs = cyc_const(ctx, ctx.epsilon * ctx.p)
    return lhs, rhs, lhs == rhs


def _omega_negates(ctx, budget, _):
    lhs = oracle.gauss_twisted_bf(ctx, ((ctx.omega,),), budget)
    rhs = cyc_neg(oracle.gauss_twisted_bf(ctx, ((1,),), budget))
    return lhs, rhs, lhs == rhs


def _suite_scalars(primes, max_n, budget):
    for p in primes or _SCALAR_PRIMES:
        ctx = prime_context(p)
        yield None, [
            ({"p": p, "fact": "g_squared"}, partial(_g_squared, ctx)),
            ({"p": p, "fact": "omega_negates"}, partial(_omega_negates, ctx, budget)),
        ]


_UNTWISTED_AB = {
    "G_I": (SQ, SQ),
    "G_J": (NONSQ, SQ),
    "Gbar_I": (SQ, NONSQ),
    "Gbar_J": (NONSQ, NONSQ),
}


def _untwisted(ctx, n, which, budget, _):
    da, db = _UNTWISTED_AB[which]
    A = canonical_matrix(ctx, FormClass(n, n, da))
    B = canonical_matrix(ctx, FormClass(n, n, db))
    rhs = oracle.gauss_untwisted_bf(ctx, A, B, budget)
    lhs = embed(formulas.untwisted_closed(ctx, n, which), ctx)
    return lhs, rhs, lhs == rhs


def _suite_untwisted(primes, max_n, budget):
    cap = max_n if max_n is not None else 3
    for p in primes or _SCALAR_PRIMES:
        ctx = prime_context(p)
        yield None, [
            ({"p": p, "n": n, "which": which}, partial(_untwisted, ctx, n, which, budget))
            for n in range(1, min(cap, 3 if p == 3 else 2) + 1)
            for which in _UNTWISTED_AB
        ]


def _suite_zero_forms(primes, max_n, budget):
    max_n = max_n if max_n is not None else 5
    for p, n in _cells(primes or _GAUSS_PRIMES, max_n, budget):
        ctx = prime_context(p)
        # the full sum first, then the restricted sums of the zero form:
        # pure orbit-size differences
        if n % 2 == 0:
            full = partial(formulas.gauss_zero_even, ctx, n // 2)
        else:
            full = partial(QuadValue, 0, 0)
        closed = [(n, full)] + [
            (r, partial(formulas.prop41_value, ctx, n, 0, SQ, r)) for r in range(1, n)
        ]
        yield partial(_class_tables, ctx, [FormClass(n, 0, SQ)], budget), [
            ({"p": p, "n": n, "r": r}, partial(_closed_vs_table, ctx, value, 0, r))
            for r, value in closed
        ]


SUITES = {
    "thm11": _suite_thm11,
    "cor12": _suite_cor12,
    "prop41": _suite_prop41,
    "lemma51": _suite_lemma51,
    "lemma52": _suite_lemma52,
    "lemma53": _suite_lemma53,
    "lemma54": _suite_lemma54,
    "scalars": _suite_scalars,
    "untwisted": _suite_untwisted,
    "zero_forms": _suite_zero_forms,
}


def iter_suite(suite: str, primes=None, max_n=None, budget=None):
    """Run one named suite over its grid, yielding each VerifyReport as
    soon as its check ends; see SUITES for the names.

    primes/max_n default per suite to the standard verification grid.
    thm11, cor12, prop41 and zero_forms leave out, with no report, each
    cell past max_dim_for; the other suites skip a check past the budget.
    An unknown suite raises ValueError at the call, before any report.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    budget = budget if budget is not None else Budget()
    if primes is not None:
        primes = tuple(primes)
    return _run(suite, SUITES[suite](primes, max_n, budget))


def run_suite(suite: str, primes=None, max_n=None, budget=None, jobs=None):
    """iter_suite's reports as a list. jobs is accepted and ignored: no
    suite starts a process pool."""
    return list(iter_suite(suite, primes, max_n, budget))
