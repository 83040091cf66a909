"""Identity-checking suites.

Each suite enumerates a deterministic grid of instances, evaluates
both sides of one family of identities (closed form vs brute force,
or displayed sum vs counting identity), and returns one VerifyReport
per instance. Enumeration too large for the budget marks instances
skipped rather than failed.

One enumeration pass per (p, dimension) cell feeds every instance in
that cell: the per-class, per-exponent tables from the oracle module
are linear in everything a suite needs.
"""

from dataclasses import dataclass
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
    reduce_exponent_vector,
)
from .field import prime_context
from .oracle import Budget, BudgetExceeded
from .quadform import (
    NONSQ,
    SQ,
    FormClass,
    all_classes,
    block_diag,
    canonical_matrix,
    classify,
)

_GAUSS_PRIMES = (3, 5, 7)
_SCALAR_PRIMES = (3, 5, 7, 11)


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
        return "[" + ",".join(str(c) for c in v.coeffs) + "]"
    if isinstance(v, QuadValue):
        return f"{v.a}+{v.b}g"
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


def _skip(suite, instance, exc, elapsed=0.0) -> VerifyReport:
    return VerifyReport(
        suite=suite,
        instance=instance,
        lhs="",
        rhs="",
        match=False,
        elapsed=elapsed,
        skipped=True,
        reason=str(exc),
    )


def _suite_thm11(primes, max_n, budget, jobs):
    primes = primes or _GAUSS_PRIMES
    max_n = max_n if max_n is not None else 5
    reports = []
    for p, n in _cells(primes, max_n, budget):
        ctx = prime_context(p)
        classes = all_classes(n)
        insts = [
            {"p": p, "n": n, "d": c.d, "disc": c.disc} for c in classes
        ]
        t0 = perf_counter()
        try:
            tabs = oracle.class_character_tables(
                ctx,
                [canonical_matrix(ctx, c) for c in classes],
                budget,
            )
        except BudgetExceeded as e:
            reports.extend(_skip("thm11", i, e) for i in insts)
            continue
        shared = (perf_counter() - t0) / len(classes)
        for c, inst, tab in zip(classes, insts, tabs):
            t1 = perf_counter()
            rhs = oracle.signed_sum(ctx, tab[(n, SQ)], tab[(n, NONSQ)])
            lhs = embed(formulas.thm11_value(ctx, n, c.d, c.disc), ctx)
            reports.append(
                VerifyReport(
                    "thm11", inst, _ser(lhs), _ser(rhs), lhs == rhs,
                    shared + perf_counter() - t1,
                )
            )
    return reports


def _suite_cor12(primes, max_n, budget, jobs):
    primes = primes or _GAUSS_PRIMES
    max_n = max_n if max_n is not None else 5
    reports = []
    for p, n in _cells(primes, max_n, budget):
        ctx = prime_context(p)
        for c in all_classes(n):
            inst = {"p": p, "n": n, "d": c.d, "disc": c.disc}
            T = canonical_matrix(ctx, c)
            t0 = perf_counter()
            lhs, rhs, ok = formulas.cor12_check(ctx, T)
            reports.append(
                VerifyReport(
                    "cor12", inst, _ser(lhs), _ser(rhs), ok,
                    perf_counter() - t0,
                )
            )
            # the subspace counts feeding the right side, re-counted
            # by direct enumeration over echelon bases
            ext = block_diag(T, ((1,),))
            ext_cls = classify(ctx, ext)
            for a in range(n + 1):
                inst2 = {"p": p, "n": n, "d": c.d, "disc": c.disc, "a": a}
                t1 = perf_counter()
                try:
                    bf = oracle.iso_subspaces_bf(ctx, ext, a, budget)
                except BudgetExceeded as e:
                    reports.append(_skip("cor12", inst2, e))
                    continue
                cf = counts.iso_count(ctx, ext_cls, a)
                reports.append(
                    VerifyReport(
                        "cor12", inst2, str(cf), str(bf), cf == bf,
                        perf_counter() - t1,
                    )
                )
    return reports


def _suite_prop41(primes, max_n, budget, jobs):
    primes = primes or _GAUSS_PRIMES
    max_n = max_n if max_n is not None else 4
    reports = []
    for p, n in _cells(primes, max_n, budget):
        ctx = prime_context(p)
        classes = all_classes(n)
        insts = [{"p": p, "n": n, "d": c.d, "disc": c.disc} for c in classes]
        t0 = perf_counter()
        try:
            tabs = oracle.class_character_tables(
                ctx,
                [canonical_matrix(ctx, c) for c in classes],
                budget,
            )
        except BudgetExceeded as e:
            for inst in insts:
                reports.extend(
                    _skip("prop41", dict(inst, r=r), e) for r in range(n + 1)
                )
            continue
        shared = (perf_counter() - t0) / (len(classes) * (n + 1))
        for c, inst, tab in zip(classes, insts, tabs):
            for r in range(n + 1):
                t1 = perf_counter()
                if r == 0:
                    rhs = cyc_const(ctx, 0)
                else:
                    rhs = oracle.signed_sum(ctx, tab[(r, SQ)], tab[(r, NONSQ)])
                lhs = embed(formulas.prop41_value(ctx, n, c.d, c.disc, r), ctx)
                reports.append(
                    VerifyReport(
                        "prop41", dict(inst, r=r), _ser(lhs), _ser(rhs),
                        lhs == rhs, shared + perf_counter() - t1,
                    )
                )
    return reports


def _lemma51_instances(primes, max_size):
    for p in primes:
        for size in range(2, max_size + 1):
            if size == 5 and p != 3:
                continue  # scalar targets stay cheap, zero targets do not
            if size > 5:
                continue
            for form in ("I", "J"):
                targets = [("one", "one"), ("omega", "omega")]
                targets += [(f"zeros{d}", ("zeros", d)) for d in range(1, size + 1)]
                for label, target in targets:
                    yield p, size, form, label, target


def _suite_lemma51(primes, max_n, budget, jobs):
    primes = primes or _GAUSS_PRIMES
    max_size = max_n if max_n is not None else 5
    reports = []
    for p, size, form, label, target in _lemma51_instances(primes, max_size):
        ctx = prime_context(p)
        inst = {"p": p, "size": size, "form": form, "target": label}
        t0 = perf_counter()
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
        try:
            rhs = oracle.rep_count_bf(ctx, x_mat, y, primitive=True, budget=budget)
        except BudgetExceeded as e:
            reports.append(_skip("lemma51", inst, e))
            continue
        reports.append(
            VerifyReport(
                "lemma51", inst, str(lhs), str(rhs), lhs == rhs,
                perf_counter() - t0,
            )
        )
    return reports


def _suite_lemma52(primes, max_n, budget, jobs):
    primes = primes or _GAUSS_PRIMES
    max_m = max_n if max_n is not None else 2
    reports = []
    for p in primes:
        ctx = prime_context(p)
        for m in range(0, max_m + 1):
            for variant in ("odd", "even_match", "even_cross"):
                if variant == "even_cross" and m == 0:
                    continue
                inst = {"p": p, "m": m, "variant": variant}
                t0 = perf_counter()
                lhs, rhs, ok = formulas.lemma52_check(ctx, m, variant)
                reports.append(
                    VerifyReport(
                        "lemma52", inst, str(lhs), str(rhs), ok,
                        perf_counter() - t0,
                    )
                )
    return reports


def _gauss_star_closed(ctx, cls: FormClass) -> QuadValue:
    if cls.n == 0:
        return QuadValue(1, 0)
    return formulas.thm11_value(ctx, cls.n, cls.d, cls.disc)


def _suite_lemma53(primes, max_n, budget, jobs):
    primes = primes or (3, 5)
    max_d = max_n if max_n is not None else 4
    reports = []
    for p in primes:
        ctx = prime_context(p)
        for d in range(1, max_d + 1):
            forms = [("I", SQ), ("J", NONSQ)]
            mats = [canonical_matrix(ctx, FormClass(d, d, disc)) for _, disc in forms]
            insts = [
                {"p": p, "d": d, "form": f, "ell": ell}
                for f, _ in forms
                for ell in range(d)
            ]
            t0 = perf_counter()
            try:
                tabs = oracle.class_character_tables(ctx, mats, budget)
            except BudgetExceeded as e:
                reports.extend(_skip("lemma53", i, e) for i in insts)
                continue
            shared = (perf_counter() - t0) / len(insts)
            for (form, disc), x_mat, tab in zip(forms, mats, tabs):
                for ell in range(d):
                    inst = {"p": p, "d": d, "form": form, "ell": ell}
                    t0 = perf_counter()
                    if ell == 0:
                        # the NonSquare rank-0 orbit is empty: the left
                        # side is the bare zero-matrix term
                        lhs = CycInt(
                            p, reduce_exponent_vector(p, list(tab[(0, SQ)]))
                        )
                    else:
                        lhs = oracle.signed_sum(ctx, tab[(ell, SQ)], tab[(ell, NONSQ)])
                    try:
                        rhs = _lemma53_rhs(ctx, x_mat, ell, budget)
                    except BudgetExceeded as e:
                        reports.append(_skip("lemma53", inst, e, shared))
                        continue
                    reports.append(
                        VerifyReport(
                            "lemma53", inst, _ser(lhs), _ser(rhs),
                            lhs == rhs, shared + perf_counter() - t0,
                        )
                    )
    return reports


def _lemma53_rhs(ctx, x_mat, ell, budget) -> CycInt:
    # each ell-dimensional subspace W contributes the closed G* of X|_W
    a_part = b_part = 0
    for cls, count in oracle.subspace_census(ctx, x_mat, ell, budget).items():
        gv = _gauss_star_closed(ctx, cls)
        a_part += count * gv.a
        b_part += count * gv.b
    return embed(QuadValue(a_part, b_part), ctx)


def _suite_lemma54(primes, max_n, budget, jobs):
    primes = primes or _GAUSS_PRIMES
    max_d = max_n if max_n is not None else 4
    reports = []
    for p in primes:
        ctx = prime_context(p)
        for d in range(1, max_d + 1):
            for form in ("I", "J"):
                for ell in range(1, d + 1):
                    inst = {"p": p, "d": d, "form": form, "ell": ell}
                    t0 = perf_counter()
                    try:
                        lhs = formulas.lemma54_sum(ctx, d, form, ell, budget)
                    except BudgetExceeded as e:
                        reports.append(_skip("lemma54", inst, e))
                        continue
                    rhs = formulas.lemma54_target(ctx, d, form, ell)
                    reports.append(
                        VerifyReport(
                            "lemma54", inst, str(lhs), str(rhs),
                            lhs == rhs, perf_counter() - t0,
                        )
                    )
    return reports


def _suite_scalars(primes, max_n, budget, jobs):
    primes = primes or _SCALAR_PRIMES
    reports = []
    for p in primes:
        ctx = prime_context(p)
        t0 = perf_counter()
        g = g_star_one(ctx)
        lhs = cyc_mul(g, g)
        rhs = cyc_const(ctx, ctx.epsilon * p)
        reports.append(
            VerifyReport(
                "scalars", {"p": p, "fact": "g_squared"},
                _ser(lhs), _ser(rhs), lhs == rhs, perf_counter() - t0,
            )
        )
        t0 = perf_counter()
        lhs = oracle.gauss_twisted_bf(ctx, ((ctx.omega,),), budget)
        rhs = cyc_neg(oracle.gauss_twisted_bf(ctx, ((1,),), budget))
        reports.append(
            VerifyReport(
                "scalars", {"p": p, "fact": "omega_negates"},
                _ser(lhs), _ser(rhs), lhs == rhs, perf_counter() - t0,
            )
        )
    return reports


_UNTWISTED_AB = {
    "G_I": (SQ, SQ),
    "G_J": (NONSQ, SQ),
    "Gbar_I": (SQ, NONSQ),
    "Gbar_J": (NONSQ, NONSQ),
}


def _suite_untwisted(primes, max_n, budget, jobs):
    primes = primes or _SCALAR_PRIMES
    cap = max_n if max_n is not None else 3
    reports = []
    for p in primes:
        ctx = prime_context(p)
        for n in range(1, cap + 1):
            if n == 3 and p != 3:
                continue
            if n > 3:
                continue
            for which in ("G_I", "G_J", "Gbar_I", "Gbar_J"):
                inst = {"p": p, "n": n, "which": which}
                t0 = perf_counter()
                da, db = _UNTWISTED_AB[which]
                A = canonical_matrix(ctx, FormClass(n, n, da))
                B = canonical_matrix(ctx, FormClass(n, n, db))
                try:
                    rhs = oracle.gauss_untwisted_bf(ctx, A, B, budget)
                except BudgetExceeded as e:
                    reports.append(_skip("untwisted", inst, e))
                    continue
                lhs = embed(formulas.untwisted_closed(ctx, n, which), ctx)
                reports.append(
                    VerifyReport(
                        "untwisted", inst, _ser(lhs), _ser(rhs),
                        lhs == rhs, perf_counter() - t0,
                    )
                )
    return reports


def _suite_zero_forms(primes, max_n, budget, jobs):
    primes = primes or _GAUSS_PRIMES
    max_n = max_n if max_n is not None else 5
    reports = []
    for p, n in _cells(primes, max_n, budget):
        ctx = prime_context(p)
        zero = tuple(tuple(0 for _ in range(n)) for _ in range(n))
        t0 = perf_counter()
        try:
            tab = oracle.class_character_table(ctx, zero, budget)
        except BudgetExceeded as e:
            reports.append(_skip("zero_forms", {"p": p, "n": n}, e))
            continue
        shared = (perf_counter() - t0) / (n + 1)
        t1 = perf_counter()
        rhs = oracle.signed_sum(ctx, tab[(n, SQ)], tab[(n, NONSQ)])
        lhs = embed(
            formulas.gauss_zero_even(ctx, n // 2) if n % 2 == 0 else QuadValue(0, 0),
            ctx,
        )
        reports.append(
            VerifyReport(
                "zero_forms", {"p": p, "n": n, "r": n},
                _ser(lhs), _ser(rhs), lhs == rhs,
                shared + perf_counter() - t1,
            )
        )
        # restricted sums of the zero form: pure orbit-size differences
        for r in range(1, n):
            t1 = perf_counter()
            rhs = oracle.signed_sum(ctx, tab[(r, SQ)], tab[(r, NONSQ)])
            lhs = embed(formulas.prop41_value(ctx, n, 0, SQ, r), ctx)
            reports.append(
                VerifyReport(
                    "zero_forms", {"p": p, "n": n, "r": r},
                    _ser(lhs), _ser(rhs), lhs == rhs,
                    shared + perf_counter() - t1,
                )
            )
    return reports


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


def run_suite(suite: str, primes=None, max_n=None, budget=None, jobs=None):
    """Run one named suite over its grid; see SUITES for the names.

    primes/max_n default per suite to the standard verification grid;
    the budget clamps every cell, so oversized requests degrade to
    skipped reports instead of long enumerations.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    budget = budget if budget is not None else Budget()
    if primes is not None:
        primes = tuple(primes)
    return SUITES[suite](primes, max_n, budget, jobs)
