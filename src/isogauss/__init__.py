"""Exact twisted matrix Gauss sums over prime fields.

The library evaluates quadratically twisted Gauss sums of symmetric
matrices over F_p (and their rank-restricted variants) by closed
formulas, and ships independent brute-force oracles so every closed
form can be checked by exact equality in Z[zeta_p].
"""

from .field import PrimeContext, prime_context, legendre
from .cyclotomic import (
    CycInt,
    QuadValue,
    character,
    cyc_add,
    cyc_neg,
    cyc_scale,
    cyc_mul,
    cyc_pow,
    cyc_zero,
    cyc_const,
    g_star_one,
    quad_mul,
    quad_pow,
    embed,
)
from .quadform import (
    SQ,
    NONSQ,
    FormClass,
    sym_matrix,
    classify,
    canonical_matrix,
    all_classes,
)
from .counts import qfunc, rep_star_lemma51, orth_order, orbit_size, iso_count, rep_zero_full
from .oracle import (
    Budget,
    BudgetExceeded,
    gauss_twisted_bf,
    gauss_restricted_bf,
    gauss_untwisted_bf,
    rep_count_bf,
    iso_subspaces_bf,
    class_character_tables,
    clear_caches,
)
from .formulas import (
    thm11_value,
    gauss_zero_even,
    cor12_check,
    prop41_value,
    untwisted_closed,
    lemma54_h,
    lemma54_sum,
    lemma54_target,
    lemma52_check,
)
from .verify import VerifyReport, max_dim_for, run_suite, SUITES

__version__ = "0.1.0"

__all__ = [
    "PrimeContext", "prime_context", "legendre",
    "CycInt", "QuadValue", "character", "cyc_add", "cyc_neg", "cyc_scale",
    "cyc_mul", "cyc_pow", "cyc_zero", "cyc_const", "g_star_one",
    "quad_mul", "quad_pow", "embed",
    "SQ", "NONSQ", "FormClass", "sym_matrix", "classify", "canonical_matrix",
    "orbit_size", "all_classes",
    "qfunc", "rep_star_lemma51", "orth_order", "iso_count", "rep_zero_full",
    "Budget", "BudgetExceeded", "gauss_twisted_bf", "gauss_restricted_bf",
    "gauss_untwisted_bf", "rep_count_bf", "iso_subspaces_bf",
    "class_character_tables", "clear_caches",
    "thm11_value", "gauss_zero_even", "cor12_check", "prop41_value",
    "untwisted_closed", "lemma54_h", "lemma54_sum", "lemma54_target",
    "lemma52_check",
    "VerifyReport", "max_dim_for", "run_suite", "SUITES",
]
