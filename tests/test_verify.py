import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

import pytest

from isogauss import SUITES, Budget, VerifyReport, max_dim_for, oracle, run_suite, verify


def test_suite_names():
    assert list(SUITES) == [
        "thm11",
        "cor12",
        "prop41",
        "lemma51",
        "lemma52",
        "lemma53",
        "lemma54",
        "scalars",
        "untwisted",
        "zero_forms",
    ]
    with pytest.raises(ValueError):
        run_suite("nope")


def test_default_grid_clamp():
    b = Budget()
    assert max_dim_for(3, b) == 5
    assert max_dim_for(5, b) == 4
    assert max_dim_for(7, b) == 3
    assert max_dim_for(3, Budget(max_terms=27)) == 2
    assert max_dim_for(11, Budget(max_terms=10)) == 0


def test_thm11_small_grid():
    reports = run_suite("thm11", primes=(3,), max_n=2)
    assert len(reports) == 8
    assert all(r.match and not r.skipped for r in reports)
    seen = {(r.instance["n"], r.instance["d"], r.instance["disc"]) for r in reports}
    assert ("1", "0") not in seen  # keys are ints
    assert (2, 0, "sq") in seen
    assert (2, 2, "nonsq") in seen
    assert len(seen) == 8


def test_thm11_budget_clamps_cells():
    # a 27-term budget admits n = 1, 2 at p = 3 and nothing at p = 11
    reports = run_suite("thm11", primes=(3,), max_n=99, budget=Budget(max_terms=27))
    assert len(reports) == 8
    assert run_suite("thm11", primes=(11,), budget=Budget(max_terms=10)) == []


def test_scalars_reports():
    reports = run_suite("scalars", primes=(3, 5, 7))
    assert len(reports) == 6
    assert all(r.match for r in reports)
    facts = [r.instance["fact"] for r in reports]
    assert facts.count("g_squared") == 3
    assert facts.count("omega_negates") == 3


def test_zero_forms_small():
    reports = run_suite("zero_forms", primes=(3,), max_n=3)
    assert [(r.instance["n"], r.instance["r"]) for r in reports] == [
        (1, 1),
        (2, 2),
        (2, 1),
        (3, 3),
        (3, 1),
        (3, 2),
    ]
    assert all(r.match for r in reports)
    for r in reports:
        if r.instance["n"] % 2 == 1 and r.instance["r"] == r.instance["n"]:
            assert r.lhs == r.rhs == "[0,0]"


def test_budget_turns_reports_into_skips():
    reports = run_suite("untwisted", primes=(3,), budget=Budget(max_terms=50))
    assert len(reports) == 12
    passed = [r for r in reports if r.match]
    skipped = [r for r in reports if r.skipped]
    assert len(passed) == 4 and all(r.instance["n"] == 1 for r in passed)
    assert len(skipped) == 8
    assert not any((not r.match) and (not r.skipped) for r in reports)
    for r in skipped:
        assert r.lhs == r.rhs == ""
        assert "budget" in r.reason


def test_report_json_shape():
    (report,) = run_suite("zero_forms", primes=(3,), max_n=1)
    js = report.to_json()
    assert set(js) == {
        "suite",
        "instance",
        "lhs",
        "rhs",
        "match",
        "elapsed",
        "skipped",
        "reason",
    }
    assert js["suite"] == "zero_forms"
    assert js["match"] is True
    assert js["skipped"] is False
    assert isinstance(js["elapsed"], float) and js["elapsed"] >= 0
    assert isinstance(report, VerifyReport)


def test_deterministic_ordering():
    a = run_suite("lemma52", primes=(3,), max_n=1)
    b = run_suite("lemma52", primes=(3,), max_n=1)
    assert [r.instance for r in a] == [r.instance for r in b]
    assert [(r.lhs, r.rhs, r.match) for r in a] == [(r.lhs, r.rhs, r.match) for r in b]
    assert len(a) == 5  # odd/even_match at m = 0, all three at m = 1


@pytest.mark.parametrize("suite", ["thm11", "prop41", "zero_forms", "lemma53"])
def test_reports_carry_the_shared_table_time(monkeypatch, suite):
    orig = oracle.class_character_tables
    spent = []

    def slow(*args, **kwargs):
        t0 = time.perf_counter()
        time.sleep(0.2)
        out = orig(*args, **kwargs)
        spent.append(time.perf_counter() - t0)
        return out

    monkeypatch.setattr(oracle, "class_character_tables", slow)
    reports = run_suite(suite, primes=(3,), max_n=2)
    # at least one table call per (p, n) or (p, d) cell
    assert len(spent) >= 2 and all(r.match for r in reports)
    assert sum(r.elapsed for r in reports) >= sum(spent)


def test_a_shared_table_over_budget_skips_its_whole_group():
    # lemma53's d = 2 tables need 27 terms: all four d = 2 reports skip,
    # with the table's reason; the d = 1 group runs
    reports = run_suite("lemma53", primes=(3,), max_n=2, budget=Budget(max_terms=20))
    assert [(r.instance["d"], r.skipped) for r in reports] == [
        (1, False), (1, False), (2, True), (2, True), (2, True), (2, True)
    ]
    assert all(r.match for r in reports[:2])
    assert {r.reason for r in reports[2:]} == {
        "symmetric enumeration needs 27 terms, budget is 20"
    }


_PINNED = Path(__file__).with_name("verify_reports_p3_n2.json")


@pytest.mark.parametrize("key, budget", [("default", None), ("max_terms_30", Budget(max_terms=30))])
def test_every_suite_keeps_its_reports(key, budget):
    """(suite, instance, lhs, rhs, match, skipped, reason) of every report
    of every suite at primes=(3,), max_n=2, as recorded before the ten
    suites shared one runner: instances, their order, both sides and
    skip reasons are pinned; elapsed is not."""
    got = [
        [r.suite, r.instance, r.lhs, r.rhs, r.match, r.skipped, r.reason]
        for suite in SUITES
        for r in run_suite(suite, primes=(3,), max_n=2, budget=budget)
    ]
    assert got == json.loads(_PINNED.read_text())[key]


def test_scalars_over_budget_skip_instead_of_raising():
    # omega_negates enumerates p one-by-one matrices: past the budget it
    # is a skipped report, as in every other suite
    reports = run_suite("scalars", primes=(3, 7), budget=Budget(max_terms=5))
    assert [(r.instance["fact"], r.match, r.skipped) for r in reports] == [
        ("g_squared", True, False),
        ("omega_negates", True, False),
        ("g_squared", True, False),
        ("omega_negates", False, True),
    ]
    assert reports[-1].reason == "symmetric enumeration needs 7 terms, budget is 5"


def test_g_squared_cap_is_fixed_and_named():
    # 4481 is the least prime with (p - 1)^2 past the 20,000,000 products
    # of the fixed cap, which no budget lifts
    for budget in (None, Budget(max_terms=10**15)):
        reports = run_suite("scalars", primes=(4481,), budget=budget)
        assert [(r.instance["fact"], r.match, r.skipped) for r in reports] == [
            ("g_squared", False, True),
            ("omega_negates", True, False),
        ]
        assert reports[0].reason == "product g* * g* needs 20070400 terms, fixed cap is 20000000"


def test_cor12_classifies_each_extension_once(monkeypatch):
    # each group classifies T perp <1> as its shared step and T in
    # cor12_check's closed side, and nothing else: cor12_check reuses
    # the shared class of T perp <1>
    from isogauss import formulas, verify
    from isogauss.quadform import classify

    seen = []

    def counted(ctx, mat):
        seen.append(mat)
        return classify(ctx, mat)

    monkeypatch.setattr(verify, "classify", counted)
    monkeypatch.setattr(formulas, "classify", counted)
    reports = run_suite("cor12", primes=(3,), max_n=2)
    assert reports and all(r.match and not r.skipped for r in reports)
    groups = sum("a" not in r.instance for r in reports)
    assert groups == 8 and len(seen) == 2 * groups


class _Writes(io.StringIO):
    """stdout stand-in that keeps each write apart."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, s):
        self.writes.append(s)
        return super().write(s)


def test_a_verify_pass_classifies_each_checked_matrix_once(monkeypatch):
    # the verify command of perfbench/passes.py, in process: classify's
    # memo misses once per distinct checked matrix (and prime) that
    # classify is given, and every JSON line is one write
    from isogauss import cli, field, quadform

    argv = [
        "verify",
        "--suites", "thm11,prop41,zero_forms,lemma51,lemma52,lemma54,cor12,scalars,untwisted",
        "--primes", "3,5", "--max-n", "4", "--jobs", "2", "--format", "json",
    ]
    checked = set()
    calls = 0

    def recording(ctx, rows, check=quadform.sym_matrix):
        nonlocal calls
        m = check(ctx, rows)
        checked.add((m.p, m))
        calls += 1
        return m

    monkeypatch.setattr(quadform, "sym_matrix", recording)
    field.clear_caches()
    out = _Writes()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    hits, misses = quadform._eliminate.cache_info()[:2]
    assert misses == len(checked) and hits + misses == calls > len(checked)
    assert all(w.endswith("\n") and w.count("\n") == 1 for w in out.writes)
    assert len(out.writes) == len(out.getvalue().splitlines()) > 600
    field.clear_caches()


def test_report_times_add_up_to_the_suite_wall_time():
    # a report's elapsed covers its own check and its share of the
    # group's shared step; little of run_suite may fall outside them
    elapsed = wall = 0.0
    for suite in ("thm11", "prop41", "zero_forms", "lemma51"):
        t0 = time.perf_counter()
        reports = run_suite(suite, primes=(3, 5), max_n=4)
        wall += time.perf_counter() - t0
        elapsed += sum(r.elapsed for r in reports)
    assert abs(elapsed / wall - 1) <= 0.02, (elapsed, wall)


# sha256 of the default grid's (suite, instance, lhs, rhs, match,
# skipped) tuples, one JSON line each, recorded at commit 13cd441
_DEFAULT_GRID_SHA256 = "e9ab1332aca02dd2716672df590db73a0659cd42dbeabe2c71155dcc5a1bb78b"


def test_default_grid_is_pinned():
    digest = hashlib.sha256()
    count = 0
    budget = Budget(max_terms=oracle.DEFAULT_MAX_TERMS)
    for suite in SUITES:
        for r in run_suite(suite, budget=budget):
            row = [r.suite, r.instance, r.lhs, r.rhs, r.match, r.skipped]
            digest.update(json.dumps(row).encode() + b"\n")
            count += 1
    assert count == 991
    assert digest.hexdigest() == _DEFAULT_GRID_SHA256


@pytest.mark.parametrize("p, n", [(3, 7), (5, 5), (7, 5), (11, 4)])
def test_class_table_suites_beyond_the_grid(monkeypatch, p, n):
    # past max_dim_for's reach, under a lifted budget, the tables match
    # every closed form of thm11, prop41 and zero_forms; the cell is
    # chosen by patching _cells, so the default grid stays as it is
    monkeypatch.setattr(verify, "_cells", lambda primes, max_n, budget: [(p, n)])
    lifted = Budget(max_terms=10**30)
    reports = [
        r
        for suite in ("thm11", "prop41", "zero_forms")
        for r in run_suite(suite, primes=(p,), budget=lifted)
    ]
    classes = 2 * n + 1
    assert len(reports) == classes + classes * (n + 1) + n
    assert all(r.match and not r.skipped for r in reports)
    oracle.clear_caches()
