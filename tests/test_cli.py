import hashlib
import json

import pytest

from isogauss import (
    CycInt,
    FormClass,
    QuadValue,
    SQ,
    NONSQ,
    Budget,
    BudgetExceeded,
    canonical_matrix,
    cli,
    cyc_add,
    cyc_const,
    cyc_scale,
    formulas,
    legendre,
    oracle,
    prime_context,
)
from isogauss.cyclotomic import reduce_exponent_vector


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_class(capsys):
    code, out, _ = run(
        capsys, "eval", "--p", "3", "--n", "2", "--rank", "2", "--jobs", "1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["p"] == 3 and data["n"] == 2 and data["d"] == 2
    assert data["disc"] == "sq"
    assert data["restrict"] is None
    assert data["value"] == {"a": "3", "b": "0"}
    assert data["match"] is True
    assert data["embedding"] == data["oracle"]
    assert all(isinstance(c, str) for c in data["embedding"])
    assert "skipped" not in data


def test_eval_matrix(capsys):
    code, out, _ = run(capsys, "eval", "--p", "3", "--matrix", "[[0]]", "--jobs", "1")
    assert code == 0
    data = json.loads(out)
    assert (data["n"], data["d"]) == (1, 0)
    assert data["value"] == {"a": "0", "b": "0"}
    assert data["match"] is True
    # entries are reduced mod p before classification
    code, out, _ = run(
        capsys, "eval", "--p", "3", "--matrix", "[[4, 0], [0, 7]]", "--jobs", "1"
    )
    data = json.loads(out)
    assert code == 0 and data["d"] == 2 and data["value"]["a"] == "3"


def test_eval_restricted(capsys):
    code, out, _ = run(
        capsys,
        "eval", "--p", "3", "--n", "2", "--rank", "1", "--restrict", "2", "--jobs", "1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["restrict"] == 2
    assert data["value"] == {"a": "-6", "b": "0"}
    assert data["match"] is True


def test_eval_non_prime_stays_a_usage_error(capsys):
    # prime_context memoizes its contexts; a non-prime must still be
    # refused on every request, also after a good one
    assert run(capsys, "eval", "--p", "3", "--n", "1", "--rank", "1")[0] == 0
    for _ in range(2):
        code, _, err = run(capsys, "eval", "--p", "4", "--n", "1", "--rank", "1")
        assert code == 2 and "odd prime" in err


def test_eval_usage_errors(capsys):
    bad = [
        ("eval", "--p", "4", "--n", "1", "--rank", "1"),
        ("eval", "--p", str(2**61 - 1), "--n", "1", "--rank", "1"),  # (p-1)^2 > 2^63-1
        ("eval", "--p", "3", "--matrix", "[[1,2],[3,4]]"),
        ("eval", "--p", "3", "--matrix", "[[1,2]]"),
        ("eval", "--p", "3", "--matrix", "[[1,"),
        ("eval", "--p", "3", "--matrix", "[]"),
        ("eval", "--p", "3", "--matrix", "[[true]]"),
        ("eval", "--p", "3", "--matrix", "[1]"),
        ("eval", "--p", "3", "--n", "2"),
        ("eval", "--p", "3", "--n", "2", "--rank", "3"),
        ("eval", "--p", "3", "--n", "0", "--rank", "0"),
        ("eval", "--p", "3", "--n", "2", "--rank", "1", "--restrict", "5"),
        ("eval", "--p", "3", "--n", "2", "--rank", "0", "--disc", "nonsq"),
        ("eval", "--p", "3", "--n", "1", "--rank", "1", "--max-terms", "0"),
        ("eval", "--p", "3", "--n", "1", "--rank", "1", "--jobs", "0"),
    ]
    for argv in bad:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:")


def test_eval_budget_skip(capsys):
    code, out, _ = run(
        capsys,
        "eval", "--p", "3", "--n", "3", "--rank", "3", "--max-terms", "10", "--jobs", "1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == {"a": "0", "b": "-9"}
    assert data["oracle"] is None and data["match"] is None
    assert "budget" in data["skipped"]


def test_eval_past_int16(capsys):
    # (p-1)^2 overflows 16 bits from p = 191 on
    code, out, _ = run(capsys, "eval", "--p", "191", "--n", "2", "--rank", "2")
    assert code == 0
    assert json.loads(out)["match"] is True


def test_eval_small_cell_forks_no_pool(capsys, monkeypatch):
    # a 27-matrix cell is classified in process whatever --jobs says
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    oracle.clear_caches()
    monkeypatch.setattr(oracle, "ProcessPoolExecutor", refuse)
    code, out, _ = run(capsys, "eval", "--p", "3", "--n", "2", "--rank", "2", "--jobs", "2")
    assert code == 0
    assert json.loads(out)["match"] is True


def test_eval_mismatch_exit(capsys, monkeypatch):
    monkeypatch.setattr(formulas, "thm11_value", lambda *a: QuadValue(5, 7))
    code, out, _ = run(
        capsys, "eval", "--p", "3", "--n", "1", "--rank", "1", "--jobs", "1"
    )
    assert code == 1
    data = json.loads(out)
    assert data["match"] is False
    # the oracle's own coefficients, not a copy of the embedding
    orc = oracle.gauss_twisted_bf(prime_context(3), ((1,),))
    assert data["oracle"] == [str(c) for c in orc.coeffs]
    assert data["oracle"] != data["embedding"]


def _eval_output_by_loops(p, n, d, r):
    """eval's stdout for the square class (n, d), built without the
    per-prime caches: g* by its defining loop, the embedding as
    const + scale, the oracle's signed sum in Python integers, and
    str() of every coefficient."""
    ctx = prime_context(p)
    mat = canonical_matrix(ctx, FormClass(n, d, SQ))
    if r is None:
        value = formulas.thm11_value(ctx, n, d, SQ)
    else:
        value = formulas.prop41_value(ctx, n, d, SQ, r)
    acc = [0] * p
    for s in range(1, p):
        acc[(2 * s) % p] += legendre(ctx, s)
    g = CycInt(p, reduce_exponent_vector(p, acc))
    emb = cyc_add(cyc_const(ctx, value.a), cyc_scale(value.b, g))
    out = {
        "p": p, "n": n, "d": d, "disc": "sq", "restrict": r,
        "value": {"a": str(value.a), "b": str(value.b)},
        "embedding": [str(c) for c in emb.coeffs],
        "oracle": None,
        "match": None,
    }
    rank = n if r is None else r
    try:
        tab = oracle.class_character_table(ctx, mat, Budget())
    except BudgetExceeded as e:
        out["skipped"] = str(e)
    else:
        diff = [a - b for a, b in zip(tab[(rank, SQ)], tab[(rank, NONSQ)])]
        orc = CycInt(p, reduce_exponent_vector(p, diff))
        out["oracle"] = [str(c) for c in orc.coeffs]
        out["match"] = emb == orc
    return json.dumps(out) + "\n"


@pytest.mark.parametrize(
    "argv, cell",
    [
        (("--n", "1", "--rank", "1", "--jobs", "1"), (1, 1, None)),
        (("--n", "3", "--rank", "2", "--restrict", "2"), (3, 2, 2)),
    ],
)
def test_eval_output_is_unchanged_at_large_p(capsys, argv, cell):
    code, out, _ = run(capsys, "eval", "--p", "100003", *argv)
    assert code == 0
    assert out == _eval_output_by_loops(100003, *cell)


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--p", "3", "--max-n", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "p,n,d,disc,r,a,b",
        "3,1,1,sq,1,0,1",
        "3,1,1,nonsq,1,0,-1",
        "3,2,1,sq,2,-6,0",
        "3,2,1,nonsq,2,-6,0",
        "3,2,2,sq,2,3,0",
        "3,2,2,nonsq,2,3,0",
    ]


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--p", "5", "--max-n", "1", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2
    assert [r["a"] for r in rows] == ["0", "0"]
    assert sorted(r["b"] for r in rows) == ["-1", "1"]


def test_table_restrict_all(capsys):
    code, out, _ = run(
        capsys,
        "table", "--p", "3", "--max-n", "2", "--format", "json", "--restrict-all",
    )
    rows = json.loads(out)
    assert len(rows) == 16  # 2 classes x 2 ranks + 4 classes x 3 ranks
    assert {r["r"] for r in rows if r["n"] == 2} == {0, 1, 2}
    zero_rows = [r for r in rows if r["r"] == 0]
    assert all(r["a"] == "0" and r["b"] == "0" for r in zero_rows)


# sha256 of the whole stdout of `table --p P --max-n 12 --restrict-all
# --format json`, recorded before the closed forms moved from Fraction
# to exact integer division
@pytest.mark.parametrize(
    "p, digest",
    [
        ("3", "04eb0c4de70372c70bd208f6d4950384cb8e3c936fb74fde4f2de0896421103c"),
        ("10009", "ddb378dd5abc2db62ef819e359bbf072a094cc25ac71b1c216aedd966ea95e74"),
    ],
)
def test_table_closed_forms_are_pinned(capsys, p, digest):
    code, out, _ = run(
        capsys,
        "table", "--p", p, "--max-n", "12", "--restrict-all", "--format", "json",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_table_text(capsys):
    code, out, _ = run(capsys, "table", "--p", "3", "--max-n", "1")
    assert code == 0
    assert out.splitlines()[0] == "p=3 n=1 d=1 disc=sq r=1 value=0+1g"


def test_table_usage(capsys):
    code, _, err = run(capsys, "table", "--p", "3", "--max-n", "0")
    assert code == 2 and "max-n" in err
    code, _, _ = run(capsys, "table", "--p", "9", "--max-n", "1")
    assert code == 2


def test_verify_text(capsys):
    code, out, _ = run(
        capsys, "verify", "--suites", "scalars", "--primes", "3,5,7"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "passed 6 failed 0 skipped 0"
    assert sum(1 for l in lines if l.startswith("[PASS] scalars")) == 6


def test_verify_json(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--suites", "lemma52", "--primes", "3", "--format", "json",
    )
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert lines[-1] == {"summary": {"passed": 8, "failed": 0, "skipped": 0}}
    assert len(lines) == 9
    assert all(l["suite"] == "lemma52" and l["match"] for l in lines[:-1])


def test_verify_csv(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--suites", "scalars", "--primes", "3", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3  # two reports and the summary line
    assert lines[0].startswith("scalars,p=3;fact=g_squared,")


def test_verify_skips_exit_zero(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--suites", "untwisted", "--primes", "3", "--max-terms", "50",
    )
    assert code == 0
    assert out.splitlines()[-1] == "passed 4 failed 0 skipped 8"


def test_verify_usage(capsys):
    code, _, err = run(capsys, "verify", "--suites", "nosuch")
    assert code == 2 and "nosuch" in err
    code, _, _ = run(capsys, "verify", "--suites", "scalars", "--primes", "3,x")
    assert code == 2
    code, _, _ = run(capsys, "verify", "--suites", "scalars", "--primes", "6")
    assert code == 2
    code, _, err = run(capsys, "verify", "--suites", "scalars", "--primes", "3,3037000507")
    assert code == 2 and "2^63-1" in err
    # --jobs reaches no suite, but it is still checked
    code, _, err = run(capsys, "verify", "--suites", "scalars", "--primes", "3", "--jobs", "0")
    assert code == 2 and "--jobs" in err


def test_malformed_env_budget_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("ISOGAUSS_MAX_TERMS", "abc")
    code, out, err = run(capsys, "verify", "--suites", "scalars", "--primes", "3")
    assert code == 2
    assert out == "" and "ISOGAUSS_MAX_TERMS" in err


def test_verify_multiple_suites(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--suites", "scalars,lemma52", "--primes", "3", "--max-n", "1",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "passed 7 failed 0 skipped 0"


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
