import hashlib
import json

import numpy as np
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
from isogauss.cyclotomic import g_star_one, g_star_shape, reduce_exponent_vector


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


# sha256 of "<exit code>\n<stdout>" of eval per request, recorded before
# eval built its output line from shared coefficient strings. The set
# covers p = 3 (no zero in g*'s tail), b = 0, a = 0, negative values,
# r = 0, --matrix, budget-skipped oracles and forced mismatches.
_EVAL_PINS = [
    (("--p", "3", "--n", "1", "--rank", "1"), None,
     "f0448be43e0eb4421065cef95f1c7fc7f934059279c3bdd46471e2a6c9856fd1"),
    (("--p", "3", "--n", "2", "--rank", "1", "--restrict", "2"), None,
     "e44c58f272e460be4a3d67d10aa0dabacbcd435636a41acf5d2696c980a26ae9"),
    (("--p", "3", "--n", "3", "--rank", "3", "--max-terms", "10"), None,
     "9ffd6360412b4fe73c0433f24464512d048020dedba1f30b05dd33cad4b13883"),
    (("--p", "5", "--n", "1", "--rank", "1", "--disc", "nonsq"), None,
     "fc94b8c037836223da1496396b06ad9a1a7397253e14ab70f2159faf8f6edbab"),
    (("--p", "5", "--n", "2", "--rank", "1", "--restrict", "0"), None,
     "5be58ff302a0b9b359067d6992cefe3e3c098e9e819fb668f0f67eddb3d6ed1a"),
    (("--p", "5", "--n", "3", "--rank", "3", "--disc", "nonsq"), None,
     "4601344799703c123f9687fb3afb4f1a14582a3422ee5bbc58707e434c25af5d"),
    (("--p", "5", "--matrix", "[[1, 2], [2, 3]]"), None,
     "5a56bff198ea90bcb04a8ee9c1ee8622e471e12f45d0e4cd67732aa810bf7cb4"),
    (("--p", "1009", "--n", "1", "--rank", "1"), None,
     "317884a57a05543386f61efaf722cadeeb18b5f8e2594cf52f583c5a6d5e1963"),
    (("--p", "1009", "--n", "4", "--rank", "3", "--restrict", "3"), None,
     "a0b0d8bed9146b58b3df34d81b7f39297c878185a5e00b205f8d53c67b8f3744"),
    (("--p", "100003", "--n", "1", "--rank", "1", "--disc", "nonsq"), None,
     "ca939097c233b00f30bf043db844781e74b81b4938bf24f8ef80a80c7c2e9fea"),
    (("--p", "100003", "--n", "2", "--rank", "2"), None,
     "dae6857843d08b78489206ae330cdc4ad35bcd03fccf7ca1f82d38f59239eaee"),
    (("--p", "100003", "--n", "5", "--rank", "3"), None,
     "44b22b30e891862f898b47d41cd10ba8563ae4d375376c9e31d8201087de077a"),
    (("--p", "5", "--n", "1", "--rank", "1"), ("thm11_value", QuadValue(5, -7)),
     "ec28164df7f13400cc87cdd201549f6d0504d2a9a858d5557806578863c9d050"),
    (("--p", "3", "--n", "2", "--rank", "1", "--restrict", "1"),
     ("prop41_value", QuadValue(-6, 1)),
     "83e485cc0be980e9875580aff0a7f233ec08d1e093a5d1af195bdf351aced8ad"),
]


@pytest.mark.parametrize("argv, patch, digest", _EVAL_PINS)
def test_eval_output_bytes_are_pinned(capsys, monkeypatch, argv, patch, digest):
    if patch is not None:
        name, value = patch
        monkeypatch.setattr(formulas, name, lambda *a: value)
    code, out, _ = run(capsys, "eval", *argv)
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == digest


@pytest.mark.parametrize("where", ["zeta0", "on_mask", "off_mask"])
def test_eval_compares_the_oracle_exactly(capsys, monkeypatch, where):
    # one unit off in one coordinate of the oracle's vector is a mismatch
    ctx = prime_context(7)
    mask = g_star_shape(ctx)[2]
    e = {
        "zeta0": 0,
        "on_mask": 1 + int(np.flatnonzero(mask)[0]),
        "off_mask": 1 + int(np.flatnonzero(~mask)[0]),
    }[where]
    want = oracle.signed_coords(ctx, ((1,),), 1).tolist()
    want[e] += 1

    def perturbed(*args):
        v = orig(*args).copy()
        v[e] += 1
        return v

    orig = oracle.signed_coords
    monkeypatch.setattr(oracle, "signed_coords", perturbed)
    code, out, _ = run(capsys, "eval", "--p", "7", "--n", "1", "--rank", "1")
    data = json.loads(out)
    assert code == 1 and data["match"] is False
    assert data["oracle"] == [str(c) for c in want]
    assert data["embedding"] == [str(c) for c in g_star_one(ctx).coeffs]


def test_eval_value_past_int64_cannot_match(capsys, monkeypatch):
    # at p = 3, g* = -1 - 2 zeta: b = -2^62 puts 2^62 on zeta^0, inside
    # int64, and 2^63, one past it, on zeta: a mismatch, not an overflow
    monkeypatch.setattr(formulas, "thm11_value", lambda *a: QuadValue(0, -(2**62)))
    code, out, _ = run(capsys, "eval", "--p", "3", "--n", "1", "--rank", "1")
    data = json.loads(out)
    assert code == 1 and data["match"] is False
    assert data["embedding"] == [str(2**62), str(2**63)]
    assert data["oracle"] == ["-1", "-2"]


def test_eval_embedding_shares_three_strings():
    mask = g_star_shape(prime_context(100003))[2]
    items = cli._embedding_items(-12, 34, mask)
    assert len(items) == 100002 and len({id(x) for x in items}) == 3
    assert items[0] == '"-12"' and items.count('"34"') == int(mask.sum())


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
