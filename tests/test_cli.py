import argparse
import concurrent.futures
import contextlib
import hashlib
import io
import json
import sys
import tracemalloc

import numpy as np
import pytest

from isogauss import (
    CycInt,
    FormClass,
    QuadValue,
    SQ,
    Budget,
    BudgetExceeded,
    canonical_matrix,
    cli,
    cyc_add,
    cyc_const,
    cyc_scale,
    embed,
    field,
    formulas,
    legendre,
    oracle,
    prime_context,
    verify,
)
from isogauss.cyclotomic import g_star_shape, reduce_exponent_vector


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
    # the matrix fixes the class: a class option beside it would go unread
    for extra in (("--n", "5"), ("--rank", "9"), ("--disc", "nonsq"), ("--disc", "sq")):
        code, out, err = run(capsys, "eval", "--p", "3", "--matrix", "[[1]]", *extra)
        assert code == 2 and out == "" and err == f"error: --matrix takes no {extra[0]}\n"
    code, _, err = run(capsys, "eval", "--p", "3", "--matrix", "[[1]]", "--n", "5", "--rank", "9")
    assert code == 2 and err == "error: --matrix takes no --n, --rank\n"


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
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    code, out, _ = run(capsys, "eval", "--p", "3", "--n", "2", "--rank", "2", "--jobs", "2")
    assert code == 0
    assert json.loads(out)["match"] is True


def test_caches_stay_bounded_over_40_primes(capsys):
    # eval of n = 1 and n = 2 cells, table, and verify of three suites to
    # n = 2, at the 40 primes from 271 down to 67, fill every cache: none
    # ever holds more than CACHED_PRIMES primes, and at the end each holds
    # that many, but the one that keeps one form. The primes come largest
    # first, so once the caches are full each later prime replaces a
    # larger one, and the memory they hold stops growing
    primes = [p for p in range(271, 66, -2) if field._is_prime(p)]
    assert len(primes) == 40
    field.clear_caches()
    held = []
    tracemalloc.start()
    try:
        for p in map(str, primes):
            assert cli.main(["eval", "--p", p, "--n", "1", "--rank", "1"]) == 0
            assert cli.main(["eval", "--p", p, "--n", "2", "--rank", "1", "--disc", "nonsq"]) == 0
            assert cli.main(["table", "--p", p, "--max-n", "2", "--restrict-all"]) == 0
            argv = ["verify", "--suites", "thm11,lemma51,lemma54", "--primes", p, "--max-n", "2"]
            assert cli.main(argv) == 0
            capsys.readouterr()
            assert max(c.cache_info().primes for c in field._CACHES) <= field.CACHED_PRIMES
            held.append(tracemalloc.get_traced_memory()[0])
        full = {c.__name__: c.cache_info().primes for c in field._CACHES}
        last_form = ("_line_forms",)  # one entry
        assert full == {name: 1 if name in last_form else field.CACHED_PRIMES for name in full}
        assert held[-1] <= held[field.CACHED_PRIMES - 1]
    finally:
        tracemalloc.stop()
    field.clear_caches()
    assert all(c.cache_info() == (0, 0, 0, 0) for c in field._CACHES)


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
        (tab,) = oracle.class_character_tables(ctx, [mat], Budget())
    except BudgetExceeded as e:
        out["skipped"] = str(e)
    else:
        diff = [a - b for a, b in zip(tab[2 * rank].tolist(), tab[2 * rank + 1].tolist())]
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
# r = 0, --matrix, budget-skipped oracles and forced mismatches, rational
# ones among them.
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
    (("--p", "7", "--n", "2", "--rank", "2"), ("thm11_value", QuadValue(8, 0)),
     "58f76a6cdced3347820232c68bcfa939322669959335f8337eca3d99776a1956"),
    (("--p", "100003", "--n", "1", "--rank", "1"), ("thm11_value", QuadValue(8, 0)),
     "8217cdf453fc582c176a5b784368f8138f98a0717b6fd19079d542486a0693cf"),
    # T with entries off the diagonal in cells that recurse, as they are
    # and with a wrong closed value, so that the oracle's vector prints
    (("--p", "3", "--matrix", "[[1, 1, 0], [1, 2, 1], [0, 1, 0]]"), None,
     "b5875c22756f6834d31c786f064331a5c5c4e8295a78fcdce1b24b79ccb11f2d"),
    (("--p", "3", "--matrix", "[[1, 1, 0], [1, 2, 1], [0, 1, 0]]"),
     ("thm11_value", QuadValue(8, 0)),
     "28be87de675edf8d50d70a8cc474c9a850440d4c97972928f95d7e8268c80212"),
    (("--p", "7", "--matrix", "[[1, 2, 3], [2, 4, 6], [3, 6, 1]]"), None,
     "2682812565d70ca11c58df4b39c2a3e21bc74a4894cf1ab7dcb6bad3034a9964"),
    (("--p", "7", "--matrix", "[[1, 2, 3], [2, 4, 6], [3, 6, 1]]"),
     ("thm11_value", QuadValue(8, 0)),
     "487fe4cb83493ccbec205cd10ee01ba8cba1dee2344f3941ea5b6bc6fa33bd66"),
    (("--p", "211", "--matrix", "[[2, 1], [1, 5]]"), None,
     "0ff84224a73882bafa3cc615dd0d81de07b632275704bd10432cdb2dcdc1bf41"),
    (("--p", "211", "--matrix", "[[2, 1], [1, 5]]"), ("thm11_value", QuadValue(8, 0)),
     "ca875a65f08c12d739dc6ccff8db33ea5e824b5c3a2482b44e10da5d7e1153bf"),
]


@pytest.mark.parametrize("argv, patch, digest", _EVAL_PINS)
def test_eval_output_bytes_are_pinned(capsys, monkeypatch, argv, patch, digest):
    if patch is not None:
        name, value = patch
        monkeypatch.setattr(formulas, name, lambda *a: value)
    code, out, _ = run(capsys, "eval", *argv)
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "n, where",
    [
        *(pytest.param(1, w, id=w) for w in ("zeta0", "on_mask", "off_mask")),
        *(pytest.param(2, w, id=f"rational-{w}") for w in ("zeta0", "on_mask", "off_mask")),
    ],
)
def test_eval_compares_the_oracle_exactly(capsys, monkeypatch, n, where):
    # one unit off in one coordinate of the oracle's vector is a mismatch,
    # for g* (n = 1) and for the rational value 7 (n = 2)
    ctx = prime_context(7)
    mask = g_star_shape(ctx)[2]
    e = {
        "zeta0": 0,
        "on_mask": 1 + int(np.flatnonzero(mask)[0]),
        "off_mask": 1 + int(np.flatnonzero(~mask)[0]),
    }[where]
    value = formulas.thm11_value(ctx, n, n, SQ)
    assert value == (QuadValue(0, 1) if n == 1 else QuadValue(7, 0))
    want = oracle.signed_coords(ctx, canonical_matrix(ctx, FormClass(n, n, SQ)), n).tolist()
    want[e] += 1

    def perturbed(*args):
        v = orig(*args).copy()
        v[e] += 1
        return v

    orig = oracle.signed_coords
    monkeypatch.setattr(oracle, "signed_coords", perturbed)
    code, out, _ = run(capsys, "eval", "--p", "7", "--n", str(n), "--rank", str(n))
    data = json.loads(out)
    assert code == 1 and data["match"] is False
    assert data["oracle"] == [str(c) for c in want]
    assert data["embedding"] == [str(c) for c in embed(value, ctx).coeffs]


def test_eval_value_past_int64_cannot_match(capsys, monkeypatch):
    # at p = 3, g* = -1 - 2 zeta: b = -2^62 puts 2^62 on zeta^0, inside
    # int64, and 2^63, one past it, on zeta: a mismatch, not an overflow
    monkeypatch.setattr(formulas, "thm11_value", lambda *a: QuadValue(0, -(2**62)))
    code, out, _ = run(capsys, "eval", "--p", "3", "--n", "1", "--rank", "1")
    data = json.loads(out)
    assert code == 1 and data["match"] is False
    assert data["embedding"] == [str(2**62), str(2**63)]
    assert data["oracle"] == ["-1", "-2"]


def test_eval_line_shares_one_string_per_zero_run():
    ctx = prime_context(100003)
    mask = g_star_shape(ctx)[2]
    lead, gaps, trail = cli._zero_gaps(ctx)
    assert cli._zero_gaps(ctx)[1] is gaps  # built once per prime
    runs = np.diff(np.flatnonzero(mask)) - 1
    assert len(gaps) == int(mask.sum()) - 1
    assert len({id(g) for g in gaps}) == len(set(runs.tolist()))
    line = cli._eval_line(ctx, {"p": 100003}, -12, 34, {"match": None}, False)
    emb = json.loads(line)["embedding"]
    assert len(emb) == 100002 and emb[0] == "-12"
    assert emb.count("34") == int(mask.sum()) and emb.count("0") == 100001 - int(mask.sum())


def test_a_rational_eval_builds_no_o_p_table(capsys, monkeypatch, refuse_o_p_tables):
    # b = 0 puts 0 on every power past zeta^0, so neither the line nor the
    # check reads chi, g*'s mask or the zero gaps. At p = 1000003 the
    # oracle is skipped by the budget at r = 2 and is the zero vector at
    # r = 0 (a match). Digests of "<exit code>\n<stdout>" recorded before
    # rational values had their own path.
    monkeypatch.delenv("ISOGAUSS_MAX_TERMS", raising=False)
    for extra, digest in (
        ((), "eba61fd68161ecdda2a5fc26e6e395e1ecc03c92b523fb23c37d848256a7fcf5"),
        (("--restrict", "0"), "adefaf649a5bb8ab4d3c760a31ef2a19ec4e17fa043fc7b8d5203457080c8b9e"),
    ):
        code, out, _ = run(capsys, "eval", "--p", "1000003", "--n", "4", "--rank", "2", *extra)
        assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == digest, extra
    ctx = prime_context(1000003)
    assert cli._zero_tail(ctx) is cli._zero_tail(ctx)  # built once per prime


_BIG = int("7" * 306)
_COEFFS = (0, 1, -1, 2**63, -(2**63), _BIG)


@pytest.mark.parametrize("p", (3, 5, 7, 1009, 10007, 100003))
def test_eval_line_is_json_dumps_of_the_dict(p):
    # p = 3: g*'s tail has no zero; p = 5: a zero run before the first
    # rest item (p = 1 mod 4); 7, 1009, 10007 (p = +-1 mod 8): a zero run
    # after the last
    ctx = prime_context(p)
    mask = g_star_shape(ctx)[2].tolist()
    head = {"p": p, "n": 2, "d": 1, "disc": "sq", "restrict": None,
            "value": {"a": "-3", "b": str(_BIG)}}
    tails = [
        ({"oracle": None, "match": None, "skipped": "budget is 10"}, False),
        ({"match": True}, True),
        ({"oracle": ["1", "-2"], "match": False}, False),
    ]
    pairs = [(f, r) for f in _COEFFS for r in _COEFFS]
    if p > 10**4:  # each value once as first and once as rest
        pairs = list(zip(_COEFFS, _COEFFS[1:] + _COEFFS[:1]))
    for first, rest in pairs:
        emb = [str(first)] + [str(rest) if m else "0" for m in mask]
        for tail, oracle_too in tails:
            want = {**head, "embedding": emb, **({"oracle": emb} if oracle_too else {}), **tail}
            got = cli._eval_line(ctx, head, first, rest, tail, oracle_too)
            assert got == json.dumps(want), (first, rest, tail.keys())


def test_eval_writes_its_largest_line_without_copying_it(monkeypatch):
    # eval-stream's largest line (seed 5), 13.05 MB and oracle skipped:
    # beside the line itself, eval allocates under 1 MB at its peak once
    # the prime's caches are warm; a builder that copies the line needs
    # about 13 MB more
    class Sink:
        longest = 0

        def write(self, text):
            self.longest = max(self.longest, len(text))
            return len(text)

        def flush(self):
            pass

    argv = ["eval", "--p", "100003", "--n", "11", "--rank", "3", "--disc", "nonsq",
            "--jobs", "2", "--max-terms", "1000000"]
    sink = Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert cli.main(argv) == 0
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.longest > 13 * 10**6
    assert peak - sink.longest < 1 << 20


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


@pytest.mark.parametrize("suite, check", [("lemma51", "_lemma51"), ("thm11", "_closed_vs_table")])
def test_verify_prints_each_report_when_its_check_ends(monkeypatch, suite, check):
    # check k of the suite finds the k - 1 reports before it printed
    out = io.StringIO()
    seen = []
    orig = getattr(verify, check)

    def counted(*args):
        seen.append(out.getvalue().count("\n"))
        return orig(*args)

    monkeypatch.setattr(verify, check, counted)
    argv = ["verify", "--suites", suite, "--primes", "3", "--max-n", "3", "--format", "json"]
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert len(seen) > 1 and seen == list(range(len(seen)))


def test_verify_json_lines_are_the_suite_reports(capsys):
    # the verify command of perfbench's verify workload prints, line by
    # line, what run_suite returns; elapsed, a timing, is left out
    suites = "thm11,prop41,zero_forms,lemma51,lemma52,lemma54,cor12,scalars,untwisted"
    code, out, _ = run(
        capsys,
        "verify", "--suites", suites, "--primes", "3,5", "--max-n", "4",
        "--jobs", "2", "--format", "json",
    )
    assert code == 0

    def untimed(rep):
        return json.dumps(dict(rep, elapsed=0))

    want = [
        untimed(r.to_json())
        for suite in suites.split(",")
        for r in verify.run_suite(suite, primes=(3, 5), max_n=4)
    ]
    lines = out.splitlines()
    assert [untimed(json.loads(line)) for line in lines[:-1]] == want
    assert json.loads(lines[-1]) == {"summary": {"passed": len(want), "failed": 0, "skipped": 0}}


def test_verify_names_a_fixed_cap(capsys):
    # --max-terms lifts the budget, not g_squared's fixed cap
    for extra in ((), ("--max-terms", str(10**15))):
        code, out, _ = run(capsys, "verify", "--suites", "scalars", "--primes", "4481", *extra)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "[SKIP] scalars p=4481 fact=g_squared "
            "(product g* * g* needs 20070400 terms, fixed cap is 20000000)"
        )
        assert lines[-1] == "passed 1 failed 0 skipped 1"


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
    # a list with no suite would run nothing and pass
    for suites in (",", "", " , "):
        code, out, err = run(capsys, "verify", "--suites", suites)
        assert code == 2 and out == "" and "--suites" in err
    # a list with no prime would fall back to the suites' own primes
    for primes in (",", "", " , "):
        code, out, err = run(capsys, "verify", "--suites", "scalars", "--primes", primes)
        assert code == 2 and out == "" and "--primes" in err
    # a suite or a prime named twice would run twice
    code, out, err = run(capsys, "verify", "--suites", "thm11,thm11", "--primes", "3")
    assert code == 2 and out == "" and err == "error: --suites names 'thm11' twice\n"
    code, out, err = run(capsys, "verify", "--suites", "thm11, scalars,thm11 ", "--primes", "3")
    assert code == 2 and out == "" and "'thm11'" in err
    for primes in ("3,3,5", "3,5,3", "3,03"):
        code, out, err = run(capsys, "verify", "--suites", "thm11", "--primes", primes)
        assert code == 2 and out == "" and err == "error: --primes names 3 twice\n"
    code, out, err = run(capsys, "verify", "--suites", "scalars", "--primes", "3", "--max-n", "-1")
    assert code == 2 and out == "" and "--max-n" in err
    # --jobs reaches no suite, but it is still checked
    code, _, err = run(capsys, "verify", "--suites", "scalars", "--primes", "3", "--jobs", "0")
    assert code == 2 and "--jobs" in err


def test_verify_at_a_huge_prime_passes_or_skips(capsys, monkeypatch, refuse_o_p_tables):
    # every O(p) builder raises: at p = 2147483659 each report passes
    # without one or is skipped by a budget before one is built
    monkeypatch.delenv("ISOGAUSS_MAX_TERMS", raising=False)
    code, out, _ = run(
        capsys,
        "verify", "--suites", "lemma54,scalars", "--primes", "2147483659", "--max-n", "2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "passed 4 failed 0 skipped 4"
    for line in lines[:-1]:
        assert line.startswith("[PASS]") or (
            line.startswith("[SKIP]") and " needs " in line
        ), line
    # the lemma 5.4 sums over ell = d read the class of X, no table
    assert sum(line.startswith("[PASS] lemma54") for line in lines) == 4


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


def test_verify_failing_reports_exit_one(capsys, monkeypatch):
    # a wrong closed form fails every thm11 report of the n = 1 cell:
    # text prints both sides, json says match false, and both count it
    monkeypatch.setattr(formulas, "thm11_value", lambda *a: QuadValue(5, 7))
    argv = ["verify", "--suites", "thm11", "--primes", "3", "--max-n", "1"]
    lhs = verify._ser(embed(QuadValue(5, 7), prime_context(3)))
    code, out, _ = run(capsys, *argv)
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 4 and lines[-1] == "passed 0 failed 3 skipped 0"
    for line in lines[:-1]:
        assert line.startswith("[FAIL] thm11 p=3 n=1 ") and f" lhs={lhs} rhs=[" in line
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 1
    reports = [json.loads(l) for l in out.splitlines()]
    assert reports[-1] == {"summary": {"passed": 0, "failed": 3, "skipped": 0}}
    assert all(r["lhs"] == lhs and r["lhs"] != r["rhs"] and not r["match"] for r in reports[:-1])


def test_verify_runs_every_suite_by_default(capsys):
    # no --suites is --suites all: every suite, in the order of SUITES
    code, out, _ = run(capsys, "verify", "--primes", "3", "--max-n", "1", "--format", "json")
    assert code == 0
    reports = [json.loads(l) for l in out.splitlines()]
    want = [r for s in verify.SUITES for r in verify.run_suite(s, primes=(3,), max_n=1)]
    assert [(r["suite"], r["instance"], r["lhs"]) for r in reports[:-1]] == [
        (r.suite, r.instance, r.lhs) for r in want
    ]
    assert reports[-1] == {"summary": {"passed": len(want), "failed": 0, "skipped": 0}}


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []

    def counted():
        built.append(1)
        return parser()

    parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            code, out, _ = run(capsys, "table", "--p", "3", "--max-n", "1", "--format", "csv")
            assert code == 0 and out.splitlines()[0] == "p,n,d,disc,r,a,b"
        code, _, err = run(capsys, "table", "--p", "3", "--max-n", "0")
        assert code == 2 and err.startswith("error:")
        code, _, _ = run(capsys, *_PERFBENCH_VERIFY[:-4], "--max-n", "1")
        assert code == 0
        # a plain command line, well formed or refused by its handler,
        # builds no parser
        assert built == []
        for argv in (["eval", "--p", "3", "--disc", "nope"], ["eval", "--p", "x"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
        code, _, _ = run(capsys, "table", "--p=3", "--max-n", "1")
        assert code == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]


# lines of the shapes perfbench's two workloads send
_PERFBENCH_VERIFY = [
    "verify",
    "--suites", "thm11,prop41,zero_forms,lemma51,lemma52,lemma54,cor12,scalars,untwisted",
    "--primes", "3,5", "--max-n", "4", "--jobs", "2", "--format", "json",
]
_PERFBENCH_EVALS = [
    ["eval", "--p", "100003", "--n", "12", "--rank", "7", "--disc", "nonsq",
     "--restrict", "3", "--jobs", "2", "--max-terms", "1000000"],
    ["eval", "--p", "13", "--matrix", "[[4, 2, 0], [2, 1, 0], [0, 0, 0]]",
     "--jobs", "2", "--max-terms", "1000000"],
]
_PLAIN_LINES = [
    _PERFBENCH_VERIFY,
    *_PERFBENCH_EVALS,
    # every option of each command
    ["eval", "--p", "5", "--n", "3", "--rank", "2", "--disc", "sq", "--restrict", "1",
     "--max-terms", "100", "--jobs", "1", "--matrix", "[[1]]"],
    ["table", "--p", "3", "--max-n", "2", "--format", "csv", "--restrict-all"],
    ["verify", "--suites", "scalars", "--primes", "3", "--max-n", "1", "--format", "text",
     "--max-terms", "50", "--jobs", "1"],
    # only the required options, in another order
    ["eval", "--p", "3"],
    ["table", "--max-n", "1", "--p", "5"],
    ["verify"],
    # repeats: the last wins
    ["eval", "--p", "3", "--p", "5", "--n", "1", "--n", "2", "--disc", "nonsq", "--disc", "sq"],
    ["table", "--restrict-all", "--p", "3", "--restrict-all", "--max-n", "1", "--max-n", "2"],
    ["verify", "--format", "json", "--format", "csv", "--primes", "3", "--primes", "5,7"],
    # values as int() and argparse read them
    ["eval", "--p", " 3", "--matrix", ""],
    ["eval", "--p", "3", "--matrix", "[[1, -1], [-1, 0]]", "--restrict", "1_0"],
    ["verify", "--suites", "", "--primes", " , "],
]


def _typed(ns):
    return {k: (type(v), v) for k, v in vars(ns).items()}


@pytest.mark.parametrize("argv", _PLAIN_LINES)
def test_plain_args_equal_argparse(argv):
    plain = cli._plain_args(argv)
    assert plain is not None
    assert _typed(plain) == _typed(cli._parser().parse_args(argv))


# left to argparse: (line, the plain line it parses to, or None if
# argparse refuses it)
_FALLBACK_LINES = [
    ([], None),
    (["frobnicate"], None),
    (["--help"], None),
    (["eval", "-h"], None),
    (["table", "--p", "3", "--max-n", "1", "--help"], None),
    (["eval", "--p", "3", "--bogus", "1"], None),
    (["eval", "--p", "3", "stray"], None),
    (["table", "--p", "3", "--max-n", "1", "--restrict-all", "x"], None),
    (["verify", "--max", "1"], None),
    (["eval", "--p"], None),
    (["eval", "--p", "3", "--n"], None),
    (["eval", "--p", "3", "--n", "--rank", "1"], None),
    (["eval", "--p", "x"], None),
    (["eval", "--p", "3", "--disc", "nope"], None),
    (["table", "--p", "3", "--max-n", "1", "--format", "yaml"], None),
    (["eval", "--n", "1", "--rank", "1"], None),
    (["table", "--p", "3"], None),
    (["eval", "--p", "3", "--n", "1", "--rank", "1", "--restrict-all"], None),
    # argparse reads these; the plain parse does not
    (["table", "--p=3", "--max-n=1"], ["table", "--p", "3", "--max-n", "1"]),
    (["table", "--p", "3", "--max-n", "1", "--restrict"],
     ["table", "--p", "3", "--max-n", "1", "--restrict-all"]),
    (["verify", "--suites", "scalars", "--prim", "3", "--form", "text"],
     ["verify", "--suites", "scalars", "--primes", "3", "--format", "text"]),
    (["verify", "--suites", "scalars", "--primes", "3", "--max-n", "-1"], None),
    (["verify", "--suites", "scalars", "--primes", "3", "--", "--max-n", "1"], None),
]


@pytest.mark.parametrize("argv, plain", _FALLBACK_LINES)
def test_plain_args_leave_the_rest_to_argparse(monkeypatch, argv, plain):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli._plain_args(argv) is None
    parsed = _outcome(lambda: cli._parser().parse_args(argv))
    code, out, err = _outcome(lambda: cli.main(argv))
    if isinstance(parsed[0], argparse.Namespace):
        # argparse reads the line: main runs it as it runs the plain one
        if plain is not None:
            assert _typed(parsed[0]) == _typed(cli._plain_args(plain))
            assert (code, out, err) == _outcome(lambda: cli.main(plain))
        else:  # a negative --max-n
            assert code == 2 and out == "" and "--max-n" in err
    else:
        assert plain is None and parsed == (code, out, err)
        assert code in (0, 2) and (code == 0) == ("-h" in argv or "--help" in argv)


def _int_str_limit_error(err):
    limit = sys.get_int_max_str_digits()
    return err.startswith("error:") and str(limit) in err and "Traceback" not in err


def test_eval_refuses_a_value_past_the_int_str_limit(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "eval", "--p", "3", "--n", "200", "--rank", "1")
    assert code == 2 and out == ""
    assert _int_str_limit_error(err)
    assert sys.get_int_max_str_digits() == limit  # the global limit stays


def test_table_refuses_a_value_past_the_int_str_limit(capsys):
    limit = sys.get_int_max_str_digits()
    # at p ~ 10^9 the values of n = 40 pass 4,300 digits
    code, out, err = run(capsys, "table", "--p", "1000000007", "--max-n", "40", "--format", "csv")
    assert code == 2 and out == ""
    assert _int_str_limit_error(err)
    assert sys.get_int_max_str_digits() == limit


def test_eval_past_the_int64_cap_skips_its_oracle(capsys):
    # --max-terms 10**30 lifts the budget past 3^45, not the int64 cap of
    # the class tables: (3, 9) skips its oracle, (3, 8) checks it
    lifted = ("--max-terms", str(10**30))
    code, out, _ = run(capsys, "eval", "--p", "3", "--n", "9", "--rank", "9", *lifted)
    line = json.loads(out)
    assert code == 0 and line["oracle"] is None and line["match"] is None
    assert line["skipped"] == (
        f"int64 class table needs {3**45} terms, fixed cap is {2**63 - 1}"
    )
    code, out, _ = run(capsys, "eval", "--p", "3", "--n", "8", "--rank", "8", *lifted)
    assert code == 0 and json.loads(out)["match"] is True


# what argparse prints, pinned at a terminal 80 columns wide before the
# plain parse (cli._plain_args) existed: the sha256 of each --help, and
# the exit code and stderr of its errors
_HELP_PINS = {
    (): "80cd648bc8ee5c654d17a537121b032d0fa4562b23b04543c2a9de814c8ab40d",
    ("eval",): "c8ac3a42559b29c2d07f0734fad6db1915525c5db0550c5b5456c4c2416f9245",
    ("table",): "c5416428202977b4ba3d11a2c881419e2d6632ebb71d29bcc6543f0ec7d48548",
    ("verify",): "c0690910194ba4a485038cd591d9e5e42b31ced177e251c321519e63a8f862fd",
}

_TOP_USAGE = "usage: isogauss [-h] {eval,table,verify} ...\n"
_EVAL_USAGE = (
    "usage: isogauss eval [-h] --p P [--matrix MATRIX] [--n N] [--rank RANK]\n"
    "                     [--disc {sq,nonsq}] [--restrict RESTRICT]\n"
    "                     [--max-terms MAX_TERMS] [--jobs JOBS]\n"
)
_VERIFY_USAGE = (
    "usage: isogauss verify [-h] [--suites SUITES] [--primes PRIMES]\n"
    "                       [--max-n MAX_N] [--format {json,csv,text}]\n"
    "                       [--max-terms MAX_TERMS] [--jobs JOBS]\n"
)
_ERROR_PINS = [
    ((), _TOP_USAGE + "isogauss: error: the following arguments are required: cmd\n"),
    (
        ("eval", "--n", "1"),
        _EVAL_USAGE + "isogauss eval: error: the following arguments are required: --p\n",
    ),
    (
        ("eval", "--p", "x"),
        _EVAL_USAGE + "isogauss eval: error: argument --p: invalid int value: 'x'\n",
    ),
    (
        ("eval", "--p", "3", "--disc", "nope"),
        _EVAL_USAGE + "isogauss eval: error: argument --disc: invalid choice: 'nope' "
        "(choose from 'sq', 'nonsq')\n",
    ),
    (
        ("table", "--p", "3", "--max-n", "1", "--bogus"),
        _TOP_USAGE + "isogauss: error: unrecognized arguments: --bogus\n",
    ),
    (
        ("verify", "--max", "1"),
        _VERIFY_USAGE + "isogauss verify: error: ambiguous option: --max could match "
        "--max-n, --max-terms\n",
    ),
    (
        ("frobnicate",),
        _TOP_USAGE + "isogauss: error: argument cmd: invalid choice: 'frobnicate' "
        "(choose from 'eval', 'table', 'verify')\n",
    ),
    (
        ("eval", "--p"),
        _EVAL_USAGE + "isogauss eval: error: argument --p: expected one argument\n",
    ),
]


def _outcome(call):
    """(exit code, stdout, stderr) of call(), which returns or exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call()
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("cmd", sorted(_HELP_PINS))
def test_help_is_pinned(monkeypatch, cmd):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _outcome(lambda: cli.main([*cmd, "--help"]))
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == _HELP_PINS[cmd]


@pytest.mark.parametrize("argv, err", _ERROR_PINS)
def test_argparse_errors_are_pinned(monkeypatch, argv, err):
    monkeypatch.setenv("COLUMNS", "80")
    assert _outcome(lambda: cli.main(list(argv))) == (2, "", err)
