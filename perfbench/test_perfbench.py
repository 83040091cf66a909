"""Tests of the benchmark's own code: input generation, span self time,
the tracer's bindings, the percentile rule and the reference checks."""

import json
import multiprocessing
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import passes  # noqa: E402
import spans  # noqa: E402
from isogauss import cli, formulas, oracle, prime_context, quadform  # noqa: E402


def test_same_seed_same_requests():
    reqs = passes.eval_requests(7)
    assert reqs == passes.eval_requests(7)
    assert reqs != passes.eval_requests(8)
    assert len(reqs) == 192
    assert sum(r["r"] is not None for r in reqs) == 96
    assert sum("--matrix" in r["argv"] for r in reqs) == 48
    cells = {(r["p"], r["n"], r["r"] is not None) for r in reqs}
    assert len(cells) == 192


def test_random_matrices_have_the_drawn_class():
    for req in passes.eval_requests(3):
        if "--matrix" in req["argv"] and req["p"] < 1000:
            mat = json.loads(req["argv"][req["argv"].index("--matrix") + 1])
            cls = quadform.classify(prime_context(req["p"]), mat)
            assert (cls.n, cls.d, cls.disc) == (req["n"], req["d"], req["disc"])


def _span(sid, parent, start, end, pid=1, worker=False):
    return {"id": sid, "parent": parent, "start": start, "end": end, "pid": pid, "worker": worker}


def test_self_time_of_nested_spans():
    st = spans.self_times(
        [
            _span("1.0", None, 0.0, 10.0),
            _span("1.1", "1.0", 1.0, 4.0),
            _span("1.2", "1.1", 2.0, 3.0),
            _span("1.3", "1.0", 3.5, 6.0),  # overlaps 1.1: covered once
            _span("2.0", "1.0", 0.0, 9.0, pid=2, worker=True),
        ]
    )
    assert st["1.0"] == pytest.approx(10.0 - 5.0)
    assert st["1.1"] == pytest.approx(2.0)
    assert st["1.2"] == pytest.approx(1.0)
    assert st["1.3"] == pytest.approx(2.5)
    assert st["2.0"] == pytest.approx(9.0)  # worker side, never subtracted


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    orig = quadform.classify_batch
    oracle.clear_caches()
    tracer = spans.Tracer(str(tmp_path))
    tracer.install()
    try:
        assert oracle.classify_batch is not orig
        formulas.cor12_check(prime_context(3), ((1, 0), (0, 0)), use_oracle=True)
    finally:
        tracer.uninstall()
    assert oracle.classify_batch is orig and quadform.classify_batch is orig
    got = tracer.collect()
    by_id = {s["id"]: s for s in got}
    batch = [s for s in got if s["name"] == "quadform.classify_batch"]
    assert batch and all(
        by_id[s["parent"]]["name"] == "oracle.class_character_tables" for s in batch
    )
    assert {"cyclotomic.cyc_mul", "cyclotomic.g_star_one", "counts.iso_count"} <= {
        s["name"] for s in got
    }
    metrics = spans.layer_metrics(got, fork=True)
    assert metrics["quadform.classify_batch.matrices"] == (3**3, "count")
    assert metrics["quadform.classify_batch.reclassify_ratio"][0] == pytest.approx(1.0)
    assert spans.layer_metrics(got, fork=False)["quadform.classify_batch.matrices"][0] is None


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="workers inherit wrappers only under fork"
)
def test_worker_spans_are_merged(tmp_path):
    tracer = spans.Tracer(str(tmp_path))
    tracer.install()
    try:
        oracle.class_character_tables(prime_context(3), [((1,),)], None, 2)
    finally:
        tracer.uninstall()
    got = tracer.collect()
    (top,) = [s for s in got if s["name"] == "oracle.class_character_tables"]
    workers = [s for s in got if s["worker"]]
    assert any(s["name"] == "quadform.classify_batch" for s in workers)
    assert all(s["parent"] == top["id"] and s["pid"] != top["pid"] for s in workers)
    assert not os.listdir(tmp_path)


def test_percentile_keeps_ten_samples_above():
    xs = [float(i) for i in range(100)]
    assert passes.percentile(xs, 0.9) == 89.0
    assert passes.percentile(xs, 0.5) == 49.0
    with pytest.raises(ValueError):
        passes.percentile(xs[:99], 0.9)
    # failed operations (None) sort last and count as late beyond every limit
    assert passes.percentile([1.0] * 80 + [None] * 20, 0.9) is None
    assert passes.percentile([1.0] * 60 + [None] * 40, 0.5) == 1.0


def _verify_lines(workload):
    ref = passes._load(f"{workload}.json")
    reps = [
        {"suite": s, "instance": i, "lhs": l, "rhs": r, "match": True, "skipped": False}
        for s, i, l, r in ref["reports"]
    ]
    return reps


def _judge(checker, expect, code, exc, reps):
    lines = [(json.dumps(r), 1.0) for r in reps]
    return checker.check(expect, code, exc, 0.0, lines)


def test_injected_wrong_report_fails():
    checker = passes.Checker("verify")
    reps = _verify_lines("verify")
    assert all(k is None for _, k in _judge(checker, None, 0, None, reps))
    reps[5]["lhs"] += "1"
    reps[9]["skipped"] = True
    del reps[20]
    kinds = [k for _, k in _judge(checker, None, 1, None, reps)]
    assert len(kinds) == 644
    assert sorted(k for k in kinds if k) == ["missing", "skipped", "wrong"]


def test_injected_wrong_eval_value_fails():
    req = {"p": 101, "n": 5, "d": 3, "disc": "nonsq", "r": None}
    req["argv"] = ["eval", "--p", "101", "--n", "5", "--rank", "3", "--disc", "nonsq"]
    code, exc, start, _, lines = passes.call(cli.main, req["argv"])
    checker = passes.Checker("eval-stream")
    ((lat, kind),) = checker.check(req, code, exc, start, lines)
    assert kind is None and lat > 0
    out = json.loads(lines[0][0])
    out["value"]["b"] = str(int(out["value"]["b"]) + 1)
    assert checker.check(req, 0, None, start, [(json.dumps(out), 1.0)]) == [(None, "wrong")]
    assert checker.check(req, None, "OverflowError", start, []) == [(None, "exception")]
