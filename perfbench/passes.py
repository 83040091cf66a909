"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/passes.py --workload NAME --seed N --launch T [--trace 0|1] [--setup-only]

run from the root of an isogauss checkout. T is the parent's
time.monotonic() just before it started this interpreter (on Linux the
clock is shared by all processes), so the set-up time printed covers
interpreter start, importing isogauss and generating the inputs. The
pass drives isogauss.cli.main in-process, checks every output against
the reference recorded from the seed commit, and prints one JSON line.

An operation is a verify report or an eval request. It
fails on an exception, an unexplained non-zero exit code, a mismatch
reported by the program, a budget-skipped report or dropped oracle, a
missing or extra output, or an output that differs from the reference.
Only the last two kinds ("mismatch", "wrong") make the pass incorrect.
"""

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import math
import multiprocessing
import os
import random
import resource
import sys
import time
from collections import Counter
from time import perf_counter

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")
OUT_DIR = ".perfbench"

JOBS = "2"
VERIFY_ARGS = {
    "verify": [
        "verify",
        "--suites", "thm11,prop41,zero_forms,lemma51,lemma52,lemma54,cor12,scalars,untwisted",
        "--primes", "3,5", "--max-n", "4", "--jobs", JOBS, "--format", "json",
    ],
}
EVAL_PRIMES = (3, 5, 7, 13, 101, 1009, 10007, 100003)
EVAL_MAX_N = 12
EVAL_MAX_TERMS = 1_000_000
DESIGN_SEED = 20170825
WORKLOADS = ("verify", "eval-stream")
INCORRECT = ("mismatch", "wrong")
MIN_TAIL = 10  # samples above a reported percentile


# -- inputs ---------------------------------------------------------------


def _legendre(a, p):
    a %= p
    return 0 if a == 0 else (1 if pow(a, (p - 1) // 2, p) == 1 else -1)


def _least_nonsquare(p):
    return next(a for a in range(2, p) if _legendre(a, p) == -1)


def _invertible(m, p):
    a = [row[:] for row in m]
    n = len(a)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] % p), None)
        if piv is None:
            return False
        a[k], a[piv] = a[piv], a[k]
        inv = pow(a[k][k], p - 2, p)
        for i in range(k + 1, n):
            f = a[i][k] * inv % p
            for j in range(k, n):
                a[i][j] = (a[i][j] - f * a[k][j]) % p
    return True


def random_form(rng, p, n, d, disc):
    """A random symmetric matrix of the class (n, d, disc): P^t C P for
    the class representative C and a random invertible P, so the class
    is known without asking the program."""
    diag = [1] * d + [0] * (n - d)
    if disc == "nonsq":
        diag[d - 1] = _least_nonsquare(p)
    while True:
        pm = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if _invertible(pm, p):
            break
    return [
        [sum(pm[k][i] * diag[k] * pm[k][j] for k in range(n)) % p for j in range(n)]
        for i in range(n)
    ]


def eval_requests(seed):
    """The eval-stream request list for one seed.

    The design is the same for every seed: each (p, n, with-restrict)
    triple occurs once, so p and n are uniform and exactly half the
    requests carry --restrict, and each triple's rank and restriction
    rank are drawn once, uniformly, from a fixed stream. The work a pass
    does therefore does not depend on the seed; without this the largest
    output at p = 100003, which sets peak memory, would vary several-fold
    between seeds. The seed draws the order of the requests, which
    quarter of them pass --matrix, the matrices, and the disc types.
    """
    design = random.Random(DESIGN_SEED)
    cells = []
    for p in EVAL_PRIMES:
        for n in range(1, EVAL_MAX_N + 1):
            for restrict in (False, True):
                d = design.randint(0, n)
                r = design.randint(0, n) if restrict else None
                cells.append((p, n, d, r))
    rng = random.Random(seed)
    rng.shuffle(cells)
    matrix = [i < len(cells) // 4 for i in range(len(cells))]
    rng.shuffle(matrix)
    out = []
    for (p, n, d, r), use_matrix in zip(cells, matrix):
        disc = "sq" if d == 0 else rng.choice(("sq", "nonsq"))
        argv = ["eval", "--p", str(p)]
        if use_matrix:
            argv += ["--matrix", json.dumps(random_form(rng, p, n, d, disc))]
        else:
            argv += ["--n", str(n), "--rank", str(d), "--disc", disc]
        if r is not None:
            argv += ["--restrict", str(r)]
        argv += ["--jobs", JOBS, "--max-terms", str(EVAL_MAX_TERMS)]
        out.append({"p": p, "n": n, "d": d, "disc": disc, "r": r, "argv": argv})
    return out


def commands(workload, seed):
    """[(argv, expectation)] for one pass of the workload."""
    if workload in VERIFY_ARGS:
        return [(VERIFY_ARGS[workload], None)]
    if workload == "eval-stream":
        return [(req["argv"], req) for req in eval_requests(seed)]
    raise ValueError(f"unknown workload {workload!r}")


# -- running --------------------------------------------------------------


class LineClock(io.TextIOBase):
    """stdout stand-in that stamps each output line with the time its
    newline was written."""

    def __init__(self):
        self.lines = []
        self._part = []

    def writable(self):
        return True

    def write(self, s):
        now = perf_counter()
        *done, rest = s.split("\n")
        for piece in done:
            if piece or not self._part:
                self._part.append(piece)
            # print() writes the text, then "\n": keep the text object
            # instead of copying it, which would double a large output
            line = self._part[0] if len(self._part) == 1 else "".join(self._part)
            self.lines.append((line, now))
            self._part = []
        if rest:
            self._part.append(rest)
        return len(s)


def call(main, argv):
    """Run cli.main once: (exit code, exception name, start, end, lines)."""
    out = LineClock()
    code = exc = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except Exception as e:  # an exception is a measured outcome
        exc = type(e).__name__
    end = perf_counter()
    return code, exc, start, end, out.lines


# -- reference checks ------------------------------------------------------


def _load(name):
    with open(os.path.join(REFERENCE, name)) as f:
        return json.load(f)


def digest(a, b):
    return hashlib.sha256(f"{a},{b}".encode()).hexdigest()[:12]


def eval_keys(n):
    """Canonical (d, disc, r) order of one (p, n) entry of the eval reference."""
    for d in range(n + 1):
        for disc in ("sq",) if d == 0 else ("sq", "nonsq"):
            for r in [None] + list(range(n + 1)):
                yield d, disc, r


def gstar(p):
    """Power-basis coordinates of g* = sum over s != 0 of chi(s) zeta^(2s),
    using zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))."""
    square = bytearray(p)
    for s in range(1, (p + 1) // 2):
        square[s * s % p] = 1
    acc = [0] * p
    for s in range(1, p):
        acc[2 * s % p] += 1 if square[s] else -1
    return [acc[e] - acc[p - 1] for e in range(p - 1)]


class Checker:
    """Judges one command's outcome; returns a list of (latency_s or
    None, failure kind or None), one entry per operation."""

    def __init__(self, workload):
        self.workload = workload
        self._ref = None

    def ref(self):
        if self._ref is None:
            name = "eval-values.json" if self.workload == "eval-stream" else f"{self.workload}.json"
            self._ref = _load(name)
        return self._ref

    def check(self, expect, code, exc, start, lines):
        if self.workload in VERIFY_ARGS:
            ops = self._verify(lines, start)
        else:
            ops = self._eval(expect, lines, start)
        if exc is not None:
            ops = [(None, "exception")] * len(ops)
        elif code != 0 and all(k is None for _, k in ops):
            ops = [(None, "exit")] * len(ops)
        return ops

    def _verify(self, lines, start):
        ref = self.ref()
        want = {r[0] + json.dumps(r[1], sort_keys=True): (r[2], r[3]) for r in ref["reports"]}
        ops = []
        for text, t in lines:
            try:
                rep = json.loads(text)
            except ValueError:
                ops.append((None, "missing"))
                continue
            if not isinstance(rep, dict) or "summary" in rep:
                continue
            key = str(rep.get("suite")) + json.dumps(rep.get("instance"), sort_keys=True)
            exp = want.pop(key, None)
            if exp is None:
                kind = "missing"  # extra or duplicated report
            elif rep.get("skipped"):
                kind = "skipped"
            elif (rep.get("lhs"), rep.get("rhs")) != exp:
                kind = "wrong"
            elif rep.get("match") is not True:
                kind = "mismatch"
            else:
                kind = None
            ops.append((t - start if kind is None else None, kind))
        ops.extend((None, "missing") for _ in want)
        return ops

    def _eval(self, req, lines, start):
        p, n, d, disc, r = req["p"], req["n"], req["d"], req["disc"], req["r"]
        try:
            out = json.loads(lines[0][0])
            t = lines[0][1] - start
            a, b = int(out["value"]["a"]), int(out["value"]["b"])
        except (IndexError, ValueError, KeyError, TypeError):
            return [(None, "missing")]
        keys = list(eval_keys(n))
        row = self.ref()[f"{p},{n}"]
        i = keys.index((d, disc, r))
        if [out.get(k) for k in ("p", "n", "d", "disc", "restrict")] != [p, n, d, disc, r]:
            return [(None, "wrong")]
        if digest(a, b) != row[12 * i : 12 * i + 12]:
            return [(None, "wrong")]
        emb = out.get("embedding")
        if not isinstance(emb, list) or len(emb) != p - 1:
            return [(None, "wrong")]
        # compared term by term: a second list of p - 1 big numbers would
        # raise the pass's peak memory above the program's own
        want = (str(a * (e == 0) + b * c) for e, c in enumerate(gstar(p)))
        if not all(x == y for x, y in zip(emb, want)):
            return [(None, "wrong")]
        if out.get("oracle") is None:
            if r == 0 or p ** (n * (n + 1) // 2) <= EVAL_MAX_TERMS:
                return [(None, "skipped")]  # the seed commit ran this oracle
        elif out.get("match") is not True or out["oracle"] != emb:
            return [(None, "mismatch")]
        return [(t, None)]


# -- one pass ---------------------------------------------------------------


def percentile(latencies, q):
    """Nearest-rank q-quantile of latencies; None marks a failed operation,
    which counts as infinitely late, and is returned if the quantile
    lands on one. Raises ValueError unless at least MIN_TAIL samples lie
    above the quantile."""
    xs = sorted(math.inf if x is None else x for x in latencies)
    rank = math.ceil(q * len(xs))
    if len(xs) - rank < MIN_TAIL:
        raise ValueError(f"{len(xs)} samples leave fewer than {MIN_TAIL} above the {q} quantile")
    v = xs[rank - 1]
    return None if v == math.inf else v


def import_cli(root):
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "isogauss", "cli.py")):
        raise SystemExit(f"no isogauss sources under {src}")
    sys.path.insert(0, src)
    import isogauss.cli

    if not os.path.abspath(isogauss.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"isogauss imported from outside {src}")
    return isogauss.cli


def run_pass(workload, seed, launch, trace, setup_only):
    root = os.getcwd()
    cli = import_cli(root)
    cmds = commands(workload, seed)
    setup_s = time.monotonic() - launch
    if setup_only:
        return {"setup_s": setup_s}

    tracer = None
    if trace:
        wdir = os.path.join(root, OUT_DIR, f"workers-{os.getpid()}")
        os.makedirs(wdir, exist_ok=True)
        tracer = spans.Tracer(wdir)
        tracer.install()

    checker = Checker(workload)
    wall = 0.0
    latencies = []
    kinds = Counter()
    overflow = 0
    for op, (argv, expect) in enumerate(cmds):
        if tracer is not None:
            tracer.op = op
        code, exc, start, end, lines = call(cli.main, argv)
        wall += end - start
        for lat, kind in checker.check(expect, code, exc, start, lines):
            latencies.append(None if lat is None else lat * 1e3)
            kinds[kind] += 1
        del lines  # free the output before the next request
        if exc == "OverflowError" and workload == "eval-stream":
            # the int16 oracle defect of the seed commit, see README.md
            if expect["p"] == 100003 and expect["n"] == 1:
                overflow += 1

    res = {
        "setup_s": setup_s,
        "wall_s": wall,
        "attempted": sum(kinds.values()),
        "failed": sum(v for k, v in kinds.items() if k is not None),
        "incorrect": sum(kinds[k] for k in INCORRECT),
        "kinds": {k: v for k, v in kinds.items() if k is not None},
        "known_overflow": overflow,
        "latency_p50_ms": percentile(latencies, 0.5),
        "latency_p90_ms": percentile(latencies, 0.9),
        "latencies_ms": latencies,
        "peak_rss_mb": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        / 1024,
        "start_method": multiprocessing.get_start_method(),
    }
    if tracer is not None:
        tracer.uninstall()
        got = tracer.collect()
        os.rmdir(tracer.worker_dir)
        path = os.path.join(root, OUT_DIR, f"trace-{workload}-seed{seed}.jsonl.gz")
        with gzip.open(path, "wt", compresslevel=1) as f:
            for s in got:
                f.write(json.dumps(s, separators=(",", ":")) + "\n")
        res["trace_file"] = os.path.relpath(path, root)
        res["layers"] = spans.layer_metrics(got, res["start_method"] == "fork")
    return res


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launch", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    res = run_pass(args.workload, args.seed, args.launch, args.trace, args.setup_only)
    sys.stdout.write(json.dumps(res) + "\n")


if __name__ == "__main__":
    main()
