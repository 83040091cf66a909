"""Spans around isogauss's public functions, and the per-layer metrics
computed from them.

A Tracer wraps each function named in LAYERS and rebinds the wrapper in
every isogauss module that holds the original: the modules call each
other through their own bindings (oracle calls its imported
classify_batch, formulas calls counts.qfunc through the module), so
patching only the defining module would miss most calls.

Spans stay in memory until the pass ends. Pool workers forked while
tracing is on inherit the wrappers; each worker appends its spans,
marked worker-side, to a file of its own, and collect() merges those
files into the parent's list. Worker spans are never subtracted from a
parent span's self time. Under any start method other than fork the
workers run unwrapped, so the worker-side metrics are reported as
missing (None), never as zero.
"""

import json
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = {
    "field": ("prime_context",),
    "cyclotomic": ("g_star_one", "embed", "cyc_mul"),
    "quadform": ("classify_batch", "classify"),
    "counts": ("qfunc", "orth_order", "iso_count", "rep_star_lemma51"),
    "formulas": ("thm11_value", "prop41_value", "cor12_check", "lemma54_sum"),
    "oracle": (
        "class_character_tables",
        "rep_count_bf",
        "iso_subspaces_bf",
        "gauss_untwisted_bf",
    ),
    "verify": ("run_suite",),
    "cli": ("main",),
}

TRACED = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def _cell(args):
    return {"p": args[0].p, "n": len(args[1][0])}


def _batch(args):
    shape = args[1].shape
    return {"p": args[0].p, "n": int(shape[1]), "matrices": int(shape[0])}


# sizes recorded at the call boundary, where the work is known
_BEFORE = {
    "field.prime_context": lambda args: {"p": args[0]},
    "cyclotomic.g_star_one": lambda args: {"p": args[0].p},
    "quadform.classify_batch": _batch,
    "oracle.class_character_tables": _cell,
}


class Tracer:
    def __init__(self, worker_dir):
        self.worker_dir = worker_dir
        self.op = None
        self._records = []
        self._pid = os.getpid()
        self._worker = False
        self._stack = []
        self._inherited_parent = None
        self._next = 0
        self._sink = None
        self._installed = []  # (module, attribute, original)
        self._budget_exceeded = None

    # -- installation ---------------------------------------------------

    def install(self):
        import isogauss.oracle

        self._budget_exceeded = isogauss.oracle.BudgetExceeded
        mods = [
            m
            for k, m in sorted(sys.modules.items())
            if m is not None and (k == "isogauss" or k.startswith("isogauss."))
        ]
        for name in TRACED:
            mod, fn = name.split(".")
            orig = getattr(sys.modules[f"isogauss.{mod}"], fn)
            wrapper = self._wrap(name, orig)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._installed.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._installed):
            setattr(m, attr, orig)
        self._installed = []

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer._call(name, fn, args, kwargs)

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- recording ------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        if os.getpid() != self._pid:
            self._enter_worker()
        hook = _BEFORE.get(name)
        attrs = hook(args) if hook else None
        sid = self._next
        self._next = sid + 1
        stack = self._stack
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            end = perf_counter()
            stack.pop()
            if name == "oracle.class_character_tables":
                attrs["refused"] = isinstance(exc, self._budget_exceeded)
            self._record((sid, name, start, end, parent, self.op, type(exc).__name__, attrs))
            raise
        end = perf_counter()
        stack.pop()
        if name == "verify.run_suite":
            attrs = {"reports": len(result), "elapsed": sum(r.elapsed for r in result)}
        self._record((sid, name, start, end, parent, self.op, None, attrs))
        return result

    def _record(self, rec):
        if self._worker:
            self._sink.write(json.dumps(self._span(rec)) + "\n")
            self._sink.flush()
        else:
            self._records.append(rec)

    def _span(self, rec):
        sid, name, start, end, parent, op, error, attrs = rec
        span = {
            "id": f"{self._pid}.{sid}",
            "name": name,
            "start": start,
            "end": end,
            "parent": self._inherited_parent if parent is None else f"{self._pid}.{parent}",
            "op": op,
            "pid": self._pid,
            "worker": self._worker,
            "error": error,
        }
        if attrs:
            span.update(attrs)
        return span

    def _enter_worker(self):
        # first traced call in a forked pool worker: the stack copied at
        # fork time belongs to the parent, its top is the span that
        # started the pool
        if self._stack:
            self._inherited_parent = f"{self._pid}.{self._stack[-1]}"
        self._stack = []
        self._records = []
        self._pid = os.getpid()
        self._worker = True
        self._sink = open(
            os.path.join(self.worker_dir, f"worker-{self._pid}.jsonl"), "a"
        )

    def collect(self):
        """Every span as a dict, the worker files merged in and removed."""
        spans = [self._span(rec) for rec in self._records]
        for fname in sorted(os.listdir(self.worker_dir)):
            if fname.startswith("worker-") and fname.endswith(".jsonl"):
                path = os.path.join(self.worker_dir, fname)
                with open(path) as f:
                    spans.extend(json.loads(line) for line in f if line.strip())
                os.remove(path)
        return spans


# -- analysis -------------------------------------------------------------


def self_times(spans):
    """Span id -> duration minus the part covered by its child spans.

    Only children in the same process count; worker-side spans overlap
    their parent in wall time but are not part of its own work.
    """
    by_id = {s["id"]: s for s in spans}
    kids = defaultdict(list)
    for s in spans:
        par = by_id.get(s["parent"])
        if par is not None and par["pid"] == s["pid"]:
            kids[par["id"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in sorted(kids[s["id"]]):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (hi - lo) - covered
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, fork):
    """Per-layer metrics as {name: (value, unit)}.

    calls and self_s count parent-side spans only. The classify_batch
    worker_* numbers, and matrices, matrices_per_s and reclassify_ratio
    (which add both sides), are None when fork is False. A ratio whose
    base is zero, because the layer did no work, is 0.
    """
    selft = self_times(spans)
    main = defaultdict(list)
    work = defaultdict(list)
    for s in spans:
        (work if s["worker"] else main)[s["name"]].append(s)

    out = {}
    for name in TRACED:
        out[f"{name}.calls"] = (len(main[name]), "count")
        out[f"{name}.self_s"] = (sum(selft[s["id"]] for s in main[name]), "s")

    for name in ("field.prime_context", "cyclotomic.g_star_one"):
        ps = {s["p"] for s in main[name]}
        out[f"{name}.rebuild_ratio"] = (_ratio(len(main[name]), len(ps)), "ratio")

    cb = "quadform.classify_batch"
    if fork:
        done = [s for s in main[cb] + work[cb] if s["error"] is None]
        matrices = sum(s["matrices"] for s in done)
        busy = sum(selft[s["id"]] for s in done)
        cells = {(s["p"], s["n"]) for s in done}
        distinct = sum(p ** (n * (n + 1) // 2) for p, n in cells)
        out[f"{cb}.worker_calls"] = (len(work[cb]), "count")
        out[f"{cb}.worker_self_s"] = (sum(selft[s["id"]] for s in work[cb]), "s")
        out[f"{cb}.matrices"] = (matrices, "count")
        out[f"{cb}.matrices_per_s"] = (_ratio(matrices, busy), "1/s")
        out[f"{cb}.reclassify_ratio"] = (_ratio(matrices, distinct), "ratio")
    else:
        out[f"{cb}.worker_calls"] = (None, "count")
        out[f"{cb}.worker_self_s"] = (None, "s")
        out[f"{cb}.matrices"] = (None, "count")
        out[f"{cb}.matrices_per_s"] = (None, "1/s")
        out[f"{cb}.reclassify_ratio"] = (None, "ratio")

    cct = "oracle.class_character_tables"
    done = [s for s in main[cct] if s["error"] is None]
    terms = sum(s["p"] ** (s["n"] * (s["n"] + 1) // 2) for s in done)
    out[f"{cct}.terms"] = (terms, "count")
    out[f"{cct}.terms_per_s"] = (
        _ratio(terms, sum(s["end"] - s["start"] for s in done)),
        "1/s",
    )
    out[f"{cct}.refused"] = (sum(1 for s in main[cct] if s.get("refused")), "count")

    suites = [s for s in main["verify.run_suite"] if s["error"] is None]
    out["verify.reports"] = (sum(s["reports"] for s in suites), "count")
    out["verify.elapsed_coverage"] = (
        _ratio(
            sum(s["elapsed"] for s in suites),
            sum(s["end"] - s["start"] for s in suites),
        ),
        "ratio",
    )
    return out
