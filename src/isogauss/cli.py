"""Command-line front end.

Three subcommands: eval (one value, with oracle cross-check), table
(closed-form values over classes), verify (identity suites). Exit
codes: 0 success or oracle-skipped, 1 mismatch, 2 usage error. JSON
output carries big integers as decimal strings.

Each subcommand and its options are declared once, in _COMMANDS. A
plain command line (a known subcommand, then exact --option value
pairs and store_true flags whose values pass their type and choices,
every required option present) is read from that table by _plain_args
and builds no parser. Every other command line falls back to argparse
(build_parser, from the same table), which prints the help and every
parse error as it always has.
"""

import argparse
import json
import sys
from functools import lru_cache

import numpy as np

from . import formulas, oracle, verify
from .cyclotomic import g_star_shape, g_star_values
from .field import prime_cache, prime_context
from .oracle import Budget, BudgetExceeded
from .quadform import NONSQ, SQ, FormClass, all_classes, canonical_matrix, classify, sym_matrix

_INT64 = np.iinfo(np.int64)

# eval refuses an embedding whose p - 1 coefficients times the digits of
# the largest one exceed this: about 67 M, against 30.6 M for the largest
# request of perfbench's eval-stream and 36.1 M for any at p = 100003
# with n <= 12
MAX_EMBEDDING_DIGITS = 1 << 26


class UsageError(Exception):
    pass


def _budget(args) -> Budget:
    if getattr(args, "max_terms", None) is not None:
        if args.max_terms <= 0:
            raise UsageError("--max-terms must be positive")
        return Budget(max_terms=args.max_terms)
    try:
        return Budget()
    except ValueError as e:  # a malformed ISOGAUSS_MAX_TERMS
        raise UsageError(str(e))


def _decimal(v: int) -> str:
    """str(v), refused with UsageError past Python's int-to-str limit."""
    try:
        return str(v)
    except ValueError:  # the only ValueError str() raises on an int
        raise UsageError(
            f"a value has more than {sys.get_int_max_str_digits()} digits, "
            "Python's limit for converting an int to str"
        ) from None


def _check_jobs(args):
    if args.jobs is not None and args.jobs < 1:
        raise UsageError("--jobs must be at least 1")


def _context(p: int):
    try:
        return prime_context(p)
    except ValueError as e:
        raise UsageError(str(e))


def _parse_matrix(ctx, text):
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as e:
        raise UsageError(f"malformed matrix JSON: {e}")
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise UsageError("matrix must be a nonempty list of rows")
    # type(), not isinstance(): JSON true/false arrive as bool, an int subclass
    if not all(type(x) is int for row in rows for x in row):
        raise UsageError("matrix entries must be integers")
    try:
        return sym_matrix(ctx, rows)
    except ValueError as e:
        raise UsageError(str(e))


@prime_cache
def _zero_gaps(ctx):
    """(lead, gaps, trail): the JSON text around the rest items of an
    irrational value's embedding list (rest != 0), whose items are first
    on zeta^0, rest where g*'s mask holds and "0" elsewhere. lead runs
    from after first up to the first rest, gaps[i] from rest i to rest
    i + 1, and trail from the last rest through the closing bracket;
    g*'s mask holds for (p-1)/2 > 0 exponents. Equal runs of zeros share
    one string, so the gaps tuple costs about 4p bytes of references.
    Built once per prime and shared, hence a tuple."""
    idx = np.flatnonzero(g_star_shape(ctx)[2])
    runs, which = np.unique(np.diff(idx) - 1, return_inverse=True)
    texts = np.array([", " + '"0", ' * k for k in runs.tolist()], object)
    lead = ", " + '"0", ' * int(idx[0])
    trail = ', "0"' * (ctx.p - 3 - int(idx[-1])) + "]"
    return lead, tuple(texts.take(which).tolist()), trail


@prime_cache
def _zero_tail(ctx):
    """The JSON text after first in a rational value's embedding list
    (rest = 0): "0" on each of zeta^1..zeta^(p-2), then the closing
    bracket, 5(p-2) + 1 bytes. Built once per prime and shared, so a
    rational request allocates nothing beside its line."""
    return ', "0"' * (ctx.p - 2) + "]"


def _eval_line(ctx, head: dict, first: int, rest: int, tail: dict, oracle_too: bool) -> str:
    """json.dumps of head, then "embedding" (first on zeta^0, rest where
    g*'s mask holds, 0 elsewhere, as decimal strings), then the same
    list as "oracle" if oracle_too, then tail; head and tail are
    nonempty. One join writes the line, so no coefficient is converted
    on its own and the finished line is never copied. A rational value
    (rest = 0) joins at most five pieces around the prime's cached zero
    tail and reads no mask. Otherwise the separator is rest's quoted
    text and the pieces are the cached gaps."""
    opening = f'{json.dumps(head)[:-1]}, "embedding": ["{first}"'
    closing = f", {json.dumps(tail)[1:]}"
    if rest == 0:
        zeros = _zero_tail(ctx)
        if oracle_too:
            return "".join((opening, zeros, f', "oracle": ["{first}"', zeros, closing))
        return "".join((opening, zeros, closing))
    lead, gaps, trail = _zero_gaps(ctx)
    opening, closing = opening + lead, trail + closing
    if oracle_too:
        pieces = [opening, *gaps, f'{trail}, "oracle": ["{first}"{lead}', *gaps, closing]
    else:
        pieces = [opening, *gaps, closing]
    return f'"{rest}"'.join(pieces)


def _is_embedding(ctx, coords, first, rest) -> bool:
    """Whether the int64 coordinates equal first on zeta^0, rest where
    g*'s mask holds and 0 elsewhere, exactly. A value past int64 cannot
    match. A rational value (rest = 0) reads no mask: every coordinate
    after zeta^0 must be 0."""
    if not (_INT64.min <= first <= _INT64.max and _INT64.min <= rest <= _INT64.max):
        return False
    if rest == 0:
        return int(coords[0]) == first and not coords[1:].any()
    return int(coords[0]) == first and np.array_equal(
        coords[1:], np.where(g_star_shape(ctx)[2], np.int64(rest), np.int64(0))
    )


def cmd_eval(args) -> int:
    ctx = _context(args.p)
    budget = _budget(args)
    _check_jobs(args)  # no pool: a large cell classifies only T, a small one serially
    if args.matrix is not None:
        # the matrix fixes its class: a class option beside it would go unread
        given = (("--n", args.n), ("--rank", args.rank), ("--disc", args.disc))
        extra = [flag for flag, value in given if value is not None]
        if extra:
            raise UsageError(f"--matrix takes no {', '.join(extra)}")
        mat = _parse_matrix(ctx, args.matrix)
        cls = classify(ctx, mat)
    else:
        if args.n is None or args.rank is None:
            raise UsageError("need --matrix or both --n and --rank")
        if args.n < 1 or not 0 <= args.rank <= args.n:
            raise UsageError("need n >= 1 and 0 <= rank <= n")
        disc = SQ if args.disc is None else args.disc
        if args.rank == 0 and disc == NONSQ:
            raise UsageError("rank 0 has no nonsquare class")
        cls = FormClass(args.n, args.rank, disc)
        mat = canonical_matrix(ctx, cls)
    r = args.restrict
    if r is not None and not 0 <= r <= cls.n:
        raise UsageError("--restrict must lie between 0 and n")
    try:
        if r is None:
            value = formulas.thm11_value(ctx, cls.n, cls.d, cls.disc)
        else:
            value = formulas.prop41_value(ctx, cls.n, cls.d, cls.disc, r)
    except ValueError as e:
        raise UsageError(str(e))
    # the embedding a + b*g* is first on zeta^0 and rest or 0 elsewhere
    g0, c = g_star_values(ctx)
    first, rest = value.a + value.b * g0, value.b * c
    value_json = {"a": _decimal(value.a), "b": _decimal(value.b)}
    digits = len(_decimal(max(abs(first), abs(rest))))
    if (ctx.p - 1) * digits > MAX_EMBEDDING_DIGITS:
        raise UsageError(
            f"the embedding's {ctx.p - 1} coefficients of up to {digits} digits "
            f"exceed {MAX_EMBEDDING_DIGITS} digits"
        )
    head = {
        "p": ctx.p,
        "n": cls.n,
        "d": cls.d,
        "disc": cls.disc,
        "restrict": r,
        "value": value_json,
    }
    try:
        orc = oracle.signed_coords(ctx, mat, cls.n if r is None else r, budget)
    except BudgetExceeded as e:
        tail = {"oracle": None, "match": None, "skipped": str(e)}
        match = False
        code = 0
    else:
        match = _is_embedding(ctx, orc, first, rest)
        if match:  # equal coefficients print alike: reuse the embedding's text
            tail = {"match": True}
        else:
            tail = {"oracle": [str(x) for x in orc.tolist()], "match": False}
        code = 0 if match else 1
    print(_eval_line(ctx, head, first, rest, tail, match))
    return code


def _table_rows(ctx, max_n, restrict_all):
    for n in range(1, max_n + 1):
        for cls in all_classes(n):
            if cls.d == 0:
                continue
            if restrict_all:
                rs = range(0, n + 1)
            else:
                rs = (n,)
            for r in rs:
                if r == n and not restrict_all:
                    v = formulas.thm11_value(ctx, cls.n, cls.d, cls.disc)
                else:
                    v = formulas.prop41_value(ctx, cls.n, cls.d, cls.disc, r)
                yield {
                    "p": ctx.p,
                    "n": cls.n,
                    "d": cls.d,
                    "disc": cls.disc,
                    "r": r,
                    "a": _decimal(v.a),
                    "b": _decimal(v.b),
                }


def cmd_table(args) -> int:
    ctx = _context(args.p)
    if args.max_n < 1:
        raise UsageError("--max-n must be at least 1")
    rows = list(_table_rows(ctx, args.max_n, args.restrict_all))
    if args.format == "json":
        print(json.dumps(rows))
    elif args.format == "csv":
        print("p,n,d,disc,r,a,b")
        for row in rows:
            print(",".join(str(row[k]) for k in ("p", "n", "d", "disc", "r", "a", "b")))
    else:
        for row in rows:
            print(
                f"p={row['p']} n={row['n']} d={row['d']} disc={row['disc']} "
                f"r={row['r']} value={row['a']}+{row['b']}g"
            )
    return 0


def _inst_str(inst):
    return " ".join(f"{k}={v}" for k, v in inst.items())


def _check_distinct(option, entries):
    for i, e in enumerate(entries):
        if e in entries[:i]:
            raise UsageError(f"{option} names {e!r} twice")


def cmd_verify(args) -> int:
    if args.suites == "all":
        names = list(verify.SUITES)
    else:
        names = [s.strip() for s in args.suites.split(",") if s.strip()]
        if not names:
            raise UsageError("--suites must name at least one suite")
        for s in names:
            if s not in verify.SUITES:
                raise UsageError(f"unknown suite {s!r}")
        _check_distinct("--suites", names)
    primes = None
    if args.primes is not None:
        try:
            primes = [int(x) for x in args.primes.split(",") if x.strip()]
        except ValueError:
            raise UsageError("--primes must be a comma-separated integer list")
        if not primes:
            raise UsageError("--primes must list at least one prime")
        _check_distinct("--primes", primes)
        for p in primes:
            _context(p)
    if args.max_n is not None and args.max_n < 0:
        raise UsageError("--max-n must be at least 0")
    budget = _budget(args)
    _check_jobs(args)  # no suite starts a pool
    passed = failed = skipped = 0
    for name in names:
        # each report prints as soon as its check ends
        for rep in verify.iter_suite(name, primes=primes, max_n=args.max_n, budget=budget):
            if rep.skipped:
                skipped += 1
            elif rep.match:
                passed += 1
            else:
                failed += 1
            if args.format == "json":
                # one write per line: print writes the text and "\n" apart
                sys.stdout.write(json.dumps(rep.to_json()) + "\n")
            elif args.format == "csv":
                print(
                    f"{rep.suite},{_inst_str(rep.instance).replace(' ', ';')},"
                    f"\"{rep.lhs}\",\"{rep.rhs}\",{rep.match},{rep.skipped},"
                    f"{rep.elapsed:.6f}"
                )
            else:
                tag = "SKIP" if rep.skipped else ("PASS" if rep.match else "FAIL")
                line = f"[{tag}] {rep.suite} {_inst_str(rep.instance)}"
                if rep.skipped:
                    line += f" ({rep.reason})"
                elif not rep.match:
                    line += f" lhs={rep.lhs} rhs={rep.rhs}"
                print(line)
    summary = {"passed": passed, "failed": failed, "skipped": skipped}
    if args.format == "json":
        sys.stdout.write(json.dumps({"summary": summary}) + "\n")
    else:
        print(f"passed {passed} failed {failed} skipped {skipped}")
    return 0 if failed == 0 else 1


# each subcommand declared once: (help line, handler, (flag, argparse
# keyword arguments) pairs). build_parser and _plain_args both read it
_COMMANDS = {
    "eval": (
        "evaluate one class, cross-check the oracle",
        cmd_eval,
        (
            ("--p", {"type": int, "required": True}),
            ("--matrix", {"type": str, "help": "symmetric matrix as JSON rows"}),
            ("--n", {"type": int}),
            ("--rank", {"type": int}),
            ("--disc", {"choices": (SQ, NONSQ), "default": None}),
            ("--restrict", {"type": int, "default": None}),
            ("--max-terms", {"type": int, "default": None}),
            ("--jobs", {"type": int, "default": None}),
        ),
    ),
    "table": (
        "closed-form values over all classes",
        cmd_table,
        (
            ("--p", {"type": int, "required": True}),
            ("--max-n", {"type": int, "required": True}),
            ("--format", {"choices": ("json", "csv", "text"), "default": "text"}),
            ("--restrict-all", {"action": "store_true"}),
        ),
    ),
    "verify": (
        "run identity suites",
        cmd_verify,
        (
            ("--suites", {"type": str, "default": "all"}),
            ("--primes", {"type": str, "default": None}),
            ("--max-n", {"type": int, "default": None}),
            ("--format", {"choices": ("json", "csv", "text"), "default": "text"}),
            ("--max-terms", {"type": int, "default": None}),
            ("--jobs", {"type": int, "default": None}),
        ),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isogauss",
        description="Exact twisted Gauss sums of symmetric matrix arguments",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (help_line, handler, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_line)
        for flag, kwargs in options:
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(func=handler)
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # built once per process: building costs far more than a parse
    return build_parser()


def _plain_args(argv):
    """The argparse.Namespace that _parser().parse_args(argv) returns,
    read from _COMMANDS without building or running argparse, for a
    plain command line: a known command, then exact --option value pairs
    and store_true flags. Each value goes through its option's type and
    choices, the last repeat of an option wins and every required option
    must be present. Anything else returns None and is left to argparse,
    which prints the help or the error: no command or an unknown one, an
    unknown option, -h or --help, an abbreviation, --option=value, a
    missing value or one that starts with "-", a value that fails its
    type or choices, a missing required option."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, options = _COMMANDS[argv[0]]
    spec = dict(options)
    given = {}
    rest = iter(argv[1:])
    for flag in rest:
        kwargs = spec.get(flag)
        if kwargs is None:
            return None
        if kwargs.get("action") == "store_true":
            given[flag] = True
            continue
        text = next(rest, None)
        if text is None or text.startswith("-"):
            return None
        convert = kwargs.get("type")
        try:
            value = text if convert is None else convert(text)
        except (TypeError, ValueError):
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[flag] = value
    values = {"cmd": argv[0]}
    for flag, kwargs in options:
        if flag not in given and kwargs.get("required"):
            return None
        flag_default = False if kwargs.get("action") == "store_true" else None
        values[flag[2:].replace("-", "_")] = given.get(flag, kwargs.get("default", flag_default))
    return argparse.Namespace(func=handler, **values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a plain command line builds no parser; argparse reads the rest
    args = _plain_args(argv) or _parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
