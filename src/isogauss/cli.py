"""Command-line front end.

Three subcommands: eval (one value, with oracle cross-check), table
(closed-form values over classes), verify (identity suites). Exit
codes: 0 success or oracle-skipped, 1 mismatch, 2 usage error. JSON
output carries big integers as decimal strings.
"""

import argparse
import json
import sys
from itertools import islice

import numpy as np

from . import formulas, oracle, verify
from .cyclotomic import g_star_shape, g_star_values
from .field import prime_context
from .oracle import Budget, BudgetExceeded
from .quadform import NONSQ, SQ, FormClass, all_classes, canonical_matrix, classify, sym_matrix

_DISC_NAMES = {SQ: "sq", NONSQ: "nonsq"}
_DISC_VALUES = {"sq": SQ, "nonsq": NONSQ}
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


def _embedding_items(first, rest, mask) -> list:
    """The embedding's p - 1 coefficients as quoted JSON strings: first on
    zeta^0, rest where mask holds, 0 elsewhere. The items are three
    shared string objects, so no coefficient is converted on its own."""
    texts = np.array(['"0"', f'"{rest}"', f'"{first}"'], object)
    # index 2 marks zeta^0; take copies references, not strings
    return texts.take(np.concatenate(([2], mask.view(np.int8)))).tolist()


def _is_embedding(coords, first, rest, mask) -> bool:
    """Whether the int64 coordinates equal first on zeta^0, rest where mask
    holds and 0 elsewhere, exactly. A value past int64 cannot match."""
    if not (_INT64.min <= first <= _INT64.max and _INT64.min <= rest <= _INT64.max):
        return False
    return int(coords[0]) == first and np.array_equal(
        coords[1:], np.where(mask, np.int64(rest), np.int64(0))
    )


def _add_list(pieces, key, items):
    """Append `"key": [items...]` to pieces, as pieces of a ", " join;
    items are JSON texts, at least two of them."""
    pieces.append(f'"{key}": [{items[0]}')
    pieces.extend(islice(items, 1, len(items) - 1))
    pieces.append(f"{items[-1]}]")


def cmd_eval(args) -> int:
    ctx = _context(args.p)
    budget = _budget(args)
    _check_jobs(args)  # large cells recurse on dimension, no pool
    if args.matrix is not None:
        mat = _parse_matrix(ctx, args.matrix)
        cls = classify(ctx, mat)
    else:
        if args.n is None or args.rank is None:
            raise UsageError("need --matrix or both --n and --rank")
        disc = _DISC_VALUES[args.disc]
        if args.n < 1 or not 0 <= args.rank <= args.n:
            raise UsageError("need n >= 1 and 0 <= rank <= n")
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
    digits = len(str(max(abs(first), abs(rest))))
    if (ctx.p - 1) * digits > MAX_EMBEDDING_DIGITS:
        raise UsageError(
            f"the embedding's {ctx.p - 1} coefficients of up to {digits} digits "
            f"exceed {MAX_EMBEDDING_DIGITS} digits"
        )
    mask = g_star_shape(ctx)[2]
    emb = _embedding_items(first, rest, mask)
    # the line is json.dumps of one dict, built from pieces so that the
    # embedding's items are joined once, in C
    head = json.dumps({
        "p": ctx.p,
        "n": cls.n,
        "d": cls.d,
        "disc": _DISC_NAMES[cls.disc],
        "restrict": r,
        "value": value.to_json(),
    })
    pieces = [head[:-1]]
    _add_list(pieces, "embedding", emb)
    try:
        orc = oracle.signed_coords(ctx, mat, cls.n if r is None else r, budget)
    except BudgetExceeded as e:
        tail = {"oracle": None, "match": None, "skipped": str(e)}
        code = 0
    else:
        match = _is_embedding(orc, first, rest, mask)
        # equal coefficients print alike: reuse the embedding's items
        _add_list(pieces, "oracle", emb if match else [f'"{x}"' for x in orc.tolist()])
        tail = {"match": match}
        code = 0 if match else 1
    pieces.append(json.dumps(tail)[1:])
    print(", ".join(pieces))
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
                    "disc": _DISC_NAMES[cls.disc],
                    "r": r,
                    "a": str(v.a),
                    "b": str(v.b),
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


def cmd_verify(args) -> int:
    if args.suites == "all":
        names = list(verify.SUITES)
    else:
        names = [s.strip() for s in args.suites.split(",") if s.strip()]
        for s in names:
            if s not in verify.SUITES:
                raise UsageError(f"unknown suite {s!r}")
    primes = None
    if args.primes is not None:
        try:
            primes = [int(x) for x in args.primes.split(",") if x.strip()]
        except ValueError:
            raise UsageError("--primes must be a comma-separated integer list")
        for p in primes:
            _context(p)
    budget = _budget(args)
    _check_jobs(args)  # no suite starts a pool
    passed = failed = skipped = 0
    for name in names:
        reports = verify.run_suite(name, primes=primes, max_n=args.max_n, budget=budget)
        for rep in reports:
            if rep.skipped:
                skipped += 1
            elif rep.match:
                passed += 1
            else:
                failed += 1
            if args.format == "json":
                print(json.dumps(rep.to_json()))
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
        print(json.dumps({"summary": summary}))
    else:
        print(f"passed {passed} failed {failed} skipped {skipped}")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isogauss",
        description="Exact twisted Gauss sums of symmetric matrix arguments",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    pe = sub.add_parser("eval", help="evaluate one class, cross-check the oracle")
    pe.add_argument("--p", type=int, required=True)
    pe.add_argument("--matrix", type=str, help="symmetric matrix as JSON rows")
    pe.add_argument("--n", type=int)
    pe.add_argument("--rank", type=int)
    pe.add_argument("--disc", choices=("sq", "nonsq"), default="sq")
    pe.add_argument("--restrict", type=int, default=None)
    pe.add_argument("--max-terms", type=int, default=None)
    pe.add_argument("--jobs", type=int, default=None)
    pe.set_defaults(func=cmd_eval)

    pt = sub.add_parser("table", help="closed-form values over all classes")
    pt.add_argument("--p", type=int, required=True)
    pt.add_argument("--max-n", type=int, required=True)
    pt.add_argument("--format", choices=("json", "csv", "text"), default="text")
    pt.add_argument("--restrict-all", action="store_true")
    pt.set_defaults(func=cmd_table)

    pv = sub.add_parser("verify", help="run identity suites")
    pv.add_argument("--suites", type=str, default="all")
    pv.add_argument("--primes", type=str, default=None)
    pv.add_argument("--max-n", type=int, default=None)
    pv.add_argument("--format", choices=("json", "csv", "text"), default="text")
    pv.add_argument("--max-terms", type=int, default=None)
    pv.add_argument("--jobs", type=int, default=None)
    pv.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
