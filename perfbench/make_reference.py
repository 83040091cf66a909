"""Record the reference outputs the benchmark checks every run against.

    python3 perfbench/make_reference.py

run from the root of an isogauss checkout at the commit whose outputs
are the reference (the benchmark's files were recorded at the seed
commit). Writes perfbench/reference/:

- verify.json: (suite, instance, lhs, rhs) of every report; every
  report must pass.
- eval-values.json: for every (p, n) the eval-stream can draw, the
  12-hex sha256 prefix of "a,b" for every (d, disc, restrict) in the
  order of passes.eval_keys, concatenated. These are the values eval
  prints; the random --matrix requests reuse them through their class.
"""

import json
import os

import passes


def _write(name, obj):
    os.makedirs(passes.REFERENCE, exist_ok=True)
    with open(os.path.join(passes.REFERENCE, name), "w") as f:
        json.dump(obj, f, separators=(",", ":"), sort_keys=True)
        f.write("\n")


def main():
    cli = passes.import_cli(os.getcwd())
    from isogauss import formulas, prime_context

    for workload, argv in passes.VERIFY_ARGS.items():
        code, exc, _, _, lines = passes.call(cli.main, argv)
        if code != 0 or exc is not None:
            raise SystemExit(f"{workload}: exit {code}, exception {exc}")
        reports = [json.loads(text) for text, _ in lines]
        reports = [r for r in reports if "summary" not in r]
        if not all(r["match"] and not r["skipped"] for r in reports):
            raise SystemExit(f"{workload}: not every report passes")
        _write(
            f"{workload}.json",
            {
                "argv": argv,
                "reports": [[r["suite"], r["instance"], r["lhs"], r["rhs"]] for r in reports],
            },
        )
        print(workload, len(reports), "reports")

    values = {}
    for p in passes.EVAL_PRIMES:
        ctx = prime_context(p)
        for n in range(1, passes.EVAL_MAX_N + 1):
            parts = []
            for d, disc, r in passes.eval_keys(n):
                if r is None:
                    v = formulas.thm11_value(ctx, n, d, disc)
                else:
                    v = formulas.prop41_value(ctx, n, d, disc, r)
                parts.append(passes.digest(v.a, v.b))
            values[f"{p},{n}"] = "".join(parts)
    _write("eval-values.json", values)
    print("eval-stream", sum(len(v) // 12 for v in values.values()), "values")


if __name__ == "__main__":
    main()
