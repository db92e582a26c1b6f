"""Command-line verification driver.

Examples:

    superfock-verify --m 4 --n 0 --max-degree 3
    superfock-verify --m 6 --n 1 --suite integral --suite sb --format json --out report.json
    superfock-verify --m 6 --n 1 --trace 2,0,0,0,0,0 --trace-odd 1,2 --rate 4

--out writes what would go to stdout, in every mode, to a file instead.  Exit
code is 0 exactly when no check failed (skips do not fail a run), 1 when one
failed, and 2 when the configuration or the --out path is refused.
"""

from __future__ import annotations

import argparse
import os
import sys

from .verify import ALL_SUITES, RunConfig, report_json, report_text, run_suite


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="superfock-verify",
        description="Run exact verification suites for one configuration (m, n).")
    ap.add_argument("--m", type=int, required=True, help="number of even variables (>= 2)")
    ap.add_argument("--n", type=int, default=0, help="half the number of odd variables")
    ap.add_argument("--max-degree", type=int, default=3,
                    help="degree budget for spanning sets (default 3)")
    ap.add_argument("--suite", action="append", choices=ALL_SUITES, default=None,
                    help="suite to run; may be repeated (default: all)")
    ap.add_argument("--seed", type=int, default=0, help="seed for sampled polynomials")
    ap.add_argument("--out", type=str, default=None,
                    help="write the output to this path instead of stdout")
    ap.add_argument("--format", dest="fmt", choices=("json", "text"), default="text")
    ap.add_argument("--gamma", action="store_true",
                    help="print the normalization constant and exit")
    ap.add_argument("--structure-constants", action="store_true",
                    help="print the TKK structure-constant table as JSON and exit")
    ap.add_argument("--specfun-table", action="store_true",
                    help="print a CSV of special-function values and exit")
    ap.add_argument("--trace", type=str, default=None, metavar="E0,E1,...",
                    help="integrate one monomial (even exponents, comma separated) "
                         "and print per-term JSON trace records")
    ap.add_argument("--trace-odd", type=str, default="",
                    help="odd factors of the traced monomial, e.g. 1,2 for t1*t2")
    ap.add_argument("--rate", type=str, default="4",
                    help="exponential rate for --trace (default 4)")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(m=args.m, n=args.n, max_degree=args.max_degree,
                        suites=tuple(args.suite) if args.suite else ALL_SUITES,
                        seed=args.seed)
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2

    if (args.gamma or args.trace is not None) and cfg.M < 4:
        print(f"the integral needs M >= 4; M = {cfg.M}", file=sys.stderr)
        return 2

    if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        print(f"--out: no directory for {args.out}", file=sys.stderr)
        return 2

    results = None
    if args.gamma:
        from .algebra import Signature
        from .integral import gamma_engine
        text = str(gamma_engine(Signature(cfg.m, cfg.n)))
    elif args.structure_constants:
        from .algebra import Signature
        from .liealg import tkk_for
        text = tkk_for(Signature(cfg.m, cfg.n)).structure_constants_json()
    elif args.specfun_table:
        from .specfun import value_table
        rows = value_table(max(cfg.M - 3, 1), -1.0, [0.5, 1.0, 1.5, 2.0])
        cols = list(rows[0].keys())
        text = "\n".join([",".join(cols)] + [",".join(f"{row[c]:.12g}" for c in cols)
                                              for row in rows])
    elif args.trace is not None:
        import json
        from fractions import Fraction
        from .algebra import Signature, SuperPolynomial
        from .integral import integrate_w
        sig = Signature(cfg.m, cfg.n)
        try:
            ev = tuple(int(t) for t in args.trace.split(","))
            odd = [int(t) for t in args.trace_odd.split(",") if t]
            rate = Fraction(args.rate)
        except (ValueError, ZeroDivisionError) as exc:
            print(f"invalid --trace, --trace-odd or --rate: {exc}", file=sys.stderr)
            return 2
        if len(ev) != cfg.m or min(ev) < 0:
            print(f"--trace needs {cfg.m} nonnegative even exponents", file=sys.stderr)
            return 2
        if any(not 1 <= t <= 2 * cfg.n for t in odd):
            print(f"--trace-odd indices must lie in 1..{2 * cfg.n}", file=sys.stderr)
            return 2
        if rate <= 0:
            print("--rate must be positive", file=sys.stderr)
            return 2
        # the product of the odd factors in the given order: the algebra
        # supplies the reordering sign, and a repeated factor gives zero
        mono = SuperPolynomial.monomial(sig, (ev, ()))
        for t in odd:
            mono = mono * SuperPolynomial.variable(sig, sig.m + t - 1)
        records: list = []
        value = integrate_w(mono, rate, trace=records)
        text = json.dumps({"integrand": str(mono), "rate": args.rate,
                           "value": str(value), "terms": records}, indent=1)
    else:
        results = run_suite(cfg)
        text = report_json(cfg, results) if args.fmt == "json" else report_text(cfg, results)

    if not args.out:
        print(text)
    else:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"--out: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
        if results is None:
            print(f"wrote {args.out}")
        else:
            print(f"wrote {args.out}: {len(results)} checks, "
                  f"{sum(1 for r in results if r.status == 'fail')} failures, "
                  f"{sum(1 for r in results if r.status == 'skip')} skipped")
            for r in results:
                if r.status != "pass":
                    print(f"  [{r.status.upper()}] {r.suite}/{r.name} {r.detail}")
    return 1 if results and any(r.status == "fail" for r in results) else 0


if __name__ == "__main__":
    raise SystemExit(main())
