"""Command-line front end.

Subcommands: expand, coeff, oracle, verify-identity, verify-theorem,
verify-all, scan, bench.  Exit codes: 0 all requested checks passed,
1 at least one FAIL, 2 usage or parse error.  Output on stdout is
byte-deterministic for fixed inputs; timings go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import identities, partitions, theorems
from .partitions import FAMILIES
from .products import FQuotientSpec, cubic_theta_alpha, fquotient, h_level12
from .series import SeriesError

DEFAULTS_TABLE = """\
defaults
  exact identity order        300
  modular identity order      1000
  gamma0_28_decomposition     through q^130 (150 coefficients above valuation -20)
  claim n_max                 b-27n16-mod3: 400, altsum-9n-mod3: 300,
                              altsum-prime-mod3: 1, altsum-prime-mod9: 2,
                              pentweight-81n70-mod9: 150,
                              hexweight-49n-mod7: 150, hexweight-343n-mod7: 25
  sampled primes              7, 11, 19, 23
  scan caps                   stride <= 60, n_max >= 50
  QCONG_THREADS               validated, no effect (verification is serial)
"""


class SpecParseError(Exception):
    def __init__(self, message, pos):
        super().__init__(message)
        self.pos = pos


def parse_quotient(text):
    """Parse a quotient spec like ``5*q^2*f2^4/(f1^2*f4^3)``.

    Grammar: a product of integer scalars, q^e shifts and f<d>^<e> terms,
    with at most one fraction bar whose denominator may be parenthesized.
    Returns (scalar, FQuotientSpec).
    """
    i = 0
    n = len(text)
    scalar = 1
    factors = {}
    qshift = 0
    sign = 1  # +1 numerator, -1 denominator
    seen_bar = False

    def skip_ws():
        nonlocal i
        while i < n and text[i].isspace():
            i += 1

    def read_int():
        nonlocal i
        start = i
        if i < n and text[i] == '-':
            i += 1
        while i < n and text[i].isdigit():
            i += 1
        if i == start or text[start:i] == '-':
            raise SpecParseError("expected an integer", start)
        return int(text[start:i])

    def read_exponent():
        nonlocal i
        if i < n and text[i] == '^':
            i += 1
            return read_int()
        return 1

    def read_atom(sgn):
        nonlocal i, scalar, qshift
        skip_ws()
        if i >= n:
            raise SpecParseError("expected a factor", i)
        ch = text[i]
        if ch == 'f':
            i += 1
            d = read_int()
            if d < 1:
                raise SpecParseError("f-index must be positive", i - 1)
            e = read_exponent()
            factors[d] = factors.get(d, 0) + sgn * e
        elif ch == 'q':
            i += 1
            qshift += sgn * read_exponent()
        elif ch.isdigit() or ch == '-':
            c = read_int()
            if sgn == 1:
                scalar *= c
            elif c in (1, -1):
                scalar *= c
            else:
                raise SpecParseError("integer scalars are only allowed in the "
                                     "numerator", i - 1)
        else:
            raise SpecParseError(f"unexpected character {ch!r}", i)

    def read_product(sgn, stop_at_paren=False):
        nonlocal i
        read_atom(sgn)
        while True:
            skip_ws()
            if i >= n:
                return
            if text[i] == '*':
                i += 1
                read_atom(sgn)
            elif stop_at_paren and text[i] == ')':
                return
            elif text[i] == '/':
                return
            else:
                raise SpecParseError(f"unexpected character {text[i]!r}", i)

    read_product(1)
    skip_ws()
    if i < n and text[i] == '/':
        seen_bar = True
        i += 1
        skip_ws()
        if i < n and text[i] == '(':
            i += 1
            read_product(-1, stop_at_paren=True)
            skip_ws()
            if i >= n or text[i] != ')':
                raise SpecParseError("unclosed parenthesis", i)
            i += 1
        else:
            read_atom(-1)
    skip_ws()
    if i < n:
        msg = "only one fraction bar is allowed" if text[i] == '/' and seen_bar \
            else f"unexpected character {text[i]!r}"
        raise SpecParseError(msg, i)
    return scalar, FQuotientSpec.of(factors, qshift)


def _series_for(args, order):
    if args.spec is not None:
        scalar, spec = parse_quotient(args.spec)
        s = fquotient(spec, max(order, spec.qshift), args.mod)
        return s.scale(scalar) if scalar != 1 else s
    name = args.name
    if name in FAMILIES:
        return fquotient(FAMILIES[name].gf, order, args.mod)
    if name == "alpha":
        return cubic_theta_alpha(order, args.mod)
    if name == "h":
        return h_level12(max(order, 1), args.mod)
    raise KeyError(name)


def _name_error(name, available):
    print(f"unknown name {name!r}; available: {', '.join(available)}",
          file=sys.stderr)
    return 2


def cmd_expand(args):
    s = _series_for(args, args.order)
    for e in range(s.v, min(s.known_through, args.order) + 1):
        print(f"{e}\t{s.coeff(e)}")
    return 0


def cmd_coeff(args):
    s = _series_for(args, args.n)
    print(s.coeff(args.n))
    return 0


def cmd_oracle(args):
    table = partitions.count_family(args.family, args.n)
    if args.table:
        for n, v in enumerate(table):
            print(f"{n}\t{v}")
    else:
        print(table[args.n])
    return 0


def cmd_verify_identity(args):
    if args.all:
        entries = list(identities.registry())
    else:
        try:
            entries = [identities.get(args.name)]
        except KeyError:
            return _name_error(args.name, identities.names())
    _check_threads_env()
    reports = [identities.verify(e, args.order) for e in entries]
    if args.json:
        print(json.dumps([vars(r) for r in reports], indent=2))
    else:
        for r in reports:
            print(r)
        npass = sum(r.passed for r in reports)
        print(f"{npass}/{len(reports)} identities verified")
    return 0 if all(r.passed for r in reports) else 1


SIMPLE_CHECKS = {
    "b-2n1-mod2": (2, 1, 2, 2000),
    "b-5n4-mod5": (5, 4, 5, 2000),
}


def theorem_names():
    return list(SIMPLE_CHECKS) + theorems.claim_names()


def cmd_verify_theorem(args):
    catalog = theorem_names()
    if not args.all and args.name not in catalog:
        return _name_error(args.name, catalog)

    primes = None
    if args.primes:
        try:
            primes = tuple(int(p) for p in args.primes.split(","))
        except ValueError:
            print(f"--primes must be a comma-separated integer list, "
                  f"got {args.primes!r}", file=sys.stderr)
            return 2
        bad = [p for p in primes
               if any(p % d == 0 for d in range(2, p)) or p < 5]
        if bad:
            print(f"--primes entries must be primes >= 5, got {bad}",
                  file=sys.stderr)
            return 2
    _check_threads_env()
    return verify_theorems(catalog if args.all else [args.name], args.nmax,
                           primes, args.json)


def verify_theorems(selected, n_max=None, primes=None, as_json=False):
    """Check the named congruence families and print their reports; the
    exit code is 0 if all pass, else 1."""
    reports = [theorems.verify_simple(A, r, m, n_max or nmax)
               for s, (A, r, m, nmax) in SIMPLE_CHECKS.items() if s in selected]
    weighted = [c for c in theorems.default_claims() if c.name in selected]
    if primes:
        weighted = [_with_primes(c, primes) for c in weighted]
    if weighted:
        reports.extend(theorems.run_claims(
            weighted, n_max=n_max, out=None if as_json else print))
    if as_json:
        print(json.dumps([_report_dict(r) for r in reports], indent=2))
    else:
        for r in reports:
            print(r)
    return 0 if all(r.passed for r in reports) else 1


def _with_primes(claim, primes):
    if claim.name == "altsum-prime-mod3":
        for p in primes:
            if p % 4 != 3:
                raise ValueError(f"prime {p} is not = 3 (mod 4)")
        space = tuple((p, r) for p in primes for r in range(1, p))
    elif claim.name == "altsum-prime-mod9":
        for p in primes:
            if p % 12 not in (7, 11):
                raise ValueError(f"prime {p} is not = 7 or 11 (mod 12)")
        space = tuple((p, r) for p in primes for r in range(1, p))
    else:
        return claim
    return theorems.CongruenceClaim(
        claim.name, claim.description, claim.modulus, claim.weight,
        claim.k_quad, space, claim.n_max, stride=claim.stride, base=claim.base)


def _report_dict(r):
    d = {k: v for k, v in vars(r).items()}
    if "counterexample" in d and d["counterexample"] is not None:
        d["counterexample"] = list(d["counterexample"])
    return d


def cmd_verify_all(args):
    _check_threads_env()
    id_reports = identities.verify_all()
    for r in id_reports:
        print(r)
    npass = sum(r.passed for r in id_reports)
    print(f"{npass}/{len(id_reports)} identities verified")
    thm_rc = verify_theorems(theorem_names())
    return 1 if (npass < len(id_reports) or thm_rc) else 0


def cmd_scan(args):
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        scalar, spec = parse_quotient(cfg["spec"])
        stride_max = cfg["A_max"]
        moduli = set(cfg["moduli"])
        n_max = cfg["n_max"]
    else:
        if args.spec:
            scalar, spec = parse_quotient(args.spec)
        else:
            if args.name not in FAMILIES:
                return _name_error(args.name, list(FAMILIES))
            spec = FQuotientSpec.of(FAMILIES[args.name].gf)
        stride_max = args.amax
        moduli = {int(m) for m in args.moduli.split(",")}
        n_max = args.nmax
    hits = theorems.scan(spec, stride_max, moduli, n_max)
    if args.json:
        print(json.dumps([vars(h) for h in hits], indent=2))
    else:
        for h in hits:
            print(h)
        print(f"{len(hits)} congruence candidates "
              f"({sum(h.known for h in hits)} known)")
    return 0


def cmd_bench(args):
    t0 = time.perf_counter()
    table = theorems.b_table(args.order, modulus=63)
    dt = time.perf_counter() - t0
    print(f"b_table({args.order}) in Z/63: {len(table)} coefficients, "
          f"checksum {sum(table) % 997}")
    print(f"elapsed: {dt:.2f}s", file=sys.stderr)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="qcong",
        description="exact q-series expansion and congruence verification")
    ap.add_argument("--show-defaults", action="store_true",
                    help="print the table of built-in orders and ranges")
    sub = ap.add_subparsers(dest="command")

    def series_flags(p, order_flag=True):
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--spec", help="quotient such as 'f2^4/(f1^2*f4^3)'")
        g.add_argument("--name", help=f"named series: {', '.join(FAMILIES)}, alpha, h")
        p.add_argument("--mod", type=int, default=None,
                       help="expand over Z/mZ instead of Z")

    p = sub.add_parser("expand", help="print coefficients of a series")
    series_flags(p)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("coeff", help="print one coefficient")
    series_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_coeff)

    p = sub.add_parser("oracle", help="combinatorial counting oracle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=tuple(FAMILIES), default="B")
    p.add_argument("--table", action="store_true", help="print the whole table")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify-identity", help="check catalog identities")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--name")
    g.add_argument("--all", action="store_true")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_identity)

    p = sub.add_parser("verify-theorem", help="check congruence families")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--name")
    g.add_argument("--all", action="store_true")
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--primes", help="comma-separated sample primes")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser("verify-all", help="identities and congruence families")
    p.set_defaults(func=cmd_verify_all)

    p = sub.add_parser("scan", help="search for affine congruences")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--spec")
    g.add_argument("--name")
    g.add_argument("--config", help="JSON file {spec, A_max, moduli, n_max}")
    p.add_argument("--amax", type=int, default=30)
    p.add_argument("--moduli", default="2,3,5,7")
    p.add_argument("--nmax", type=int, default=500)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("bench", help="series multiplication throughput check")
    p.add_argument("--order", type=int, default=20000)
    p.set_defaults(func=cmd_bench)

    return ap


def _check_threads_env():
    """QCONG_THREADS must be a positive integer if set; verification is
    serial, so its value changes nothing."""
    raw = os.environ.get("QCONG_THREADS", "1")
    try:
        v = int(raw)
    except ValueError:
        v = 0
    if v < 1:
        raise SystemExit(f"QCONG_THREADS must be a positive integer, got {raw!r}")


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.show_defaults:
        print(DEFAULTS_TABLE, end="")
        return 0
    if args.command is None:
        ap.print_usage(sys.stderr)
        return 2
    mod = getattr(args, "mod", None)
    if mod is not None and not 2 <= mod < (1 << 31):
        print(f"--mod must be in [2, 2^31), got {mod}", file=sys.stderr)
        return 2
    if args.command == "oracle" and args.n < 0:
        print("--n must be >= 0", file=sys.stderr)
        return 2
    if args.command == "scan" and not args.config and not args.spec and not args.name:
        print("scan needs --spec, --name or --config", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except SpecParseError as ex:
        spec_text = args.spec if getattr(args, "spec", None) else ""
        print(f"parse error: {ex}", file=sys.stderr)
        if spec_text:
            print(f"  {spec_text}", file=sys.stderr)
            print(f"  {' ' * ex.pos}^", file=sys.stderr)
        return 2
    except (SeriesError, ValueError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
