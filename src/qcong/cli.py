"""Command-line front end.

Subcommands: expand, coeff, oracle, verify-identity, verify-theorem,
verify-all, scan.  Exit codes: 0 all requested checks passed,
1 at least one FAIL, 2 usage error or bad input.  Output on stdout is
byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache

from . import identities, partitions, theorems
from .expr import NAMED_SERIES, FQuot, Named, Scale, evaluate
from .partitions import FAMILIES
from .products import FQuotientSpec
from .series import MAX_EXPONENT, MAX_WINDOW, SeriesError


def defaults_table():
    """The built-in orders and ranges, read from the constants that set them."""
    gamma = identities.get("gamma0_28_decomposition")
    T, v = gamma.default_order, gamma.lhs.valuation()
    rows = {
        "exact identity order": identities.EXACT_ORDER,
        "modular identity order": identities.MOD_ORDER,
        gamma.name: f"through q^{T} ({T - v} coefficients above valuation {v})",
        "claim n_max": (",\n" + " " * 30).join(
            f"{c.name}: {c.n_max}" for c in theorems.default_claims()),
        "sampled primes": ", ".join(map(str, theorems.SAMPLED_PRIMES)),
        "sampled prime cap": theorems.MAX_SAMPLED_PRIME,
        "scan caps": f"stride <= {theorems.MAX_SCAN_STRIDE}, "
                     f"n_max >= {theorems.MIN_SCAN_NMAX}",
        "window cap": f"series built through q^{MAX_WINDOW} at most",
        "exponent cap": f"f-quotient exponents |r_d| <= {MAX_EXPONENT}",
    }
    return "defaults\n" + "".join(f"  {k:<28}{v}\n" for k, v in rows.items())


class SpecParseError(Exception):
    """A spec ``text`` that does not parse, with the caret's index ``pos``."""

    def __init__(self, message, pos, text):
        super().__init__(message)
        self.pos = pos
        self.text = text


#: one token of a quotient spec after any whitespace: f<d> or q, each with
#: an optional ^<e>, an integer (a bare "-" is one, for its error), or
#: else one character, none at the end of the text
_SPEC_TOKEN = re.compile(r"\s*(?P<token>(?:f(?P<d>-?\d*)|q)(?:\^(?P<e>-?\d*))?"
                        r"|(?P<c>-?\d+|-)|.?)")


def parse_quotient(text):
    """Parse a quotient spec like ``5*q^2*f2^4/(f1^2*f4^3)``.

    Grammar: a product of integer scalars, q^e shifts and f<d>^<e> terms,
    with at most one fraction bar whose denominator may be parenthesized.
    Returns (scalar, FQuotientSpec).  Text that does not parse raises
    SpecParseError; a spec that parses to an f-quotient its record refuses
    (an exponent above the cap, summed over its terms) raises the record's
    ValueError.
    """
    def number(group):  # the integer in a group of the token m; 1 if absent
        if m[group] in ("", "-"):
            raise SpecParseError("expected an integer", m.start(group), text)
        return 1 if m[group] is None else int(m[group])

    scalar, qshift, factors = 1, 0, {}
    sign, part, i = 1, "numerator", 0  # part: numerator, group (a denominator
    # in parentheses, until its ")") or denominator
    factor = True  # a factor comes next, else what follows one
    while True:
        m = _SPEC_TOKEN.match(text, i)
        token, at, i = m["token"], m.start("token"), m.end()
        if not factor:
            if token == "*" and part != "denominator":
                factor = True
            elif token == ")" and part == "group":
                part = "denominator"
            elif part == "group" and token in ("", "/"):
                raise SpecParseError("unclosed parenthesis", at, text)
            elif token == "/" and part == "numerator":
                sign, part, factor = -1, "denominator", True
                m = _SPEC_TOKEN.match(text, i)
                if m["token"] == "(":
                    part, i = "group", m.end()
            elif token:
                raise SpecParseError("only one fraction bar is allowed"
                                     if token == "/" else
                                     f"unexpected character {token[0]!r}",
                                     at, text)
            else:
                break
            continue
        if m["d"] is not None:
            d = number("d")
            if d < 1:
                raise SpecParseError("f-index must be positive",
                                     m.end("d") - 1, text)
            factors[d] = factors.get(d, 0) + sign * number("e")
        elif token[:1] == "q":
            qshift += sign * number("e")
        elif m["c"] is not None:
            c = number("c")
            if sign == -1 and c not in (1, -1):
                raise SpecParseError("integer scalars are only allowed in the "
                                     "numerator", i - 1, text)
            scalar *= c
        else:
            raise SpecParseError(f"unexpected character {token!r}" if token
                                 else "expected a factor", at, text)
        factor = False
    return scalar, FQuotientSpec.of(factors, qshift)


def _quotient(args):
    """The (scalar, f-quotient) that --spec states or the family --name names."""
    if args.spec is not None:
        return parse_quotient(args.spec)
    return 1, FAMILIES[args.name].gf


def _series_for(args, order):
    """The --spec or --name series through q^order.  A spec may be a
    Laurent series; a named series is asked for from q^0 on."""
    if args.spec is None and order < 0:
        raise ValueError(f"order must be >= 0 for a named series, got {order}")
    if args.name in NAMED_SERIES:
        node = Named(args.name)
    else:
        scalar, spec = _quotient(args)
        node = FQuot(spec) if scalar == 1 else Scale(scalar, FQuot(spec))
    return evaluate(node, order, args.mod)


def _print_reports(reports, as_json, summary=None):
    """Print reports as one JSON list, or one per line and then the summary
    line, if there is one."""
    if as_json:
        print(json.dumps([vars(r) for r in reports], indent=2))
        return
    for r in reports:
        print(r)
    if summary:
        print(summary)


def _int_list(text):
    """argparse type of --primes and --moduli: comma-separated integers."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}") from None


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
        entries = identities.registry()
    else:
        try:
            entries = [identities.get(args.name)]
        except KeyError:
            return _name_error(args.name, identities.names())
    return verify_identities(entries, args.order, args.json)


def verify_identities(entries, order=None, as_json=False):
    """Verify catalog entries and print their reports; the exit code is 0
    if all pass, else 1."""
    reports = [identities.verify(e, order) for e in entries]
    npass = sum(r.passed for r in reports)
    _print_reports(reports, as_json, f"{npass}/{len(reports)} identities verified")
    return 0 if all(r.passed for r in reports) else 1


def cmd_verify_theorem(args):
    catalog = theorems.theorem_names()
    if not args.all and args.name not in catalog:
        return _name_error(args.name, catalog)
    return verify_theorems(catalog if args.all else [args.name], args.nmax,
                           args.primes, args.json)


def verify_theorems(selected, n_max=None, primes=theorems.SAMPLED_PRIMES,
                    as_json=False):
    """Check the named congruence families and print their reports; the
    exit code is 0 if all pass, else 1."""
    reports = theorems.verify_families(selected, n_max, primes,
                                       out=None if as_json else print)
    _print_reports(reports, as_json)
    return 0 if all(r.passed for r in reports) else 1


def cmd_verify_all(args):
    id_rc = verify_identities(identities.registry())
    thm_rc = verify_theorems(theorems.theorem_names())
    return id_rc or thm_rc


def _scan_config_flags(path):
    """The scan flags that a config file {spec, A_max, moduli, n_max}
    stands for, so its values are parsed and checked as the flags are."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
        return [f"--spec={cfg['spec']}", f"--amax={cfg['A_max']}",
                f"--moduli={','.join(map(str, cfg['moduli']))}",
                f"--nmax={cfg['n_max']}"]
    except (OSError, ValueError) as ex:
        raise ValueError(f"cannot read scan config: {ex}") from None
    except KeyError as ex:
        raise ValueError(f"scan config {path} has no key {ex}") from None
    except TypeError:
        raise ValueError(f"scan config {path} must be a JSON object "
                         f"{{spec, A_max, moduli: [...], n_max}}") from None


def cmd_scan(args):
    if args.config:
        args = args.parser.parse_args(_scan_config_flags(args.config)
                                      + (["--json"] if args.json else []))
    scalar, spec = _quotient(args)
    hits = theorems.scan(spec, args.amax, set(args.moduli), args.nmax, scalar)
    _print_reports(hits, args.json, f"{len(hits)} congruence candidates "
                                    f"({sum(h.known for h in hits)} known)")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="qcong",
        description="exact q-series expansion and congruence verification")
    ap.add_argument("--show-defaults", action="store_true",
                    help="print the table of built-in orders and ranges")
    sub = ap.add_subparsers(dest="command")

    def series_flags(p):
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--spec", help="quotient such as 'f2^4/(f1^2*f4^3)'")
        g.add_argument("--name", choices=(*FAMILIES, *NAMED_SERIES), metavar="NAME",
                       help=f"named series: {', '.join((*FAMILIES, *NAMED_SERIES))}")
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
    p.add_argument("--primes", type=_int_list, default=theorems.SAMPLED_PRIMES,
                   help="comma-separated sample primes")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser("verify-all", help="identities and congruence families")
    p.set_defaults(func=cmd_verify_all)

    p = sub.add_parser("scan", help="search for affine congruences")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--spec")
    g.add_argument("--name", choices=tuple(FAMILIES), metavar="NAME")
    g.add_argument("--config", help="JSON file {spec, A_max, moduli, n_max}")
    p.add_argument("--amax", type=int, default=30)
    p.add_argument("--moduli", type=_int_list, default="2,3,5,7")
    p.add_argument("--nmax", type=int, default=500)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_scan, parser=p)

    return ap


@cache
def _parser():
    """The parser, built on the first ``main`` call and reused by later
    calls in the same process (parsing leaves it unchanged)."""
    return build_parser()


def main(argv=None):
    ap = _parser()
    args = ap.parse_args(argv)
    if args.show_defaults:
        print(defaults_table(), end="")
        return 0
    if args.command is None:
        ap.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except ValueError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except SpecParseError as ex:
        print(f"parse error: {ex}", file=sys.stderr)
        if ex.text:
            print(f"  {ex.text}", file=sys.stderr)
            print(f"  {' ' * ex.pos}^", file=sys.stderr)
        return 2
    except SeriesError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
