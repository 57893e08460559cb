"""Command-line contract: output shapes, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from qcong.cli import _parser, main, parse_quotient, SpecParseError
from qcong.expr import NAMED_SERIES
from qcong.partitions import FAMILIES
from qcong.products import FQuotientSpec
from qcong.series import MAX_WINDOW
from qcong.identities import EXACT_ORDER, MOD_ORDER
from qcong.theorems import (MAX_SAMPLED_PRIME, MAX_SCAN_STRIDE, MIN_SCAN_NMAX,
                            SAMPLED_PRIMES, default_claims)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- spec parser ----------------------------------------------------------------

def test_parse_plain_quotient():
    scalar, spec = parse_quotient("f2^4/(f1^2*f4^3)")
    assert scalar == 1
    assert spec == FQuotientSpec.of({2: 4, 1: -2, 4: -3})


def test_parse_scalar_and_qshift():
    scalar, spec = parse_quotient("5*q^2*f5^5/f1^6")
    assert scalar == 5
    assert spec == FQuotientSpec.of({5: 5, 1: -6}, qshift=2)


def test_parse_negative_shift_via_denominator():
    scalar, spec = parse_quotient("f4^4*f14^2/(q^3*f2^2*f28^4)")
    assert scalar == 1
    assert spec == FQuotientSpec.of({4: 4, 14: 2, 2: -2, 28: -4}, qshift=-3)


#: spec -> (message, position) of its parse error, one or more per message
PARSE_ERRORS = {
    "f1^(": ("expected an integer", 3),
    "f2/f1/f4": ("only one fraction bar is allowed", 5),
    "f2/(f1)/f4": ("only one fraction bar is allowed", 7),
    "g3": ("unexpected character 'g'", 0),
    "f2 ^3": ("unexpected character '^'", 3),
    "f2/f1*f4": ("unexpected character '*'", 5),
    "f2^4/(f1^2": ("unclosed parenthesis", 10),
    "f2/(f1/f4)": ("unclosed parenthesis", 6),
    "f2*": ("expected a factor", 3),
    "f2/ ": ("expected a factor", 4),
    "f0": ("f-index must be positive", 1),
    "f1*f-12^2": ("f-index must be positive", 6),
    "f1/6": ("integer scalars are only allowed in the numerator", 3),
    "f1/(-1*f2*10)": ("integer scalars are only allowed in the numerator", 11),
    "q^-": ("expected an integer", 2),
    "f²": ("expected an integer", 1),  # a digit that int() refuses
}


def test_parse_errors_carry_position():
    for text, (message, pos) in PARSE_ERRORS.items():
        with pytest.raises(SpecParseError) as ei:
            parse_quotient(text)
        assert (type(ei.value), str(ei.value), ei.value.pos, ei.value.text) == \
            (SpecParseError, message, pos, text), text


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="fq0123456789-^*/() ", max_size=30))
def test_parse_quotient_fuzz(text):
    """Any text over the spec alphabet parses or raises SpecParseError with
    a position inside the text (or just past it)."""
    try:
        parse_quotient(text)
    except SpecParseError as err:
        assert 0 <= err.pos <= len(text)


@settings(max_examples=300, deadline=None)
@given(spec=st.builds(FQuotientSpec.of,
                      st.dictionaries(st.integers(1, 40), st.integers(1, 30)
                                      | st.integers(-30, -1), max_size=5),
                      st.integers(-5, 5)),
       c=st.integers())
@example(spec=FQuotientSpec.of({}), c=0)
def test_printed_specs_parse_back(spec, c):
    """A spec's text, alone or after a scalar, parses to the spec, the
    empty spec (printed as 1) included."""
    assert parse_quotient(str(spec)) == (1, spec)
    assert parse_quotient(f"{c}*{spec}") == (c, spec)


def test_parse_quotient_refuses_an_exponent_over_the_cap_as_a_value_error():
    """A spec whose exponents, summed over its terms, are above the cap
    parses to a record that refuses them: the record's ValueError, not a
    SpecParseError, since the text itself parses."""
    for text in ("f1^10001", "f1^6000*f1^4001"):
        with pytest.raises(ValueError, match="above the cap") as ei:
            parse_quotient(text)
        assert not isinstance(ei.value, SpecParseError)
    assert parse_quotient("f1^10001/f1")[1] == parse_quotient("f1^10000")[1]


def test_expand_refuses_an_exponent_summed_over_the_cap(capsys):
    """The refused spec is bad input: exit 2, one error line, no caret."""
    rc, out, err = run(capsys, "expand", "--spec", "f1^6000*f1^4001",
                       "--order", "3")
    assert (rc, out, err) == (2, "", "error: exponent 10001 of f1 is above "
                                     "the cap |r_d| <= 10000\n")


# -- expand / coeff / oracle ------------------------------------------------------

def test_expand_named_b(capsys):
    rc, out, _ = run(capsys, "expand", "--name", "B", "--order", "5")
    assert rc == 0
    assert out == "0\t1\n1\t2\n2\t1\n3\t2\n4\t5\n5\t6\n"


def test_expand_spec_pentagonal(capsys):
    rc, out, _ = run(capsys, "expand", "--spec", "f1", "--order", "7")
    assert rc == 0
    rows = dict(tuple(map(int, line.split("\t"))) for line in out.splitlines())
    assert rows == {0: 1, 1: -1, 2: -1, 3: 0, 4: 0, 5: 1, 6: 0, 7: 1}


def test_every_named_series_is_a_name_choice(capsys):
    """--name takes each family and each series of ``NAMED_SERIES``: the
    theta sums print what their product forms print, and an unknown name
    still exits 2."""
    rc, out, _ = run(capsys, "expand", "--name", "cube", "--order", "20")
    assert rc == 0
    assert (rc, out) == run(capsys, "expand", "--spec", "f1^3", "--order", "20")[:2]
    for name in (*FAMILIES, *NAMED_SERIES):
        assert run(capsys, "coeff", "--name", name, "--n", "3")[0] == 0
    for argv in (["expand", "--name", "nope", "--order", "5"],
                 ["coeff", "--name", "nope", "--n", "5"]):
        with pytest.raises(SystemExit) as ex:
            main(argv)
        assert ex.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'nope'" in err and "'signed_pentagonal'" in err


def test_expand_parse_error_exit2_with_caret(capsys):
    rc, out, err = run(capsys, "expand", "--spec", "f1^(", "--order", "5")
    assert rc == 2
    assert "parse error" in err and "^" in err
    rc, out, err = run(capsys, "expand", "--spec", "f²", "--order", "5")
    assert (rc, out) == (2, "")
    assert err == "parse error: expected an integer\n  f²\n   ^\n"


def test_expand_mod(capsys):
    rc, out, _ = run(capsys, "expand", "--name", "B", "--order", "4",
                     "--mod", "5")
    assert rc == 0
    assert out.splitlines()[4] == "4\t0"


def test_expand_deterministic(capsys):
    args = ("expand", "--spec", "f2^4/(f1^2*f4^3)", "--order", "40")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0 and out1 == out2


def test_coeff(capsys):
    rc, out, _ = run(capsys, "coeff", "--name", "p", "--n", "24")
    assert (rc, out) == (0, "1575\n")


def test_oracle(capsys):
    rc, out, _ = run(capsys, "oracle", "--n", "4")
    assert (rc, out) == (0, "5\n")
    rc, out, _ = run(capsys, "oracle", "--n", "4", "--family", "a", "--table")
    assert rc == 0
    assert out == "0\t1\n1\t1\n2\t3\n3\t4\n4\t9\n"


# -- verification commands ----------------------------------------------------------

def test_verify_identity_single(capsys):
    rc, out, _ = run(capsys, "verify-identity", "--name", "gf_b_3n2",
                     "--order", "60")
    assert rc == 0
    assert out.startswith("PASS gf_b_3n2")


def test_verify_identity_unknown_lists_names(capsys):
    rc, out, err = run(capsys, "verify-identity", "--name", "nope")
    assert rc == 2
    assert "gf_b_3n2" in err  # the available-names list


def test_verify_identity_all_small_order(capsys):
    rc, out, _ = run(capsys, "verify-identity", "--all", "--order", "25")
    assert rc == 0
    assert out.rstrip().endswith("identities verified")


def test_verify_identity_json(capsys):
    rc, out, _ = run(capsys, "verify-identity", "--name", "euler_pentagonal",
                     "--order", "50", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc[0]["name"] == "euler_pentagonal" and doc[0]["passed"] is True


def test_verify_theorem_simple(capsys):
    rc, out, _ = run(capsys, "verify-theorem", "--name", "b-2n1-mod2",
                     "--nmax", "50")
    assert rc == 0 and out.startswith("PASS")


def test_verify_theorem_unknown(capsys):
    rc, out, err = run(capsys, "verify-theorem", "--name", "no-such-claim")
    assert rc == 2
    assert "altsum-9n-mod3" in err


def test_verify_theorem_claim_with_nmax(capsys):
    rc, out, _ = run(capsys, "verify-theorem", "--name", "altsum-9n-mod3",
                     "--nmax", "10")
    assert rc == 0
    assert "largest B-argument required:" in out


def test_verify_theorem_prime_override(capsys):
    rc, out, _ = run(capsys, "verify-theorem", "--name", "altsum-prime-mod3",
                     "--nmax", "0", "--primes", "7,11")
    assert rc == 0


def test_verify_theorem_json(capsys):
    rc, out, _ = run(capsys, "verify-theorem", "--name", "b-27n16-mod3",
                     "--nmax", "20", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc[0]["passed"] is True


# -- scan -----------------------------------------------------------------------------

def test_verify_all_end_to_end(capsys):
    rc, out, _ = run(capsys, "verify-all")
    assert rc == 0
    assert "identities verified" in out
    assert "largest B-argument required:" in out
    assert "PASS hexweight-343n-mod7" in out


def test_scan_cli(capsys):
    rc, out, _ = run(capsys, "scan", "--name", "p", "--amax", "8",
                     "--moduli", "5,7", "--nmax", "60")
    assert rc == 0
    assert "(5n+4) = 0 mod 5" in out and "[known]" in out


def test_scan_config_file(capsys, tmp_path):
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({"spec": "1/f1", "A_max": 8,
                               "moduli": [5, 7], "n_max": 60}))
    rc, out, _ = run(capsys, "scan", "--config", str(cfg), "--json")
    assert rc == 0
    hits = json.loads(out)
    assert {(h["stride"], h["residue"], h["modulus"])
            for h in hits if h["known"]} == {(5, 4, 5), (7, 5, 7)}


def test_scan_config_parse_error_shows_the_spec_and_caret(capsys, tmp_path):
    """A config's spec that does not parse is reported as ``--spec`` reports
    it: the message, the spec and a caret under the error."""
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({"spec": "f2^4/(f1^2", "A_max": 8,
                               "moduli": [5], "n_max": 60}))
    by_config = run(capsys, "scan", "--config", str(cfg))
    by_spec = run(capsys, "scan", "--spec", "f2^4/(f1^2")
    assert by_config == by_spec == (
        2, "", "parse error: unclosed parenthesis\n  f2^4/(f1^2\n"
               "            ^\n")


def test_scan_spec_scalar(capsys):
    # every coefficient of 5/f1 is 0 (mod 5)
    rc, out, _ = run(capsys, "scan", "--spec", "5/f1", "--amax", "2",
                     "--moduli", "5", "--nmax", "50")
    assert rc == 0
    assert out.splitlines()[-1] == "3 congruence candidates (0 known)"
    # the literature marks of B are kept under the scalar -1 only
    marks = []
    for spec in ("-1*f2^4/(f1^2*f4^3)", "3*f2^4/(f1^2*f4^3)"):
        rc, out, _ = run(capsys, "scan", f"--spec={spec}", "--amax", "5",
                         "--moduli", "2,5", "--nmax", "50")
        marks.append("(5n+4) = 0 mod 5 [51 values]  [known]" in out.splitlines())
    assert marks == [True, False]


def test_show_defaults(capsys):
    rc, out, _ = run(capsys, "--show-defaults")
    assert rc == 0
    assert re.search(r"exact identity order +(\d+)", out).group(1) == str(EXACT_ORDER)
    assert re.search(r"modular identity order +(\d+)", out).group(1) == str(MOD_ORDER)
    assert "gamma0_28_decomposition     through q^130 " \
           "(150 coefficients above valuation -20)" in out
    claims = out[out.index("claim n_max"):out.index("sampled primes")]
    n_max = {name: int(n) for name, n in re.findall(r"([\w-]+): (\d+)", claims)}
    assert n_max == {c.name: c.n_max for c in default_claims()}
    primes = re.search(r"sampled primes +(.*)", out).group(1)
    assert tuple(int(p) for p in primes.split(",")) == SAMPLED_PRIMES
    cap = re.search(r"sampled prime cap +(.*)", out).group(1)
    assert int(cap) == MAX_SAMPLED_PRIME
    assert f"stride <= {MAX_SCAN_STRIDE}, n_max >= {MIN_SCAN_NMAX}" in out
    assert re.search(r"window cap +series built through q\^(\d+) at most",
                     out).group(1) == str(MAX_WINDOW)


def test_no_command_is_usage_error(capsys):
    rc, out, err = run(capsys)
    assert rc == 2


# -- one parser per process, and stdout independent of the caches ------------------

SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_process(*argv):
    """(exit code, stdout) of ``qcong`` in a new interpreter."""
    proc = subprocess.run([sys.executable, "-m", "qcong.cli", *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    return proc.returncode, proc.stdout


def test_successive_main_calls_match_fresh_processes(capsys, tmp_path):
    """``main`` builds its parser on the first call and reuses it; after a
    usage error and each command, the next call prints what a new process
    prints."""
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({"spec": "1/f1", "A_max": 8,
                               "moduli": [5, 7], "n_max": 60}))
    calls = [[], ["verify-identity"],
             ["verify-identity", "--name", "gf_b_3n2", "--order", "30"],
             ["scan", "--config", str(cfg)], ["--show-defaults"]]
    for argv in calls:
        try:
            rc = main(argv)
        except SystemExit as ex:  # argparse's own usage error
            rc = ex.code
        assert (rc, capsys.readouterr().out) == fresh_process(*argv)
    assert _parser.cache_info().misses == 1


ORDERS = """
import contextlib, io, json, os
from qcong import cli, identities

def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()

everything = ["verify-identity", "--all", "--json"]
cold = run(everything)
names = [e.name for e in reversed(identities.registry())]
each = [run(["verify-identity", "--name", n, "--json"]) for n in names]
warm = run(everything)
scans = [run(argv) for argv in json.loads(os.environ["SCANS"])]
print(json.dumps({"cold": cold, "each": each, "warm": warm, "scans": scans}))
"""

#: every scan family forward through q^1211, then backward through q^2423
#: (Newton inverses both, mod 210): later families share the inverses of
#: earlier ones, truncated in the first pass and rebuilt in the second
SCANS = ([["scan", "--name", x, "--amax", "12", "--nmax", "100"] for x in FAMILIES]
         + [["scan", "--name", x, "--amax", "12", "--nmax", "200"]
            for x in reversed(FAMILIES)])


def test_stdout_does_not_depend_on_cache_state():
    """The catalog cold, then entry by entry in reverse order, then whole
    again, then ``SCANS``, in one process: the builders' caches serve the
    later runs, every report is the same byte for byte, and each scan
    prints what it prints in a new process."""
    proc = subprocess.run([sys.executable, "-c", ORDERS], capture_output=True,
                          text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(SRC),
                               "SCANS": json.dumps(SCANS)})
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert [tuple(r) for r in runs["scans"]] == [fresh_process(*a) for a in SCANS]
    assert runs["warm"] == runs["cold"] and runs["cold"][0] == 0
    reports = [r for rc, out in reversed(runs["each"]) for r in json.loads(out)]
    assert {rc for rc, _ in runs["each"]} == {0}
    assert json.dumps(reports, indent=2) + "\n" == runs["cold"][1]


# -- bad input ---------------------------------------------------------------------------

BAD_INPUTS = {
    "prime-wrong-class": ["verify-theorem", "--all", "--primes", "13"],
    "prime-unused-by-family": ["verify-theorem", "--name", "hexweight-49n-mod7",
                               "--primes", "5"],
    "primes-not-integers": ["verify-theorem", "--all", "--primes", "7,x"],
    "prime-over-cap": ["verify-theorem", "--all", "--primes", str(2**31 - 1)],
    "primes-repeated": ["verify-theorem", "--name", "altsum-prime-mod3",
                        "--primes", "7,7"],
    "expand-unknown-name": ["expand", "--name", "X", "--order", "5"],
    "coeff-unknown-name": ["coeff", "--name", "X", "--n", "5"],
    "expand-modulus-1": ["expand", "--name", "B", "--order", "5", "--mod", "1"],
    "coeff-negative-n": ["coeff", "--name", "B", "--n", "-3"],
    "coeff-negative-n-h": ["coeff", "--name", "h", "--n", "-2"],
    "expand-negative-order-h": ["expand", "--name", "h", "--order", "-1"],
    "identity-order-negative": ["verify-identity", "--all", "--order", "-1"],
    "nmax-negative": ["verify-theorem", "--all", "--nmax", "-1"],
    "nmax-negative-claim": ["verify-theorem", "--name", "altsum-9n-mod3",
                            "--nmax", "-1"],
    "scan-stride-over-cap": ["scan", "--name", "B", "--amax", "61"],
    "scan-modulus-not-integer": ["scan", "--name", "B", "--moduli", "2,x"],
    "scan-modulus-zero": ["scan", "--name", "B", "--moduli", "0"],
    "scan-unknown-name": ["scan", "--name", "X"],
    "scan-no-target": ["scan"],
    "scan-empty-spec": ["scan", "--spec", ""],
    "oracle-negative-n": ["oracle", "--n", "-1"],
    "oracle-negative-n-abar": ["oracle", "--family", "abar", "--n", "-1"],
    "config-missing-file": ["scan", "--config", "{dir}/missing.json"],
    "config-missing-key": ["scan", "--config", "{dir}/no-moduli.json"],
    "config-non-integer-modulus": ["scan", "--config", "{dir}/modulus-x.json"],
}

#: windows far above the cap (a builder that allocated before checking would
#: raise MemoryError at once)
HUGE = str(10 ** 12)
WINDOW_OVER_CAP = {
    "coeff-B": ["coeff", "--name", "B", "--n", HUGE],
    "coeff-alpha": ["coeff", "--name", "alpha", "--n", HUGE],
    "coeff-h": ["coeff", "--name", "h", "--n", HUGE],
    "oracle-B": ["oracle", "--n", HUGE],
    "oracle-abar": ["oracle", "--family", "abar", "--n", HUGE],
    "identity-dissection": ["verify-identity", "--name", "p_7n5", "--order", HUGE],
    "identity-all": ["verify-identity", "--all", "--order", HUGE],
    "expand-f1-mod": ["expand", "--spec", "f1", "--order", HUGE, "--mod", "7"],
    "scan-p": ["scan", "--name", "p", "--nmax", HUGE],
    "theorem-simple": ["verify-theorem", "--name", "b-2n1-mod2", "--nmax", HUGE],
}


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_bad_input_exits_2_with_message(capsys, tmp_path, argv):
    (tmp_path / "no-moduli.json").write_text(json.dumps(
        {"spec": "1/f1", "A_max": 8, "n_max": 60}))
    (tmp_path / "modulus-x.json").write_text(json.dumps(
        {"spec": "1/f1", "A_max": 8, "moduli": ["x"], "n_max": 60}))
    try:
        rc = main([a.format(dir=tmp_path) for a in argv])
    except SystemExit as ex:  # argparse rejects the value itself
        rc = ex.code
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err.strip() and "Traceback" not in err


@pytest.mark.parametrize("argv", WINDOW_OVER_CAP.values(), ids=WINDOW_OVER_CAP)
def test_window_over_the_cap_is_refused_before_allocating(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert re.fullmatch(rf"error: window through q\^\d+ is above the cap "
                        rf"q\^{MAX_WINDOW}\n", err)
