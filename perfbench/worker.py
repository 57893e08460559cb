"""One measured repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload catalog --seed 1 [--trace] [--setup-only]

Imports qcong from ``src/`` of the checkout, builds the workload's inputs
from the seed, runs them through ``qcong.cli.main`` (the ``qcong``
command), then checks the verdicts with gates that do not trust the
program's own assertions.  Prints one JSON line: the monotonic clock when
set-up ended, the timed wall and CPU seconds, the host's slowness sampled
meanwhile (``hostspeed``; untraced repetitions only), peak RSS, the gate
checks and, with ``--trace``, the per-layer metrics.  ``perfbench/run.py`` starts
this script and aggregates repetitions; it is not meant to be run alone.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

from hostspeed import Sampler

ROOT = Path(__file__).resolve().parent.parent
#: where traced repetitions leave their spans, relative to the checkout
SPANS_DIR = ".perfbench-spans"
WORKLOADS = ("catalog", "claims", "scan")

#: claims: 71 is always drawn, so the largest B-argument (101441) and the
#: table every seed builds are the same; the rest come from this pool.
FIXED_PRIME = 71
PRIME_POOL = (7, 11, 19, 23, 31, 43, 47, 59, 67)
PRIME_FAMILIES = ("altsum-prime-mod3", "altsum-prime-mod9")
#: (stride, residue, modulus, n_max) of the plain congruences the command checks
SIMPLE_CLAIMS = {(2, 1, 2, 2000), (5, 4, 5, 2000)}

SCAN_FAMILIES = ("B", "b", "p", "a", "abar")
SCAN_ARGS = ["--amax", "30", "--moduli", "2,3,5,7", "--nmax", "500"]
SCAN_EVIDENCE = 501
#: congruences stated in the literature for the scanned families
LITERATURE = {
    "B": {(2, 1, 2), (5, 4, 5), (27, 16, 3)},
    "b": {(3, 2, 3)},
    "p": {(5, 4, 5), (7, 5, 7)},
    "a": set(),
    "abar": set(),
}

#: catalog entries whose perturbed copies must fail at the perturbed exponent
PERTURBED = ("gf_b_27n16_mod9", "gf_b_7n2_mod7")


def config_error(env=os.environ, optimize=sys.flags.optimize):
    """Why this interpreter must not run the benchmark, or None."""
    if optimize or env.get("PYTHONOPTIMIZE"):
        return ("refusing to run with -O or PYTHONOPTIMIZE: it strips the "
                "assert statements qcong checks with")
    if env.get("QCONG_THREADS", "1") != "1":
        return (f"refusing to run with QCONG_THREADS={env['QCONG_THREADS']!r}: "
                "the benchmark measures the single-threaded default; unset it")
    return None


def draw_primes(seed):
    """The sample primes of the claims workload: 71 and three from the pool."""
    return sorted([FIXED_PRIME, *random.Random(seed).sample(PRIME_POOL, 3)])


def claim_grid(claims, primes):
    """claim name -> number of sums the command must check: parameter grid
    size times (n_max + 1), with the prime families over ``primes``."""
    out = {}
    for c in claims:
        if c.name in PRIME_FAMILIES:
            params = sum(p - 1 for p in primes)
        else:
            params = len(c.param_space)
        out[c.name] = params * (c.n_max + 1)
    return out


def build_inputs(workload, seed):
    """(argv list for qcong.cli.main, what the gate needs), from the seed."""
    from qcong import identities, theorems
    rng = random.Random(seed)
    if workload == "catalog":
        names = [e.name for e in identities.registry()]
        rng.shuffle(names)
        argvs = [["verify-identity", "--name", n, "--json"] for n in names]
        return argvs, {"names": names,
                       "perturbed": [(n, rng.randrange(1, 500)) for n in PERTURBED]}
    if workload == "claims":
        primes = draw_primes(seed)
        argv = ["verify-theorem", "--all", "--primes", ",".join(map(str, primes)),
                "--json"]
        return [argv], {"grid": claim_grid(theorems.default_claims(), primes)}
    if workload == "scan":
        families = list(SCAN_FAMILIES)
        rng.shuffle(families)
        with open(Path(__file__).with_name("scan_reference.json")) as fh:
            reference = json.load(fh)
        argvs = [["scan", "--name", x, *SCAN_ARGS, "--json"] for x in families]
        return argvs, {"families": families, "reference": reference}
    raise ValueError(f"unknown workload {workload!r}")


# -- gates: each returns a list of (check, passed) ---------------------------

def gate_catalog(outputs, expected):
    from qcong import identities
    checks = []
    reports = [r for out in outputs for r in out]
    for r in reports:
        checks.append((f"PASS {r['name']}", r["passed"] is True))
    checks.append(("one report per registry entry",
                   sorted(r["name"] for r in reports) == sorted(expected["names"])
                   and len(reports) == len(identities.registry())))
    for name, at in expected["perturbed"]:
        rep = identities.verify(identities.perturbed(identities.get(name), at))
        checks.append((f"perturbed {name} fails at q^{at}",
                       not rep.passed and rep.mismatch_exponent == at))
    return checks


def gate_claims(outputs, expected, b_tables):
    from qcong import partitions
    checks = []
    reports = outputs[0]
    for r in reports:
        label = r.get("name") or f"B({r['stride']}n+{r['residue']}) mod {r['modulus']}"
        checks.append((f"PASS {label}", r["passed"] is True))
    simple = {(r["stride"], r["residue"], r["modulus"], r["n_max"])
              for r in reports if "stride" in r}
    checks.append(("simple congruences checked through n = 2000",
                   simple == SIMPLE_CLAIMS))
    sums = {r["name"]: r["checked"] for r in reports if "checked" in r}
    for name, want in expected["grid"].items():
        checks.append((f"{name} checked {want} sums", sums.get(name) == want))
    oracle = partitions.count_triples(400)
    checks.append(("B tables agree with the triple-counting oracle on [0, 400]",
                   bool(b_tables) and all(t[:401] == oracle[:len(t)] for t in b_tables)))
    return checks


def gate_scan(outputs, expected):
    checks = []
    for family, hits in zip(expected["families"], outputs):
        got = [[h["stride"], h["residue"], h["modulus"]] for h in hits]
        checks.append((f"scan {family} hits equal the reference",
                       got == expected["reference"][family]
                       and all(h["evidence"] == SCAN_EVIDENCE for h in hits)))
        known = {(h["stride"], h["residue"], h["modulus"]) for h in hits if h["known"]}
        checks.append((f"scan {family} marks exactly the literature congruences",
                       known == LITERATURE[family]))
    return checks


def _capture_b_tables(theorems):
    """Keep the first 401 entries of every B table the run builds, for the
    oracle gate (b_table's own cross-check is an assert)."""
    seen = []
    inner = theorems.b_table

    def b_table(N, modulus=None):
        table = inner(N, modulus)
        if modulus is None:
            seen.append(table[:401])
        return table

    theorems.b_table = b_table
    return seen


def run(workload, seed, trace, setup_only):
    sys.path.insert(0, str(ROOT / "src"))
    import qcong
    from qcong import cli, theorems
    if Path(qcong.__file__).resolve().parent != ROOT / "src" / "qcong":
        raise SystemExit(f"imported qcong from {qcong.__file__}, not from the "
                         f"checkout's src/")
    argvs, expected = build_inputs(workload, seed)
    ready = time.monotonic()
    if setup_only:
        return {"ready": ready}

    b_tables = _capture_b_tables(theorems)
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    # the slices would land in the spans of whatever layer they interrupt
    sampler = None if trace else Sampler()
    outputs, codes = [], []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    with sampler or contextlib.nullcontext():
        for argv in argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                codes.append(cli.main(argv))
            outputs.append(buf.getvalue())
    t1 = time.perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    checks = []
    layers = None
    if tracer:
        # before the gates, whose calls into qcong would add spans
        layers = tracer.report(t0, t1)
        tracer.write(ROOT / SPANS_DIR / f"{workload}-seed{seed}.json", t0)
        covered = layers["trace.uncovered_s"] + sum(
            v for k, v in layers.items() if k.endswith(".self_s"))
        checks.append(("layer self times add up to the traced wall time",
                       abs(covered - layers["trace.wall_s"]) < 1e-6))

    parsed = [json.loads(o) for o in outputs]
    if workload == "catalog":
        checks += gate_catalog(parsed, expected)
    elif workload == "claims":
        checks += gate_claims(parsed, expected, b_tables)
    else:
        checks += gate_scan(parsed, expected)
    checks.append(("every command exits 0", all(c == 0 for c in codes)))
    cpu = (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime)
    return {
        "ready": ready,
        # the time spent in calibration slices is not the program's
        "wall_s": t1 - t0 - (sampler.wall if sampler else 0.0),
        "cpu_s": cpu - (sampler.cpu if sampler else 0.0),
        "slowness": sampler and {"wall": sampler.slowness("wall"),
                                 "cpu": sampler.slowness("cpu"),
                                 "slices": sampler.count},
        "peak_rss_mb": ru1.ru_maxrss / 1024,
        "attempted": len(checks),
        "failed": [name for name, ok in checks if not ok],
        "layers": layers,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    err = config_error()
    if err:
        print(err, file=sys.stderr)
        return 2
    print(json.dumps(run(args.workload, args.seed, args.trace, args.setup_only)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
