"""Tests of the benchmark itself: gates, seeded inputs, the run guard and
the tracer's arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import io
import json
import contextlib
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
import worker  # noqa: E402
from tracer import PER_LAYER, _covered, divide_ops, mul_ops, self_times  # noqa: E402
from qcong import LaurentSeries, cli, identities, theorems  # noqa: E402


def _cli_json(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue())


def _failed(checks):
    return [name for name, ok in checks if not ok]


# -- catalog -------------------------------------------------------------------

def test_catalog_gate_passes_honest_reports():
    names = ["p_5n4", "euler_pentagonal"]
    outputs = [_cli_json(["verify-identity", "--name", n, "--json"])[1] for n in names]
    expected = {"names": identities.names(), "perturbed": [("p_7n5", 17)]}
    # only two of the catalog's reports: the count check alone fails
    assert _failed(worker.gate_catalog(outputs, expected)) == [
        "one report per registry entry"]


def test_perturbed_identity_trips_catalog_gate():
    bad = identities.verify(identities.perturbed(identities.get("p_5n4"), 9))
    outputs = [[vars(bad)]]
    expected = {"names": ["p_5n4__perturbed"], "perturbed": []}
    assert _failed(worker.gate_catalog(outputs, expected)) == [
        "PASS p_5n4__perturbed", "one report per registry entry"]


# -- claims --------------------------------------------------------------------

def test_prime_draw_keeps_71_and_admissible_primes():
    for seed in range(300):
        primes = worker.draw_primes(seed)
        assert 71 in primes and len(set(primes)) == 4
        assert all(p % 12 in (7, 11) and p % 4 == 3 for p in primes)
    assert worker.draw_primes(5) == worker.draw_primes(5)


def test_shortened_claim_grid_trips_claims_gate():
    claim = theorems.get_claim("altsum-prime-mod9")
    grid = worker.claim_grid([claim], [7, 11, 19])
    assert grid == {"altsum-prime-mod9": (6 + 10 + 18) * 3}
    code, full = _cli_json(["verify-theorem", "--name", claim.name,
                            "--primes", "7,11,19", "--json"])
    code2, short = _cli_json(["verify-theorem", "--name", claim.name,
                              "--primes", "7,11", "--json"])
    assert code == code2 == 0
    b_tables = [theorems.b_table(400)]
    label = f"{claim.name} checked {grid[claim.name]} sums"
    honest = _failed(worker.gate_claims([full], {"grid": grid}, b_tables))
    assert label not in honest
    assert label in _failed(worker.gate_claims([short], {"grid": grid}, b_tables))


def test_claims_gate_needs_an_oracle_consistent_b_table():
    grid = {}
    reports = [{"stride": s, "residue": r, "modulus": m, "n_max": n, "passed": True}
               for s, r, m, n in worker.SIMPLE_CLAIMS]
    good = theorems.b_table(400)
    assert _failed(worker.gate_claims([reports], {"grid": grid}, [good])) == []
    bad = good[:]
    bad[123] += 1
    assert _failed(worker.gate_claims([reports], {"grid": grid}, [bad])) == [
        "B tables agree with the triple-counting oracle on [0, 400]"]
    assert _failed(worker.gate_claims([reports], {"grid": grid}, [])) == [
        "B tables agree with the triple-counting oracle on [0, 400]"]


# -- scan ----------------------------------------------------------------------

def test_scan_gate_against_reference():
    _, inputs = worker.build_inputs("scan", 3)
    ref = inputs["reference"]
    families = inputs["families"]
    lit = worker.LITERATURE
    outputs = [[{"stride": a, "residue": r, "modulus": m, "evidence": 501,
                 "known": (a, r, m) in lit[f]} for a, r, m in ref[f]]
               for f in families]
    assert _failed(worker.gate_scan(outputs, inputs)) == []
    i = families.index("B")
    outputs[i] = outputs[i][1:]
    next(h for h in outputs[families.index("p")] if not h["known"])["known"] = True
    assert sorted(_failed(worker.gate_scan(outputs, inputs))) == [
        "scan B hits equal the reference",
        "scan B marks exactly the literature congruences",
        "scan p marks exactly the literature congruences"]


# -- BENCHMARK.json ------------------------------------------------------------

def test_benchmark_json_declares_the_reported_metrics():
    import run
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(worker.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == PER_LAYER


# -- run configuration ---------------------------------------------------------

def test_config_guard():
    assert worker.config_error({}, 0) is None
    assert worker.config_error({"QCONG_THREADS": "1"}, 0) is None
    assert worker.config_error({}, 1)
    assert worker.config_error({"PYTHONOPTIMIZE": "1"}, 0)
    assert worker.config_error({"QCONG_THREADS": "2"}, 0)


def test_run_refuses_optimized_interpreter():
    proc = subprocess.run([sys.executable, "-O", str(BENCH / "run.py"),
                           "--workload", "claims", "--seed", "1", "--seconds", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "PYTHONOPTIMIZE" in proc.stderr


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "claims",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


# -- host speed ----------------------------------------------------------------

def test_sampler_slices_run_on_the_timer_and_are_accounted():
    t0 = time.perf_counter()
    with hostspeed.Sampler(interval=0.005) as sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    elapsed = time.perf_counter() - t0
    assert sampler.count >= 10
    assert 0 < sampler.wall < elapsed and sampler.cpu > 0
    assert sampler.slowness("wall") == pytest.approx(
        sampler.wall / sampler.count / hostspeed.REFERENCE_S)


def test_sampler_takes_one_slice_when_the_timer_never_fired():
    with hostspeed.Sampler(interval=10) as sampler:
        pass
    assert sampler.count == 1 and sampler.slowness() > 0


def test_times_are_scaled_by_the_sampled_slowness():
    import run
    rep = {"wall_s": 6.0, "cpu_s": 4.0, "setup_s": 0.3, "peak_rss_mb": 25.0,
           "slowness": {"wall": 1.5, "cpu": 1.0, "slices": 240},
           "attempted": 3, "failed": []}
    setups = [{"setup_s": 0.3}, {"setup_s": 0.3}, rep]
    result, failed = run.summarize(setups, [rep], [], trace=0)
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values == pytest.approx({"wall_s": 4.0, "cpu_s": 4.0, "setup_s": 0.2,
                                    "peak_rss_mb": 25.0})
    assert (result["attempted"], result["failed"], failed) == (3, 0, [])


# -- tracer arithmetic ---------------------------------------------------------

def test_self_times_on_synthetic_span_tree():
    spans = [
        ["cli.main", -1, 0.0, 10.0],
        ["series.mul", 0, 1.0, 4.0],
        ["expr.evaluate", 0, 5.0, 9.0],
        ["series.divide", 2, 6.0, 7.0],
        ["trace", 0, 9.0, 9.5],
    ]
    selfs, uncovered = self_times(spans, -1.0, 11.0)
    assert selfs == pytest.approx({"cli.main": 2.5, "series.mul": 3.0,
                                   "expr.evaluate": 3.0, "series.divide": 1.0,
                                   "trace": 0.5})
    assert uncovered == pytest.approx(2.0)
    assert sum(selfs.values()) + uncovered == pytest.approx(12.0)


def test_covered_merges_overlaps_and_clips():
    assert _covered([(1, 4), (3, 5), (8, 20)], 0, 10) == pytest.approx(6.0)
    assert _covered([], 0, 10) == 0.0


def _naive_mul_ops(a, b):
    n = min(len(a), len(b))
    return sum(1 for i in range(n) for j in range(n) if a[i] and b[j] and i + j < n)


def _naive_divide_ops(nu, d):
    d = LaurentSeries(d).normalize().coeffs
    n = min(nu, len(d))
    return sum(1 for k in range(n) for j in range(1, k + 1) if j < len(d) and d[j])


def test_kernel_op_counts_match_naive_counts():
    rng = random.Random(7)
    for _ in range(200):
        a = [rng.choice((0, 0, 1, -2)) for _ in range(rng.randrange(1, 25))]
        b = [rng.choice((0, 0, 0, 3)) for _ in range(rng.randrange(1, 25))]
        assert mul_ops(a, b) == _naive_mul_ops(a, b)
        b[0] = rng.choice((0, 1))
        if any(b):
            assert divide_ops(len(a), b) == _naive_divide_ops(len(a), b)
