"""qcong benchmark: time to a verified verdict, per workload.

    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Workloads (see perfbench/README.md for why each exists):

  catalog  every identity of the catalog, in a seed-permuted order
  claims   verify-theorem --all with 71 and three seed-drawn sample primes
  scan     the affine congruence scan of five families, seed-permuted

Every repetition is a fresh interpreter (``worker.py``), because that is
how a user pays for a ``qcong`` command: the ``lru_cache``d builders start
cold.  Repetitions run one after another (closed loop, one caller) until
the next one would pass ``--seconds``; at least three untraced ones run.
Each is preceded by two set-up-only launches, so ``setup_s`` is a median
of many interpreter launches.  Every repetition's verdicts are checked by the
worker's gates, untimed.

The host's speed drifts by up to 1.5x for minutes at a time, so times are
reported at a reference speed (``hostspeed``): an untraced repetition
samples a fixed calibration slice every 25 ms while it runs and divides its
wall and CPU time by the slowness the slices show; the median set-up time is
divided by the median slowness of the run's repetitions (a probe timed in
the idle parent just before a launch reads the wake-up of a cold core, not
the host's speed).  The raw times are listed on the line before the result.

With ``--trace 0`` the result holds the end-to-end metrics (medians over
untraced repetitions); with ``--trace 1`` untraced and traced repetitions
alternate, and the result holds the per-layer metrics of the traced
repetition with the (lower) median wall time, plus ``trace_overhead``,
traced over untraced median wall time.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}; the line before it records the run configuration.  The exit code
is 0 when every gate passed, 1 when one failed, and 2 when the run could
not be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER
from worker import ROOT, WORKLOADS, config_error

WORKER = Path(__file__).with_name("worker.py")
MIN_REPS = 3
SETUP_LAUNCHES = 2   # set-up-only launches before each repetition
REP_TIMEOUT_S = 120   # keeps a whole run under 180 s with --seconds <= 40

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def launch(workload, seed, trace=False, setup_only=False):
    """Run one repetition in a fresh interpreter and return its record,
    with ``setup_s`` measured from just before the launch."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} repetition exceeded {REP_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["setup_s"] = rec.pop("ready") - start
    rec["duration_s"] = time.monotonic() - start
    return rec


def measure(workload, seed, seconds, trace):
    """Repetitions until the next would end after ``seconds``."""
    launch(workload, seed, setup_only=True)  # writes bytecode caches; not counted
    start = time.monotonic()
    setups, plain, traced = [], [], []
    while True:
        setups += [launch(workload, seed, setup_only=True)
                   for _ in range(SETUP_LAUNCHES)]
        traced_turn = trace and len(plain) > len(traced)
        rec = launch(workload, seed, trace=traced_turn)
        setups.append(rec)
        (traced if traced_turn else plain).append(rec)
        done = len(traced) >= 1 if trace else len(plain) >= MIN_REPS
        # when tracing, the next repetition has the other mode
        nxt = (plain if traced_turn else traced) if trace else plain
        est = (nxt[-1] if nxt else rec)["duration_s"]
        if done and time.monotonic() - start + est > seconds:
            return setups, plain, traced


def at_reference(rec, clock):
    """A repetition's wall or CPU time at the reference host speed."""
    return rec[f"{clock}_s"] / rec["slowness"][clock]


def summarize(setups, plain, traced, trace):
    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = [name for r in reps for name in r["failed"]]
    if trace:
        # one repetition's layers, so that its self times add up to its wall time
        mid = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
        metrics = dict(mid["layers"])
        metrics["trace_overhead"] = (statistics.median([r["wall_s"] for r in traced])
                                     / statistics.median([r["wall_s"] for r in plain]))
        units = {k: u for k, (u, _) in PER_LAYER.items()}
    else:
        metrics = {
            "wall_s": statistics.median(at_reference(r, "wall") for r in plain),
            "cpu_s": statistics.median(at_reference(r, "cpu") for r in plain),
            "setup_s": (statistics.median(r["setup_s"] for r in setups)
                        / statistics.median(r["slowness"]["wall"] for r in plain)),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = END_TO_END
    result = {"correct": not failed, "attempted": attempted, "failed": len(failed),
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    return result, failed


def run_info(workload, seed, seconds, trace, setups, plain, traced, failed, attempted):
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qcong").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": commit, "source_sha256": digest.hexdigest(),
        "reps": len(plain), "traced_reps": len(traced),
        "wall_s_samples": [at_reference(r, "wall") for r in plain],
        "wall_s_raw_samples": [r["wall_s"] for r in plain],
        "cpu_s_raw_samples": [r["cpu_s"] for r in plain],
        "slowness_samples": [r["slowness"] for r in plain],
        "setup_s_raw_samples": [r["setup_s"] for r in setups],
        "failed_frac": f"{len(failed)}/{attempted}",
        "failed_checks": failed,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="qcong benchmark")
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    err = config_error()
    if err:
        print(err, file=sys.stderr)
        return 2
    if not (ROOT / "src" / "qcong" / "__init__.py").is_file():
        print(f"no qcong sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        try:
            setups, plain, traced = measure(w, args.seed, args.seconds, args.trace)
        except BenchError as ex:
            print(ex, file=sys.stderr)
            return 2
        result, failed = summarize(setups, plain, traced, args.trace)
        print(json.dumps(run_info(w, args.seed, args.seconds, args.trace, setups,
                                  plain, traced, failed, result["attempted"])))
        for k, m in result["metrics"].items():
            print(f"{w} {k} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
        print(f"{w} failed_frac = {len(failed)}/{result['attempted']}", file=sys.stderr)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = f"{w}." if args.workload == "all" else ""
        combined["metrics"].update({prefix + k: m for k, m in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
