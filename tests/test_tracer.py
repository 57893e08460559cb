"""The benchmark's per-layer tracer still finds the names it wraps.

``perfbench/tracer.py`` rebinds qcong functions by name; a renamed or
deleted name would otherwise only show up in a traced benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, sys, time
sys.path[:0] = [sys.argv[1] + "/perfbench", sys.argv[1] + "/src"]
from qcong import cli, products
from tracer import Tracer

# the tracer reads the hit ratios of these caches
caches = [callable(getattr(getattr(products, name), "cache_info", None))
          for name in ("_expand_factors", "euler_f")]
tracer = Tracer()
tracer.install()
codes = []
t0 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(cli.main(["verify-theorem", "--name", "altsum-9n-mod3",
                           "--nmax", "3", "--json"]))
    codes.append(cli.main(["verify-identity", "--name", "gf_b_3n2",
                           "--order", "30"]))
    codes.append(cli.main(["scan", "--name", "B", "--amax", "2",
                           "--moduli", "2", "--nmax", "50"]))
    # one quotient through two windows: the shorter is served from the cache
    codes.append(cli.main(["expand", "--name", "b", "--order", "60"]))
    codes.append(cli.main(["coeff", "--name", "b", "--n", "40"]))
print(json.dumps({"codes": codes, "caches": caches,
                  "layers": tracer.report(t0, time.perf_counter())}))
"""


def test_tracer_installs_on_the_package():
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0, 0, 0]
    assert result["caches"] == [True, True]
    assert result["layers"]["theorems.b_table.calls"] > 0
    assert result["layers"]["partitions.count_triples.self_s"] > 0
    assert result["layers"]["expr.evaluate.calls"] > 0
    assert result["layers"]["products.fquotient.calls"] > 0
    assert result["layers"]["products.fquotient.hit_ratio"] > 0
    # the expression walk enters ``evaluate`` once per top-level tree and
    # looks ``fquotient`` up in the module at each call: a node method that
    # re-entered ``evaluate`` or held on to a builder would change these
    assert result["layers"]["expr.evaluate.calls"] == 4
    assert result["layers"]["products.fquotient.calls"] == 5
