"""Run the committed mutants of ``tests/mutants.py`` and report survivors.

    python tests/run_mutants.py [MUTANT_ID ...]

For each mutant (all of them, or the ones named), the repository's
``src/`` and ``tests/`` are copied to a temporary directory, the mutant's
snippet is replaced there, and its named tests run on the copy with a
fixed Hypothesis seed and without shrinking (a mutant needs a failure,
not a minimal one), so a run is repeatable and the repository's own
Hypothesis database is not touched.  A mutant is killed when each of its
named tests fails (or the mutated source cannot be collected, or its tests
run past the timeout); otherwise it survives, and every test that passed
on it is named.  Before any mutant, the named tests of the chosen mutants
run once on an unmutated copy with the same seed and settings: a test
that fails there would kill every mutant that names it, so each such test
is named and the runner exits with 1.  The exit code is 0 when every
mutant is killed, else 1.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS  # noqa: E402

#: seconds one mutant's tests may run before it counts as killed (a hang)
TIMEOUT = 600

#: the copy's conftest: Hypothesis generates examples but shrinks no failure
NO_SHRINK = """from hypothesis import Phase, settings
settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate])
settings.load_profile("mutants")
"""


def copy_tree(work):
    """The repository's source and tests, unmutated, in ``work``."""
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, work / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", work)
    (work / "conftest.py").write_text(NO_SHRINK)


def failing(tests, work):
    """The tests among ``tests`` that fail (or error) in ``work``, or None
    when the run cannot tell: a run past the timeout or a source that cannot
    be collected.  Any other run that cannot tell raises RuntimeError."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *tests]
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode == 2:  # the source broke collection
        return None
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    named = [t for t in tests if any(f == t or f.startswith(t + "[") for f in failed)]
    if proc.returncode != (1 if named else 0):
        raise RuntimeError(f"pytest exited with {proc.returncode}: "
                           f"{(proc.stdout + proc.stderr).strip()[-2000:]}")
    return named


def survivors(mutant, work):
    """What lets ``mutant``, applied in ``work``, survive: each named test
    that passes on it, or the reason the run could not tell."""
    copy_tree(work)
    path = work / mutant.file
    text = path.read_text()
    if text.count(mutant.snippet) != 1:
        return [f"snippet occurs {text.count(mutant.snippet)} times in {mutant.file}"]
    path.write_text(text.replace(mutant.snippet, mutant.replacement))
    try:
        failed = failing(mutant.tests, work)
    except RuntimeError as ex:
        return [str(ex)]
    if failed is None:  # a hang or a source that cannot be collected
        return []
    return [f"passed: {t}" for t in mutant.tests if t not in failed]


def main(argv):
    chosen = [m for m in MUTANTS if not argv or m.id in argv]
    unknown = set(argv) - {m.id for m in MUTANTS}
    if unknown:
        print(f"unknown mutant ids: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    start, survived = time.perf_counter(), 0
    with tempfile.TemporaryDirectory() as tmp:
        tests = list(dict.fromkeys(t for m in chosen for t in m.tests))
        work = Path(tmp) / "unmutated"
        copy_tree(work)
        try:
            failed = failing(tests, work)
        except RuntimeError as ex:
            failed = [str(ex)]
        if failed is None:
            failed = [f"the run was not collected or ran past {TIMEOUT} s"]
        if failed:
            print("the unmutated source fails named tests:", file=sys.stderr)
            for reason in failed:
                print(f"          {reason}", file=sys.stderr)
            return 1
        print(f"unmutated {len(tests)} named tests pass  "
              f"{time.perf_counter() - start:.1f} s", flush=True)
        for mutant in chosen:
            t0 = time.perf_counter()
            passed = survivors(mutant, Path(tmp) / mutant.id)
            status = "SURVIVED" if passed else "killed"
            survived += bool(passed)
            print(f"{status:<9} {mutant.id}  {time.perf_counter() - t0:.1f} s", flush=True)
            for reason in passed:
                print(f"          {reason}", flush=True)
    print(f"{len(chosen)} mutants, {len(chosen) - survived} killed, {survived} "
          f"survived, in {time.perf_counter() - start:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
