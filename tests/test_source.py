"""The package source keeps no ``assert`` statement: ``python -O`` strips
them, so a check written as one would silently stop checking.  It reads
no environment variable, so no crossover or cap can be tuned by a knob
that no test or benchmark sees.  And the command line starts without the
modules that dominate an import."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "qcong")
                 .glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


#: the names through which Python reads or sets the environment
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def environment_reads(tree):
    """(line, name) of each attribute, name or imported name of the tree
    in ENVIRONMENT."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
        else:
            names = []
        yield from ((node.lineno, name) for name in names if name in ENVIRONMENT)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_environment_variables(path):
    reads = list(environment_reads(ast.parse(path.read_text())))
    assert reads == [], f"{path.name}: environment read at {reads}"


def test_environment_reads_are_found():
    code = "import os\nfrom os import getenv\nx = os.environ.get('A')\ny = getenv('B')\n"
    assert sorted(environment_reads(ast.parse(code))) == [
        (2, "getenv"), (3, "environ"), (4, "getenv")]


def test_cli_runs_without_dataclasses_or_inspect():
    """Importing ``qcong.cli`` and running a command leaves both modules
    unimported: each costs start-up time on every ``qcong`` command.  The
    interpreter runs without ``site`` (``-S``), whose start-up files are
    not the package's."""
    code = (f"import sys; sys.path.insert(0, {str(SOURCES[0].parent.parent)!r})\n"
            "from qcong.cli import main\n"
            "rc = main(['verify-identity', '--name', 'gf_b_27n16_mod9'])\n"
            "print(rc, sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
