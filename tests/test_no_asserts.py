"""No module of the package uses an assert statement, and `python -O`
changes no output.

`python -O` strips assert statements, so an invariant written as one would
go unchecked there; the package raises its own errors instead. The static
scan finds such statements; the subprocess runs check that the CLI prints
the same bytes and exits with the same code with and without -O.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "idtest"
MODULES = sorted(SRC.glob("*.py"))


def assert_lines(source: str) -> list[int]:
    """Line numbers of the assert statements in source."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert)
    )


def test_scan_finds_an_assert():
    source = "def f(x):\n    if x:\n        assert x > 0, 'x'\n    return x\n"
    assert assert_lines(source) == [3]


def test_scan_ignores_the_word():
    assert assert_lines("# assert x\ns = 'assert y'\nassert_ok = 1\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_assert(path):
    assert assert_lines(path.read_text()) == []


# Runs the CLI on the arguments after -c, first reporting the optimize flag
# on stderr so that the test can see -O took effect in the child.
CHILD = (
    "import sys; from idtest.cli import main; "
    "print(f'optimize={sys.flags.optimize}', file=sys.stderr); "
    "sys.exit(main(sys.argv[1:]))"
)


@pytest.fixture(scope="module")
def pmf_files(tmp_path_factory):
    from idtest.distributions import uniform_pmf, zipf_pmf
    from idtest.io import write_pmf

    root = tmp_path_factory.mktemp("pmfs")
    paths = {}
    for name, make in (("uniform", uniform_pmf), ("zipf", zipf_pmf)):
        paths[name] = root / f"{name}.pmf"
        write_pmf(paths[name], make(1024))
    return paths


@pytest.mark.parametrize(
    "argv, code",
    [
        (["test", "--pmf", "{uniform}", "--q", "self", "--eps", "0.5", "--seed", "7"], 0),
        # zipf p is not constant: it runs the coarse stage, which rejects it
        (["test", "--pmf", "{zipf}", "--q", "self", "--eps", "0.5", "--seed", "7"], 1),
        (["lemma-check", "--n", "100", "--delta", "0.4", "--trials", "45",
          "--seed", "2"], 0),
    ],
    ids=["test-uniform", "test-zipf", "lemma-check"],
)
def test_dash_o_changes_no_output(pmf_files, argv, code):
    argv = [a.format(**pmf_files) for a in argv]
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    plain, optimized = (
        subprocess.run([sys.executable, *flags, "-c", CHILD, *argv], env=env,
                       capture_output=True, check=False)
        for flags in ([], ["-O"])
    )
    assert plain.stderr.splitlines()[0] == b"optimize=0"
    assert optimized.stderr.splitlines()[0] == b"optimize=1"
    assert plain.returncode == optimized.returncode == code
    assert plain.stdout and optimized.stdout == plain.stdout
