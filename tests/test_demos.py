"""Each demo script runs to completion, and README's examples give the
values their comments state, against the package in this checkout."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

from varcomp.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    assert out.stdout.strip()
    assert "FAIL" not in out.stdout


def _readme_block(heading, lang):
    """The lines of the first ```lang block after README's line heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    after = text.split(heading + "\n", 1)[1]
    return after.split(f"```{lang}\n", 1)[1].split("```", 1)[0].splitlines()


def test_readme_library_example_gives_its_commented_values():
    # each expression statement's value is what its comment starts with
    namespace: dict = {}
    values, comments = [], []
    for line in _readme_block("## Library example", "python"):
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        if isinstance(ast.parse(code).body[0], ast.Expr):
            values.append(repr(eval(code, namespace)))
            comments.append(comment.split(",")[0].strip())
        else:
            exec(code, namespace)
    assert values == comments == ["0.8717418202537247", "['pass']", "{'pass'}"]
    assert namespace["c"] > 0 and namespace["d"] > 0  # region 3


def test_readme_command_line_gives_its_commented_values(capsys):
    # every command whose comment is a number prints that number
    checked = []
    for line in _readme_block("## Command line", "sh"):
        command, _, comment = line.partition("#")
        try:
            float(comment)
        except ValueError:
            continue
        argv = command.split()[1:]
        assert main(argv) == 0
        assert capsys.readouterr().out == comment.strip() + "\n"
        checked.append(argv)
    assert checked == [["varprob", "--dist", "normal"],
                       ["varprob", "--dist", "chisq", "--k", "1"]]
