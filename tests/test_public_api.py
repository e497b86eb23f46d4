"""The package's public names resolve, and so do those README names and
README's gradcheck keys."""

import ast
import importlib
import io
import math
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import cusa
import cusa.losses
from cusa import cli, gradcheck

README = Path(__file__).resolve().parents[1] / "README.md"


def test_exported_names_resolve():
    namespace = {}
    exec("from cusa import *", namespace)  # raises on a dangling name in cusa.__all__
    for module in (cusa, cusa.losses):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"


def _library_example(text: str) -> str:
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs(tmp_path, monkeypatch):
    """README's Library example trains and evaluates on the `demo` bundle
    that README's own `synth` command makes."""
    text = README.read_text(encoding="utf-8")
    [synth] = re.findall(r"^cusa (synth .*)$", text, flags=re.MULTILINE)
    monkeypatch.chdir(tmp_path)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert cli.main(shlex.split(synth)) == 0
    namespace = {}
    exec(_library_example(text), namespace)
    assert namespace["log"].records
    assert math.isfinite(namespace["report"]["rsum"])


def test_readme_library_names_resolve():
    """Every name README's Library section imports in its example, or
    lists as importable (`cusa.<module>`: `name`, ...), exists."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    example = _library_example(text)
    names = [(node.module, alias.name) for node in ast.walk(ast.parse(example))
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    listed = re.findall(r"\(`(cusa\.\w+)`:\s+((?:`\w+`,?\s*)+)\)", section)
    assert {"cusa.losses", "cusa.softlabels", "cusa.mathops"} <= {m for m, _ in listed}
    names += [(module, name) for module, block in listed
              for name in re.findall(r"`(\w+)`", block)]
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"README names that do not resolve: {missing}"


def test_readme_gradcheck_keys_match_the_report():
    """The `loss.*` and `model.*` names of README's gradcheck paragraph
    are the keys of a gradcheck report."""
    text = README.read_text(encoding="utf-8")
    paragraph = text.split("`gradcheck` compares every gradient component", 1)[1]
    listed = re.findall(r"`((?:loss|model)\.\w+)`", paragraph.split("\n\n", 1)[0])
    assert sorted(listed) == sorted(gradcheck.run(trials=1, base_seed=0))
