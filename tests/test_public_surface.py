"""The public names of qgfit: every `__all__` entry exists, and README's library examples run."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import qgfit

README = Path(__file__).parents[1] / "README.md"
# The package and each of its modules that declares `__all__`.
PUBLIC_MODULES = [
    name
    for name in ["qgfit", *(f"qgfit.{m.name}" for m in pkgutil.iter_modules(qgfit.__path__))]
    if hasattr(importlib.import_module(name), "__all__")
]


@pytest.mark.parametrize("module", PUBLIC_MODULES)
def test_all_entries_are_attributes(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_readme_library_quick_start_runs(capsys):
    # every python block of the section, each in a fresh namespace; the first fits one curve
    readme = README.read_text(encoding="utf-8")
    section = readme.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) >= 2
    for i, code in enumerate(blocks, 1):
        exec(compile(code, f"README.md, Library quick start block {i}", "exec"), {})
        if i == 1:
            q, beta, converged = capsys.readouterr().out.split()
            assert float(q) == pytest.approx(1.53, abs=0.02)
            assert float(beta) == pytest.approx(1.78, rel=0.02)
            assert converged == "True"
