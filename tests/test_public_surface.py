"""The public names of qgfit: every `__all__` entry exists, and README's library example runs."""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).parents[1] / "README.md"


@pytest.mark.parametrize(
    "module", ["qgfit", "qgfit.qgaussian", "qgfit.estimation", "qgfit.returns", "qgfit.special"]
)
def test_all_entries_are_attributes(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_readme_library_quick_start_runs(capsys):
    readme = README.read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    q, beta, converged = capsys.readouterr().out.split()
    assert float(q) == pytest.approx(1.53, abs=0.02)
    assert float(beta) == pytest.approx(1.78, rel=0.02)
    assert converged == "True"
