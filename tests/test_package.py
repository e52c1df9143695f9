"""Package layout: each layer's public names are the ones `sedenion` exports."""

import doctest
import importlib
import pathlib
import re

import pytest

import sedenion


@pytest.mark.parametrize("layer", ["algebra", "zerodiv", "slices", "series"])
def test_layer_all_resolves_and_is_reexported(layer):
    module = importlib.import_module(f"sedenion.{layer}")
    missing = [name for name in module.__all__
               if getattr(sedenion, name, None) is not getattr(module, name)]
    assert missing == []


def test_readme_python_examples_run():
    # Every ```python block of README.md is a doctest session run as written.
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.S | re.M))
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    attempted = 0
    for m in blocks:
        line = text.count("\n", 0, m.start(1))
        test = parser.get_doctest(m[1], {}, f"README.md:{line + 1}", str(readme), line)
        failed, tried = runner.run(test)
        assert failed == 0, test.name
        attempted += tried
    assert len(blocks) >= 3 and attempted == text.count("\n>>> ")
