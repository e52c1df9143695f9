"""Package layout: each layer's public names are the ones `sedenion` exports."""

import ast
import doctest
import importlib
import pathlib
import re
import tokenize

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


def test_tolerances_live_only_in_the_tol_module():
    # A numeric literal with a negative exponent is a threshold; _tol.py names
    # each one by role and holds nothing but such constants.  Strings and
    # docstrings are not NUMBER tokens, so help text and prose may quote values.
    src = pathlib.Path(sedenion.__file__).resolve().parent
    stray = []
    for path in sorted(src.glob("*.py")):
        if path.name == "_tol.py":
            continue
        with path.open("rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if tok.type == tokenize.NUMBER and re.search(r"[eE]-", tok.string):
                    stray.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert stray == []
    body = ast.parse((src / "_tol.py").read_text()).body
    assert isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)
    for node in body[1:]:
        assert isinstance(node, ast.Assign) and len(node.targets) == 1, ast.dump(node)
        assert node.targets[0].id.isupper() and isinstance(node.value, ast.Constant)
        assert type(node.value.value) in (int, float)
