"""Package layout: each layer's public names are the ones `sedenion` exports."""

import ast
import doctest
import importlib
import pathlib
import re
import tokenize

import numpy as np
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
    # Every constant decides something: another module reads it as `_tol.NAME`.
    names = sorted(node.targets[0].id for node in body[1:])
    read = {node.attr for path in src.glob("*.py") if path.name != "_tol.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "_tol"}
    assert [name for name in names if name not in read] == []
    # README's tolerance table names exactly these constants, each once.
    readme = (src.parent.parent / "README.md").read_text()
    table = readme.split("| role | value | name | read by |\n", 1)[1].split("\n\n", 1)[0]
    listed = [name for row in table.splitlines()[1:]
              for name in re.findall(r"`(\w+)`", row.split("|")[3])]
    assert sorted(listed) == names


def _floored_tolerances(tree) -> list[int]:
    """Lines of `_tol.NAME * max(..., 1, ...)`: a tolerance with an absolute floor."""
    def is_tol(node):
        return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "_tol")

    def is_floor(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "max"
                and any(isinstance(arg, ast.Constant) and arg.value == 1 for arg in node.args))

    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and any(is_tol(x) and is_floor(y)
                    for x, y in ((node.left, node.right), (node.right, node.left)))]


def test_no_tolerance_has_an_absolute_floor():
    # A size is negligible when it is at most a `_tol` fraction of the size
    # it is compared with: a `max(1, |x|)` factor would make the test absolute
    # below |x| = 1, so the same input scaled by 2^k could get another answer.
    src = pathlib.Path(sedenion.__file__).resolve().parent
    floored = [f"{path.name}:{line}" for path in sorted(src.glob("*.py"))
               for line in _floored_tolerances(ast.parse(path.read_text()))]
    assert floored == []
    assert _floored_tolerances(ast.parse("e = _tol.UNIT_EQ * max(na, 1.0)\n"
                                         "f = max(1, abs(x)) * _tol.DEGENERATE")) == [1, 2]


def test_display_dust_is_read_only_by_the_element_writer():
    # One dust rule for every printed coefficient, text and JSON alike: the
    # one function that reads DISPLAY_DUST is cli._written.
    src = pathlib.Path(sedenion.__file__).resolve().parent
    readers = []
    for path in sorted(src.glob("*.py")):
        if path.name == "_tol.py":
            continue
        tree = ast.parse(path.read_text())
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            if "DISPLAY_DUST" in (getattr(node, "attr", None), getattr(node, "id", None),
                                  getattr(node, "name", None)):
                owners = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                readers.append((path.stem, owners[-1] if owners else None))
    assert readers == [("cli", "_written")]


def _mutable(value) -> bool:
    """A list, dict, set or writable array, also inside a tuple."""
    if isinstance(value, tuple):
        return any(map(_mutable, value))
    return isinstance(value, (list, dict, set, bytearray)) or (
        isinstance(value, np.ndarray) and value.flags.writeable)


def test_no_module_holds_mutable_state():
    # Module-level names hold constants: no list, dict, set or writable
    # array (`__all__` and the interpreter's own dunders aside), and no memo:
    # every memo lives on the sequence or Domain it describes.
    src = pathlib.Path(sedenion.__file__).resolve().parent
    stray, memos, decorated = [], set(), []
    for path in sorted(src.glob("*.py")):
        name = "sedenion" if path.stem == "__init__" else f"sedenion.{path.stem}"
        for attr, value in vars(importlib.import_module(name)).items():
            if attr.startswith("__") and attr.endswith("__"):
                continue
            if _mutable(value):
                stray.append(f"{name}.{attr}")
            if hasattr(value, "cache_info"):
                memos.add(f"{value.__module__}.{value.__qualname__}")
        for node in ast.walk(ast.parse(path.read_text())):
            for deco in getattr(node, "decorator_list", ()):
                target = deco.func if isinstance(deco, ast.Call) else deco
                if getattr(target, "attr", getattr(target, "id", None)) in ("lru_cache", "cache"):
                    decorated.append(f"{name}.{node.name}")
    assert stray == []
    assert memos == set()
    assert decorated == []


# Each result record: its fields in order, a keyword construction and the
# repr that construction must print.
RECORDS = [
    ("DomainReport", ("r_a", "r_ap", "witness", "case", "approximate"),
     dict(r_a=2.0, r_ap=3.0, witness=None, case="c"),
     "DomainReport(r_a=2.0, r_ap=3.0, witness=None, case='c', approximate=False)"),
    ("EvalReport", ("partial_sum", "terms_used", "verdict", "tail_norm"),
     dict(partial_sum="s", terms_used=5, verdict="v", tail_norm=0.5),
     "EvalReport(partial_sum='s', terms_used=5, verdict='v', tail_norm=0.5)"),
    ("ScanRow", ("theta", "re", "im", "predicted", "empirical", "terms_used", "tail_norm"),
     dict(theta=0.5, re=1.0, im=-1.0, predicted="p", empirical="e", terms_used=3,
          tail_norm=0.0),
     "ScanRow(theta=0.5, re=1.0, im=-1.0, predicted='p', empirical='e', terms_used=3, "
     "tail_norm=0.0)"),
    ("ScanResult", ("rows", "scored", "agreed"),
     dict(rows=(), scored=4, agreed=3),
     "ScanResult(rows=(), scored=4, agreed=3)"),
    ("HyperSolution", ("j1", "j2", "alpha", "frame"),
     dict(j1="a", j2="b", alpha=1.0, frame=("i1", "i2")),
     "HyperSolution(j1='a', j2='b', alpha=1.0, frame=('i1', 'i2'))"),
    ("ZeroProductCertificate",
     ("product_is_zero", "norms_match", "triple_special", "d_matches_formula", "d_formula",
      "product_norm"),
     dict(product_is_zero=True, norms_match=True, triple_special=False,
          d_matches_formula=False, d_formula=None, product_norm=0.0),
     "ZeroProductCertificate(product_is_zero=True, norms_match=True, triple_special=False, "
     "d_matches_formula=False, d_formula=None, product_norm=0.0)"),
    ("OrthoDecomposition", ("o_part", "ker_part", "kerc_part"),
     dict(o_part="o", ker_part="k", kerc_part="c"),
     "OrthoDecomposition(o_part='o', ker_part='k', kerc_part='c')"),
    ("PQProjection", ("eq_part", "perp_part", "neg_eq_part", "pm_part"),
     dict(eq_part="e", perp_part="p", neg_eq_part="n", pm_part="m"),
     "PQProjection(eq_part='e', perp_part='p', neg_eq_part='n', pm_part='m')"),
]


@pytest.mark.parametrize("name, fields, kwargs, text", RECORDS, ids=[r[0] for r in RECORDS])
def test_result_records_are_named_tuples(name, fields, kwargs, text):
    cls = getattr(sedenion, name)
    assert issubclass(cls, tuple) and cls._fields == fields
    record = cls(**kwargs)
    assert repr(record) == text
    assert tuple(record) == tuple(getattr(record, f) for f in fields)
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)
