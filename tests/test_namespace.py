"""The package namespace is README's API, and README's imports run.

Re-exporting a name from ``tomobell`` is a decision: it goes into
``API`` below and into README's list together.
"""

import re
from pathlib import Path

import tomobell

README = Path(__file__).resolve().parents[1] / "README.md"

API = sorted([
    "CatState", "CoherentProduct", "GaussianSpec", "gaussian_purity_family",
    "make_source", "cat_tomogram", "coherent_tomogram",
    "gaussian_tomogram_table", "load_state", "parse_state",
    "PartitionScheme", "PortraitVector", "make_portrait_fn", "portrait_truncated",
    "BellSettings", "BellMatrix", "I_MATRIX", "TSIRELSON_BOUND", "bell_matrix",
    "bell_number", "ChshVerdict", "chsh_check", "MaximizeConfig", "MaximizeResult",
    "maximize_bell", "get_bell_high_water",
    "TomobellError", "InvalidParameter", "NonPhysicalSpec", "UnsupportedState",
    "NumericalNegativity", "TailTooLarge", "InvalidStochasticMatrix",
    "InvalidBellNumber",
])

# a whole import statement: one line, or a parenthesized list over several
_IMPORT = re.compile(r"^from tomobell(?:\.\w+)? import (?:\([^)]*\)|.*)$", re.MULTILINE)


def _readme_imports():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    return [m.group(0) for block in blocks for m in _IMPORT.finditer(block)]


def test_all_is_the_documented_api():
    assert len(API) == len(set(API)) == 34
    assert sorted(tomobell.__all__) == API
    assert len(tomobell.__all__) == len(set(tomobell.__all__))


def test_every_exported_name_resolves():
    namespace = {}
    exec("from tomobell import *", namespace)
    for name in tomobell.__all__:
        assert namespace[name] is getattr(tomobell, name), name


def test_readme_imports_run():
    statements = _readme_imports()
    # the quick start, the API list and the three module imports
    assert len(statements) == 5
    api = next(s for s in statements if s.startswith("from tomobell import ("))
    listed = re.findall(r"\b\w+\b", re.sub(r"#.*", "", api.split("(", 1)[1]))
    assert sorted(listed) == API
    for statement in statements:
        exec(statement, {})
