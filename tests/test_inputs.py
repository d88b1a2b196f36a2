"""Public surface and input parsers: every export resolves, the package
docstring's example and the README's Python blocks run, the README names
every export, and malformed input only ever raises ``ValueError`` (exit
code 2 on the command line).

The parsers are fuzzed with Hypothesis over arbitrary text and JSON values.
Systems stay at 12 voters or fewer so that each example runs fast.
"""

import contextlib
import doctest
import io
import json
import re
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import banzhaf
from banzhaf import parse_sop, sop_names
from banzhaf.cli import main


def test_every_export_resolves():
    for name in banzhaf.__all__:
        assert getattr(banzhaf, name) is not None


def test_package_docstring_example_runs():
    failed, attempted = doctest.testmod(banzhaf)
    assert attempted >= 1 and failed == 0


def test_readme_runs_and_names_the_public_api():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:  # in order, so later blocks see earlier names
        exec(compile(block, "README.md", "exec"), namespace)
    missing = [name for name in banzhaf.__all__ if not re.search(rf"\b{name}\b", readme)]
    assert missing == []


def returns_or_raises_value_error(fn, *args):
    try:
        fn(*args)
    except ValueError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.text(), st.none() | st.lists(st.text(max_size=4), max_size=12))
def test_parse_sop_fuzz(text, names):
    if names is None:
        names = sop_names(text)[:12]
    returns_or_raises_value_error(parse_sop, text, names)


SMALL_INT = st.integers(-3, 1000) | st.just(10**30)
JSON_SCALAR = (
    st.none() | st.booleans() | SMALL_INT | st.floats(allow_nan=False) | st.text(max_size=4)
)
KEY = st.sampled_from(["quota", "weights", "names"]) | st.text(max_size=4)
JSON_VALUE = st.recursive(
    JSON_SCALAR,
    lambda inner: st.lists(inner, max_size=12) | st.dictionaries(KEY, inner, max_size=4),
    max_leaves=24,
)
DOCUMENT = st.fixed_dictionaries(
    {},
    optional={
        "quota": st.integers(-3, 12000) | JSON_SCALAR,
        "weights": st.lists(SMALL_INT | JSON_SCALAR, max_size=12) | JSON_SCALAR,
        "names": st.lists(st.text(max_size=3) | JSON_SCALAR, max_size=12) | JSON_SCALAR,
    },
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUE | DOCUMENT)
def test_analyze_input_fuzz(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzz-input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["analyze", "--input", str(path), "--no-oracle"])
    assert code in (0, 2, 4)
