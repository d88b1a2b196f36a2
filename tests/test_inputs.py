"""Public surface and input parsers: every export resolves, the package
docstring's example runs, and malformed input only ever raises
``ValueError`` (exit code 2 on the command line).

The parsers are fuzzed with Hypothesis over arbitrary text and JSON values.
Systems stay at 12 voters or fewer so that each example runs fast.
"""

import contextlib
import doctest
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

import banzhaf
from banzhaf import parse_sop, parse_sym, sop_names
from banzhaf.cli import main


def test_every_export_resolves():
    for name in banzhaf.__all__:
        assert getattr(banzhaf, name) is not None


def test_package_docstring_example_runs():
    failed, attempted = doctest.testmod(banzhaf)
    assert attempted >= 1 and failed == 0


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


@settings(max_examples=300, deadline=None)
@given(
    st.text()
    | st.builds(
        "Sy({}; {{{}}}; {})".format,
        st.integers(-2, 40),
        st.text(alphabet="0123456789, -", max_size=12),
        st.text(max_size=12),
    )
)
def test_parse_sym_fuzz(text):
    returns_or_raises_value_error(parse_sym, text)


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
