"""Command-line surface: outputs, whole-report bytes, exit codes, determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import banzhaf
from banzhaf import cli
from banzhaf import parse_sop, sop_names, sop_to_tt
from banzhaf.cli import main
from test_sop import minterm_sop

SRC = str(Path(banzhaf.__file__).resolve().parent.parent)

EEC_ARGS = ["--quota", "12", "--weights", "4,4,4,2,2,1", "--names", "F,G,I,B,N,L"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_table_output(capsys):
    code, out, err = run_cli(capsys, "analyze", *EEC_ARGS)
    assert code == 0 and err == ""
    assert "F      4       5    5/21  0.238095" in out
    assert "B      2       3    1/7   0.142857" in out
    assert "L      1       0    0     0.000000" in out
    assert "dummies: L" in out
    assert "classes: {F,G,I} {B,N} {L}" in out
    assert "oracle: verified" in out


def test_analyze_json_output(capsys):
    code, out, err = run_cli(capsys, "analyze", *EEC_ARGS, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tbp"] == [5, 5, 5, 3, 3, 0]
    assert doc["ntbp"][0] == {"num": 5, "den": 21, "decimal": "0.238095"}
    assert doc["dummies"] == ["L"]
    assert doc["symmetry_classes"] == [["F", "G", "I"], ["B", "N"], ["L"]]
    assert doc["checks"] == {"monotone": True, "causal": True, "constant": False}
    assert doc["oracle_verified"] is True
    assert list(doc) == [
        "n", "quota", "weights", "names", "tbp", "ntbp",
        "dummies", "symmetry_classes", "checks", "oracle_verified",
    ]


def test_analyze_nine_member_denominators(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--quota", "41", "--weights", "10,10,10,10,5,5,3,3,2",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["tbp"] == [53, 53, 53, 53, 29, 29, 21, 21, 5]
    assert {entry["den"] for entry in doc["ntbp"]} == {317}
    assert doc["names"][0] == "X1"  # defaults when --names is omitted


def test_analyze_constant_system_exit_code(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--quota", "7", "--weights", "1,1,1")
    assert code == 4
    assert "constant=true" in out
    assert "dummies: X1 X2 X3" in out


def test_analyze_no_oracle_flag(capsys):
    code, out, _ = run_cli(capsys, "analyze", *EEC_ARGS, "--no-oracle")
    assert code == 0
    assert "oracle: not run (disabled)" in out


def test_analyze_oracle_skipped_above_auto_limit(capsys):
    fourteen = ["--quota", "8", "--weights", ",".join(["1"] * 14)]
    code, out, _ = run_cli(capsys, "analyze", *fourteen)
    assert code == 0
    assert out.endswith("oracle: not run (n > 12)\n")
    code, out, _ = run_cli(capsys, "analyze", *fourteen, "--format", "json")
    assert json.loads(out)["oracle_verified"] is False
    code, out, _ = run_cli(capsys, "analyze", *fourteen, "--no-oracle")
    assert code == 0
    assert out.endswith("oracle: not run (disabled)\n")  # the flag says why, not n


def test_analyze_huge_weights_need_no_oracle(capsys):
    huge = ["--quota", str(2 * 10**12), "--weights", f"{10**12 - 1},{10**12},{10**12 + 1}"]
    # the subset-sum table is over its cap, so the cross-check runs the other sources
    code, out, err = run_cli(capsys, "analyze", *huge)
    assert code == 0 and err == ""
    assert out.endswith("oracle: verified\n")
    for flags in ([], ["--no-oracle"]):
        code, out, _ = run_cli(capsys, "analyze", *huge, *flags, "--format", "json")
        assert code == 0
        assert json.loads(out)["tbp"] == [1, 1, 3]


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--input", "empty_names.json"],
        ["analyze", "--quota", "2", "--weights", "1,1", "--names", ""],
        ["weight", "X1 X2", "--names", ""],
        ["derivative", "--expr", "X1 X2", "--voter", "X1", "--names", ""],
    ],
)
def test_empty_name_lists_are_refused(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("empty_names.json").write_text('{"quota": 2, "weights": [1, 1], "names": []}')
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err


def test_analyze_from_input_file(tmp_path, capsys):
    payload = {"quota": 12, "weights": [4, 4, 4, 2, 2, 1], "names": list("FGIBNL")}
    path = tmp_path / "system.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out, _ = run_cli(capsys, "analyze", "--input", str(path))
    assert code == 0
    assert "dummies: L" in out


def test_analyze_input_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "analyze", "--quota", "3")
    assert code == 2 and "need --quota and --weights" in err
    code, _, err = run_cli(capsys, "analyze", "--quota", "3", "--weights", "1,x")
    assert code == 2 and "integer list" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", "--input", str(bad))
    assert code == 2
    code, _, err = run_cli(capsys, "analyze", "--input", str(tmp_path / "missing.json"))
    assert code == 2


@pytest.mark.parametrize("command", [["analyze"], ["derivative", "--voter", "A"]])
def test_input_refuses_names_next_to_it(command, tmp_path, capsys):
    payload = {"quota": 12, "weights": [4, 4, 4, 2, 2, 1], "names": list("FGIBNL")}
    path = tmp_path / "system.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = run_cli(capsys, *command, "--input", str(path), "--names", "A,B,C,D,E,Z")
    assert code == 2 and out == ""
    assert "give either --input or --quota/--weights/--names, not both" in err


def test_analyze_malformed_input_documents(tmp_path, capsys):
    base = {"quota": 2, "weights": [1, 1, 1]}
    for text, message in [
        (json.dumps([2, [1, 1, 1]]), "JSON object"),
        ("[" * 100_000 + "]" * 100_000, "nests too deeply"),
        (json.dumps({**base, "names": 5}), "'names' must be an array"),
        (json.dumps({**base, "names": "abc"}), "'names' must be an array"),
        (json.dumps({**base, "names": [1, 2, 3]}), "non-empty strings"),
        (json.dumps({**base, "names": ["A", "", "C"]}), "non-empty strings"),
    ]:
        path = tmp_path / "doc.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 2 and out == ""
        assert message in err


def test_analyze_output_is_deterministic(capsys):
    outputs = set()
    for _ in range(3):
        _, out, _ = run_cli(capsys, "analyze", *EEC_ARGS, "--format", "json")
        outputs.add(out)
    assert len(outputs) == 1


# -- whole reports, byte for byte ---------------------------------------------------

NINE_ARGS = ["--quota", "41", "--weights", "10,10,10,10,5,5,3,3,2"]
FOURTEEN_ARGS = ["--quota", "20", "--weights", "5,5,4,4,3,3,3,2,2,2,1,1,1,1"]


def share(num, den, decimal):
    return {"num": num, "den": den, "decimal": decimal}


def report_doc(quota, weights, names, tbp, ntbp, dummies, classes, checks, verified):
    return {
        "n": len(weights), "quota": quota, "weights": weights, "names": names,
        "tbp": tbp, "ntbp": ntbp, "dummies": dummies, "symmetry_classes": classes,
        "checks": dict(zip(("monotone", "causal", "constant"), checks)),
        "oracle_verified": verified,
    }


def json_report(*fields):
    return json.dumps(report_doc(*fields), indent=2) + "\n"


REPORTS = {
    "six-member": (EEC_ARGS, 0, """\
voting system: quota=12 weights=4,4,4,2,2,1 (n=6, total=17)
voter  weight  tbp  ntbp  share
F      4       5    5/21  0.238095
G      4       5    5/21  0.238095
I      4       5    5/21  0.238095
B      2       3    1/7   0.142857
N      2       3    1/7   0.142857
L      1       0    0     0.000000
dummies: L
classes: {F,G,I} {B,N} {L}
checks: monotone=true causal=true constant=false
oracle: verified
""", json_report(
        12, [4, 4, 4, 2, 2, 1], list("FGIBNL"), [5, 5, 5, 3, 3, 0],
        [share(5, 21, "0.238095")] * 3 + [share(1, 7, "0.142857")] * 2
        + [share(0, 1, "0.000000")],
        ["L"], [["F", "G", "I"], ["B", "N"], ["L"]], (True, True, False), True,
    )),
    "nine-member": (NINE_ARGS, 0, """\
voting system: quota=41 weights=10,10,10,10,5,5,3,3,2 (n=9, total=58)
voter  weight  tbp  ntbp    share
X1     10      53   53/317  0.167192
X2     10      53   53/317  0.167192
X3     10      53   53/317  0.167192
X4     10      53   53/317  0.167192
X5     5       29   29/317  0.091483
X6     5       29   29/317  0.091483
X7     3       21   21/317  0.066246
X8     3       21   21/317  0.066246
X9     2       5    5/317   0.015773
dummies: (none)
classes: {X1,X2,X3,X4} {X5,X6} {X7,X8} {X9}
checks: monotone=true causal=true constant=false
oracle: verified
""", json_report(
        41, [10, 10, 10, 10, 5, 5, 3, 3, 2], [f"X{i}" for i in range(1, 10)],
        [53] * 4 + [29] * 2 + [21] * 2 + [5],
        [share(53, 317, "0.167192")] * 4 + [share(29, 317, "0.091483")] * 2
        + [share(21, 317, "0.066246")] * 2 + [share(5, 317, "0.015773")],
        [], [["X1", "X2", "X3", "X4"], ["X5", "X6"], ["X7", "X8"], ["X9"]],
        (True, True, False), True,
    )),
    "constant": (["--quota", "7", "--weights", "1,1,1"], 4, """\
voting system: quota=7 weights=1,1,1 (n=3, total=3)
voter  weight  tbp  ntbp  share
X1     1       0    -     -
X2     1       0    -     -
X3     1       0    -     -
dummies: X1 X2 X3
classes: {X1,X2,X3}
checks: monotone=true causal=false constant=true
oracle: verified
""", json_report(
        7, [1, 1, 1], ["X1", "X2", "X3"], [0, 0, 0], [], ["X1", "X2", "X3"],
        [["X1", "X2", "X3"]], (True, False, True), True,
    )),
    "fourteen-unverified": (FOURTEEN_ARGS, 0, """\
voting system: quota=20 weights=5,5,4,4,3,3,3,2,2,2,1,1,1,1 (n=14, total=37)
voter  weight  tbp   ntbp       share
X1     5       2992  748/5343   0.139996
X2     5       2992  748/5343   0.139996
X3     4       2324  581/5343   0.108740
X4     4       2324  581/5343   0.108740
X5     3       1710  285/3562   0.080011
X6     3       1710  285/3562   0.080011
X7     3       1710  285/3562   0.080011
X8     2       1126  563/10686  0.052686
X9     2       1126  563/10686  0.052686
X10    2       1126  563/10686  0.052686
X11    1       558   93/3562    0.026109
X12    1       558   93/3562    0.026109
X13    1       558   93/3562    0.026109
X14    1       558   93/3562    0.026109
dummies: (none)
classes: {X1,X2} {X3,X4} {X5,X6,X7} {X8,X9,X10} {X11,X12,X13,X14}
checks: monotone=true causal=true constant=false
oracle: not run (n > 12)
""", json_report(
        20, [5, 5, 4, 4, 3, 3, 3, 2, 2, 2, 1, 1, 1, 1], [f"X{i}" for i in range(1, 15)],
        [2992] * 2 + [2324] * 2 + [1710] * 3 + [1126] * 3 + [558] * 4,
        [share(748, 5343, "0.139996")] * 2 + [share(581, 5343, "0.108740")] * 2
        + [share(285, 3562, "0.080011")] * 3 + [share(563, 10686, "0.052686")] * 3
        + [share(93, 3562, "0.026109")] * 4,
        [], [["X1", "X2"], ["X3", "X4"], ["X5", "X6", "X7"], ["X8", "X9", "X10"],
             ["X11", "X12", "X13", "X14"]],
        (True, True, False), False,
    )),
}


@pytest.mark.parametrize("case", REPORTS)
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_analyze_whole_report_bytes(capsys, case, fmt):
    args, exit_code, text, json_text = REPORTS[case]
    code, out, err = run_cli(capsys, "analyze", *args, "--format", fmt)
    assert (code, err) == (exit_code, "")
    assert out == (text if fmt == "table" else json_text)


def test_json_report_never_calls_json_dumps(capsys, monkeypatch):
    # the expected bytes are REPORTS', built with json.dumps before the patch
    def refuse(*args, **kwargs):
        raise AssertionError("the JSON report must not go through json.dumps")

    monkeypatch.setattr(json, "dumps", refuse)
    for case in ["six-member", "nine-member", "constant"]:
        args, exit_code, _, json_text = REPORTS[case]
        code, out, err = run_cli(capsys, "analyze", *args, "--format", "json")
        assert (code, err) == (exit_code, "")
        assert out == json_text


# names with JSON escapes (quote, backslash, control characters, U+2028) and
# non-ASCII text inside and outside the Basic Multilingual Plane
NAME_CHARS = 'aZ9 _"\\\x00\x01\x1f\x7f\u00e9\u2028\U0001d518'


def fields_of(system, report):
    """`report_doc`'s arguments for a system and its report."""
    names = system.voter_names
    return (
        system.quota, list(system.weights), list(names), list(report.tbp),
        [share(fr.numerator, fr.denominator, cli._decimal(fr)) for fr in report.ntbp],
        [names[i - 1] for i in sorted(report.dummies)],
        [[names[i - 1] for i in group] for group in report.classes],
        (report.checks.monotone, report.checks.causal, report.checks.constant),
        report.oracle_verified,
    )


@st.composite
def named_systems(draw):
    n = draw(st.integers(1, 12))
    weights = draw(st.lists(st.integers(0, 50), min_size=n, max_size=n))
    # up to total + 2, so some systems are constant: empty ntbp, every voter a dummy
    quota = draw(st.integers(1, sum(weights) + 2))
    names = draw(st.lists(
        st.text(NAME_CHARS, min_size=1, max_size=4), min_size=n, max_size=n, unique=True,
    ))
    return banzhaf.VotingSystem(quota, tuple(weights), tuple(names))


@settings(max_examples=300, deadline=None)
@given(named_systems(), st.booleans())
@example(banzhaf.VotingSystem(3, (0, 1), ('"', "\u2028")), False)
def test_json_report_is_the_json_dumps_layout(system, verify):
    report = banzhaf.analyze(system, verify=verify)
    text = cli.ReportDocument(system, report).to_json()
    fields = fields_of(system, report)
    assert text == json_report(*fields)
    assert json.loads(text) == report_doc(*fields)


def test_json_report_of_a_subset_sum_system():
    # 120 voters: past N_MAX and meeting in the middle, only the subset-sum counter fits
    weights = tuple(range(1, 121))
    names = tuple(f"\u00e9\"{i}\\\U0001d518" for i in range(1, 121))
    system = banzhaf.VotingSystem(sum(weights) // 2 + 1, weights, names)
    report = banzhaf.analyze(system)
    assert min(len(str(c)) for c in report.tbp) >= 30
    text = cli.ReportDocument(system, report).to_json()
    assert text == json_report(*fields_of(system, report))


def test_weight_all_methods(capsys):
    code, out, _ = run_cli(capsys, "weight", "X1 X2 | X2 X3 | X1 X3", "--method", "all")
    assert code == 0
    assert out == "table    4\ndisjoint 4\nie       4\n"


def test_weight_single_methods(capsys):
    for method in ("table", "disjoint", "ie"):
        code, out, _ = run_cli(
            capsys, "weight", "X1 X2 | X2 X3 | X1 X3", "--method", method
        )
        assert code == 0
        assert out == "4\n"


def test_weight_of_six_voter_sop_matches_threshold_table(capsys):
    code, out, _ = run_cli(
        capsys, "weight", "F G I | F G B N | F I B N | G I B N",
        "--names", "F,G,I,B,N,L", "--method", "table",
    )
    assert code == 0
    assert out == "14\n"


def test_weight_empty_expression(capsys):
    code, out, _ = run_cli(capsys, "weight", "", "--method", "table")
    assert code == 0
    assert out == "0\n"


def test_weight_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "weight", "X1 X1'")
    assert code == 2
    assert "contradictory" in err


def test_weight_disjoint_cube_cap(capsys):
    chain = " | ".join(f"a{2 * k} a{2 * k + 1}" for k in range(17))
    code, out, err = run_cli(capsys, "weight", chain, "--method", "disjoint")
    assert code == 2 and out == ""
    assert "MAX_DISJOINT_CUBES" in err


def test_weight_sop_cube_cap(capsys):
    # no cube cap at parse: 4,097 cubes read back; --method all is refused by
    # inclusion-exclusion's price, past MAX_SECONDS at 2**4097 - 1 subsets
    text, _ = minterm_sop(13, 4097)
    assert run_cli(capsys, "weight", text, "--method", "table") == (0, "4097\n", "")
    code, out, err = run_cli(capsys, "weight", text)
    assert code == 2 and out == ""
    assert "inclusion-exclusion priced at" in err and "MAX_SECONDS" in err


def test_weight_reads_back_a_long_minterm_form(capsys):
    # 6,435 minterms, about 400 KB of text: past the 128 KB limit on one
    # command-line argument, so this runs in process only
    code, out, _ = run_cli(
        capsys, "derivative", "--quota", "9", "--weights", ",".join(["1"] * 16), "--voter", "X1"
    )
    head, text = out.splitlines()
    assert code == 0 and head == "voter X1: weight 6435" and text.count("|") == 6434
    assert run_cli(capsys, "weight", text, "--method", "table") == (0, "6435\n", "")


def test_weight_disjoint_certifies_4096_minterms(capsys):
    text, _ = minterm_sop(12, 4096)
    assert run_cli(capsys, "weight", text, "--method", "disjoint") == (0, "4096\n", "")


def test_weight_method_disagreement_exit_code(capsys, monkeypatch):
    import banzhaf.cli as cli_module

    monkeypatch.setattr(cli_module, "sop_weight_ie", lambda expr: 999)
    code, out, err = run_cli(capsys, "weight", "X1 X2", "--method", "all")
    assert code == 3
    assert "disagree" in err
    assert "999" in out


def test_derivative_of_system(capsys):
    code, out, _ = run_cli(capsys, "derivative", *EEC_ARGS, "--voter", "B")
    assert code == 0
    assert out.splitlines()[0] == "voter B: weight 3"
    assert out.splitlines()[1] == "F' G I N | F G' I N | F G I' N"


def test_derivative_of_dummy_voter(capsys):
    code, out, _ = run_cli(capsys, "derivative", *EEC_ARGS, "--voter", "L")
    assert code == 0
    assert out == "voter L: weight 0\n0\n"


def test_derivative_reads_back_at_its_weight(capsys):
    # the last line is SOP text, "0" and "1" included, that weighs what the first says
    rng = random.Random(6001)
    for _ in range(40):
        weights = [rng.randint(0, 9) for _ in range(rng.randint(1, 8))]
        quota = str(rng.randint(1, sum(weights) + 2))
        system = ["--quota", quota, "--weights", ",".join(map(str, weights))]
        for i in range(1, len(weights) + 1):
            code, out, _ = run_cli(capsys, "derivative", *system, "--voter", f"X{i}")
            head, text = out.splitlines()
            assert code == 0 and head.startswith(f"voter X{i}: weight ")
            assert sop_to_tt(parse_sop(text, sop_names(text))).weight() == int(head.split()[-1])
    constants = [
        (EEC_ARGS + ["--voter", "L"], "0"),
        (["--quota", "1", "--weights", "1", "--voter", "X1"], "1"),
    ]
    for args, text in constants:
        assert run_cli(capsys, "derivative", *args)[1].splitlines()[1] == text
        assert run_cli(capsys, "weight", text, "--method", "disjoint")[:2] == (0, f"{text}\n")


def test_derivative_of_expression(capsys):
    code, out, _ = run_cli(
        capsys, "derivative", "--expr", "X1 X2 | X2 X3 | X1 X3", "--voter", "X1"
    )
    assert code == 0
    assert out.splitlines()[0] == "voter X1: weight 2"
    assert out.splitlines()[1] == "X2' X3 | X2 X3'"  # minterms in row order


def test_derivative_of_24_unit_voters_is_quick(capsys):
    # quota 6 of 24: C(23, 5) = 33,649 true rows of a 2**24-row difference,
    # found in one scan of the table, not one pass over it per row
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "derivative", "--quota", "6", "--weights", ",".join(["1"] * 24),
        "--voter", "X1",
    )
    elapsed = time.perf_counter() - start
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "voter X1: weight 33649"
    assert hashlib.sha1(out.encode()).hexdigest() == "10c911c98e633803ab3001e4029a59e63f5ec165"
    assert elapsed < 2.0


def test_derivative_minterm_cap(capsys):
    # 21 voters, quota 11: the difference has C(20, 10) = 184756 true rows
    code, out, err = run_cli(
        capsys, "derivative", "--quota", "11", "--weights", ",".join(["1"] * 21),
        "--voter", "X1",
    )
    assert code == 2 and out == ""
    assert "MAX_DISJOINT_CUBES" in err


def test_analyze_subset_sum_work_cap(capsys):
    weights = ",".join(["3", "7"] * 5000)
    code, out, err = run_cli(capsys, "analyze", "--quota", "25001", "--weights", weights)
    assert code == 2 and out == ""
    assert "subset-sum counter priced at" in err and "passes MAX_SECONDS = 1.0 s" in err


@pytest.mark.parametrize("n, code", [(28, 0), (33, 0), (36, 2)])
def test_analyze_large_weights_past_the_diagram(capsys, n, code):
    # distinct weights near 10**12: meeting in the middle counts up to 35
    # voters, whose 2**18 + 2**17 subset sums fit MAX_BYTES
    weights = [10**12 + 2**k for k in range(n)]
    args = ["--quota", str(sum(weights) // 2 + 1), "--weights", ",".join(map(str, weights))]
    got, out, err = run_cli(capsys, "analyze", *args)
    assert got == code
    if code:
        assert out == "" and "meet-in-the-middle priced at" in err and "MAX_BYTES" in err
    else:
        assert err == "" and "oracle: not run" in out


def budget_corners():
    """Per kernel, seeded inputs at its budget corner: the library call, the
    kernel its refusal names, and the command lines that reach it."""
    rng = random.Random(5015)
    weights = [rng.randint(66500, 133000) for _ in range(63)]
    dp = banzhaf.VotingSystem(sum(weights) // 2, tuple(weights))
    far = [10**12 + rng.randrange(10**9) for _ in range(40)]
    mitm = banzhaf.VotingSystem(sum(far) // 2 + 1, tuple(far))
    table_text = big_sop()
    ie = banzhaf.SopExpr(24, tuple((1 << i, 0) for i in range(1, 25)))
    ie_text = " | ".join(f"a{i}" for i in range(24))
    # 20,000 minterms: 2.0e8 cube pairs; 5,000 cubes that overlap: the pairwise
    # test stops at once, and sequential disjointing is priced at 1.25e7 blockers
    certificate_text, _ = minterm_sop(15, 20000)
    pass_text = big_sop(2, 5000)

    def system_args(system):
        weights = ",".join(map(str, system.weights))
        return ["analyze", "--quota", str(system.quota), "--weights", weights]

    return [
        (lambda: banzhaf.tbp_oracle_dp(dp), "subset-sum counter", [system_args(dp)]),
        (lambda: banzhaf.tbp_oracle_mitm(mitm), "meet-in-the-middle", [system_args(mitm)]),
        (
            lambda expr=parse_sop(table_text, sop_names(table_text)): sop_to_tt(expr),
            "SOP table",
            [["weight", table_text], ["derivative", "--expr", table_text, "--voter", "a"]],
        ),
        (
            lambda: banzhaf.sop_weight_ie(ie),
            "inclusion-exclusion",
            [["weight", ie_text, "--method", "ie"]],
        ),
        (
            lambda expr=parse_sop(certificate_text, sop_names(certificate_text)): (
                banzhaf.make_disjoint(expr)
            ),
            "disjointness certificate",
            [["weight", certificate_text, "--method", "disjoint"]],
        ),
        (
            lambda expr=parse_sop(pass_text, sop_names(pass_text)): banzhaf.make_disjoint(expr),
            "sequential disjointing",
            [["weight", pass_text, "--method", "disjoint"]],
        ),
    ]


def big_sop(seed=1, m=4096):
    """m cubes of 3-6 literals, a quarter complemented, on 24 variables a..x."""
    rng = random.Random(seed)
    names = "abcdefghijklmnopqrstuvwx"
    cubes = (rng.sample(names, rng.randint(3, 6)) for _ in range(m))
    return " | ".join(
        " ".join(v + ("'" if rng.random() < 0.25 else "") for v in cube) for cube in cubes
    )


def test_each_kernel_is_refused_at_its_budget_corner(capsys):
    for call, kernel, command_lines in budget_corners():
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^{kernel} priced at .* passes MAX_SECONDS = 1.0 s"):
            call()
        assert time.perf_counter() - start < 0.1, kernel
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                call()
            assert tracemalloc.get_traced_memory()[1] < 1 << 20, kernel
        finally:
            tracemalloc.stop()
        for argv in command_lines:
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv[0]
            assert f"{kernel} priced at" in err and "MAX_SECONDS = 1.0 s" in err


def test_derivative_unknown_voter(capsys):
    code, _, err = run_cli(capsys, "derivative", *EEC_ARGS, "--voter", "Z")
    assert code == 2
    assert "unknown voter" in err


def test_derivative_refuses_names_sop_text_cannot_hold(capsys):
    # printed unchecked, these names read as `a b' c' | a b c''`
    code, out, err = run_cli(
        capsys, "derivative", "--quota", "2", "--weights", "1,1,1", "--names", "a b,c',d",
        "--voter", "d",
    )
    assert code == 2 and out == ""
    assert "invalid variable name 'a b'" in err


def test_derivative_conflicting_inputs(capsys):
    code, _, err = run_cli(
        capsys, "derivative", "--expr", "X1", "--quota", "1", "--weights", "1",
        "--voter", "X1",
    )
    assert code == 2


def test_cli_rejects_unknown_command():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


# -- one parser per process -------------------------------------------------------


def fresh_env():
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_fresh(argv):
    """Exit code, stdout and stderr of `argv` in a new ``python -m banzhaf.cli``."""
    done = subprocess.run(
        [sys.executable, "-m", "banzhaf.cli", *argv],
        capture_output=True, text=True, env=fresh_env(), timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


def run_in_process(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_built_once_per_process():
    script = textwrap.dedent(
        """
        import argparse, contextlib, io

        built = 0
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            global built
            built += 1
            init(self, *args, **kwargs)

        argparse.ArgumentParser.__init__ = counting_init
        import banzhaf.cli
        counts = [built]
        with contextlib.redirect_stdout(io.StringIO()):
            for _ in range(5):
                banzhaf.cli.main(["weight", "X1 X2 | X2 X3", "--method", "table"])
                counts.append(built)
        print(counts)
        """
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=fresh_env(), timeout=60, check=True,
    )
    counts = json.loads(done.stdout)
    assert counts[0] == 0
    assert counts[1] > 0
    assert counts[1:] == [counts[1]] * 5


@pytest.mark.parametrize(
    "calls, last_out_has",
    [
        ([["analyze", *EEC_ARGS, "--no-oracle"], ["analyze", *EEC_ARGS]], "oracle: verified"),
        (
            [["weight", "X1 X2 | X2 X3 | X1 X3", "--method", "ie"], ["weight", "X1 X2 | X2 X3 | X1 X3"]],
            "table    4\ndisjoint 4\nie       4\n",
        ),
        ([["frobnicate"], ["analyze", *EEC_ARGS, "--format", "json"]], '"oracle_verified": true'),
    ],
    ids=["oracle-flag", "method", "argparse-error"],
)
def test_repeated_calls_match_fresh_processes(capsys, monkeypatch, calls, last_out_has):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    results = [run_in_process(capsys, argv) for argv in calls]
    assert results == [run_fresh(argv) for argv in calls]
    assert results[-1][0] == 0 and last_out_has in results[-1][1]


def test_help_after_earlier_calls(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    calls = [["weight", "X1"], ["analyze", *EEC_ARGS, "--no-oracle"], ["analyze", "--help"], ["--help"]]
    results = [run_in_process(capsys, argv) for argv in calls]
    assert results == [run_fresh(argv) for argv in calls]
    code, out, _ = results[-1]
    assert code == 0 and out.startswith("usage: banzhaf")


def test_patched_package_function_takes_effect_after_first_call(capsys, monkeypatch):
    assert run_cli(capsys, "analyze", *EEC_ARGS)[0] == 0
    seen = []
    original = cli.analyze

    def spy(system, verify=None):
        seen.append(system.n)
        return original(system, verify=verify)

    monkeypatch.setattr(cli, "analyze", spy)
    assert run_cli(capsys, "analyze", *EEC_ARGS)[0] == 0
    assert seen == [6]
