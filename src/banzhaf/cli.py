"""Command-line front end: analyze systems, weigh SOP expressions, differentiate.

Three subcommands:

* ``analyze`` - full power report for a quota-and-weights system, as an
  aligned text table or canonical JSON.
* ``weight`` - weight of an SOP expression by dense table, disjoint-sum,
  and/or inclusion-exclusion, with cross-checking.
* ``derivative`` - the Boolean difference of a system or expression with
  respect to one voter, printed as a disjoint (minterm) SOP plus its weight.

Output is deterministic: identical input produces byte-identical output.
Exit codes: 0 success, 2 malformed input, 3 method/oracle disagreement,
4 constant system (every voter a dummy).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable, Optional, Sequence

from .power import ORACLE_AUTO_LIMIT, OracleDisagreementError, PowerReport, analyze
from .sop import (
    format_sop,
    make_disjoint,
    parse_sop,
    sop_names,
    sop_to_tt,
    sop_weight_disjoint,
    sop_weight_ie,
    tt_to_minterm_sop,
    variable_index,
)
from .voting import VotingSystem

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DISAGREEMENT = 3
EXIT_CONSTANT = 4


#: Decimal places of every share in both report formats.
DECIMAL_PLACES = 6


def _decimal(fr: Fraction) -> str:
    """Fixed-point rendering of a non-negative fraction, half-up, no floats."""
    scale = 10 ** DECIMAL_PLACES
    scaled = (fr.numerator * scale * 2 + fr.denominator) // (fr.denominator * 2)
    return f"{scaled // scale}.{scaled % scale:0{DECIMAL_PLACES}d}"


# ``json.dumps(doc, indent=2)`` layout for values already encoded: each item or
# member on its own line at `pad`, the closing bracket two spaces less, and
# ``[]``/``{}`` when empty.


def _json_array(items: Iterable[str], pad: str) -> str:
    body = (",\n" + pad).join(items)
    return f"[\n{pad}{body}\n{pad[:-2]}]" if body else "[]"


def _json_object(members: dict[str, str], pad: str) -> str:
    body = (",\n" + pad).join(f"{_json_str(key)}: {value}" for key, value in members.items())
    return f"{{\n{pad}{body}\n{pad[:-2]}}}" if body else "{}"


@dataclass(frozen=True)
class ReportDocument:
    """A system's power report, rendered as an aligned table or canonical JSON.

    Both renderings read the system and its :class:`PowerReport` directly.
    JSON keys keep a fixed order and numbers are locale-independent, so
    reports can be diffed and used as fixtures.
    """

    system: VotingSystem
    report: PowerReport

    def _named(self, names: Sequence[str]) -> tuple[list[str], list[list[str]]]:
        """The dummies, in voter order, and the symmetry classes, by `names`."""
        dummies = [names[i - 1] for i in sorted(self.report.dummies)]
        return dummies, [[names[i - 1] for i in group] for group in self.report.classes]

    def to_json(self) -> str:
        """The report exactly as ``json.dumps(doc, indent=2) + "\\n"`` prints it.

        Keys keep a fixed order and strings are ASCII with ``\\u`` escapes.
        ``json.dumps`` takes its pure-Python encoder whenever `indent` is set, so
        the text is built here instead: the document's shape is fixed, and each
        array is one join over items encoded up front, as ``json`` encodes them
        (``int.__repr__``, which int subclasses share, and the C-level string
        escaper).  Voters with equal counts have equal shares, so each distinct
        share is rendered once.
        """
        system, report = self.system, self.report
        names = list(map(_json_str, system.voter_names))
        dummies, classes = self._named(names)
        shares = {
            count: f'{{\n      "num": {fr.numerator},\n      "den": {fr.denominator},\n'
            f'      "decimal": "{_decimal(fr)}"\n    }}'
            for count, fr in dict(zip(report.tbp, report.ntbp)).items()
        }
        doc = {
            "n": int.__repr__(system.n),
            "quota": int.__repr__(system.quota),
            "weights": _json_array(map(int.__repr__, system.weights), "    "),
            "names": _json_array(names, "    "),
            "tbp": _json_array(map(int.__repr__, report.tbp), "    "),
            "ntbp": _json_array(map(shares.__getitem__, report.tbp) if report.ntbp else (), "    "),
            "dummies": _json_array(dummies, "    "),
            "symmetry_classes": _json_array([_json_array(g, "      ") for g in classes], "    "),
            "checks": _json_object(
                {key: str(value).lower() for key, value in vars(report.checks).items()}, "    "
            ),
            "oracle_verified": str(report.oracle_verified).lower(),
        }
        return _json_object(doc, "  ") + "\n"

    def to_text(self, no_oracle: bool) -> str:
        """The aligned table; `no_oracle` says the cross-check was disabled, not skipped by n."""
        system, report = self.system, self.report
        shares = {
            count: (f"{fr.numerator}/{fr.denominator}" if fr else "0", _decimal(fr))
            for count, fr in dict(zip(report.tbp, report.ntbp)).items()
        }
        rows = []
        for name, weight, count in zip(system.voter_names, system.weights, report.tbp):
            ntbp, share = shares[count] if report.ntbp else ("-", "-")
            rows.append((name, str(weight), str(count), ntbp, share))
        header = ("voter", "weight", "tbp", "ntbp", "share")
        widths = [max(len(r[c]) for r in [header, *rows]) for c in range(5)]
        lines = [
            f"voting system: quota={system.quota} "
            f"weights={','.join(str(w) for w in system.weights)} "
            f"(n={system.n}, total={system.total_weight})"
        ]
        for r in [header, *rows]:
            lines.append("  ".join(r[c].ljust(widths[c]) for c in range(5)).rstrip())
        dummies, classes = self._named(system.voter_names)
        lines.append(f"dummies: {' '.join(dummies) if dummies else '(none)'}")
        lines.append("classes: " + " ".join("{" + ",".join(g) + "}" for g in classes))
        checks = vars(report.checks).items()
        lines.append("checks: " + " ".join(f"{k}={str(v).lower()}" for k, v in checks))
        if report.oracle_verified:
            lines.append("oracle: verified")
        else:
            why = "disabled" if no_oracle else f"n > {ORACLE_AUTO_LIMIT}"
            lines.append(f"oracle: not run ({why})")
        return "\n".join(lines) + "\n"


# -- argument handling -----------------------------------------------------------


def _csv(text: str) -> list[str]:
    return [part.strip() for part in text.split(",")]


def _int_csv(text: str) -> list[int]:
    try:
        return [int(part) for part in _csv(text)]
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}")


def _system_from_args(args: argparse.Namespace) -> VotingSystem:
    if args.input is not None:
        if args.quota is not None or args.weights is not None or args.names is not None:
            raise ValueError("give either --input or --quota/--weights/--names, not both")
        with open(args.input, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except RecursionError:
                raise ValueError("input document nests too deeply") from None
        if not isinstance(doc, dict):
            raise ValueError("input document must be a JSON object")
        quota = doc.get("quota")
        weights = doc.get("weights")
        names = doc.get("names")
        if not isinstance(quota, int) or not isinstance(weights, list):
            raise ValueError("input document needs integer 'quota' and array 'weights'")
        if names is not None and not isinstance(names, list):
            raise ValueError("input document's 'names' must be an array")
        return VotingSystem(quota, tuple(weights), tuple(names) if names is not None else None)
    if args.quota is None or args.weights is None:
        raise ValueError("need --quota and --weights (or --input FILE)")
    names = tuple(_csv(args.names)) if args.names is not None else None
    return VotingSystem(args.quota, tuple(_int_csv(args.weights)), names)


# -- subcommands ---------------------------------------------------------------


def _cmd_analyze(args: argparse.Namespace) -> int:
    system = _system_from_args(args)
    verify = False if args.no_oracle else None
    report = analyze(system, verify=verify)
    doc = ReportDocument(system, report)
    sys.stdout.write(doc.to_json() if args.format == "json" else doc.to_text(args.no_oracle))
    return EXIT_CONSTANT if report.checks.constant else EXIT_OK


def _cmd_weight(args: argparse.Namespace) -> int:
    names = _csv(args.names) if args.names is not None else sop_names(args.expr)
    expr = parse_sop(args.expr, names)
    methods = ("table", "disjoint", "ie") if args.method == "all" else (args.method,)
    results = {}
    for method in methods:
        if method == "table":
            results[method] = sop_to_tt(expr).weight()
        elif method == "disjoint":
            results[method] = sop_weight_disjoint(make_disjoint(expr))
        else:
            results[method] = sop_weight_ie(expr)
    if len(methods) == 1:
        print(results[methods[0]])
    else:
        for method in methods:
            print(f"{method:<8} {results[method]}")
        if len(set(results.values())) != 1:
            print("error: weight methods disagree", file=sys.stderr)
            return EXIT_DISAGREEMENT
    return EXIT_OK


def _cmd_derivative(args: argparse.Namespace) -> int:
    if args.expr is not None:
        if args.quota is not None or args.weights is not None or args.input is not None:
            raise ValueError("give either --expr or a voting system, not both")
        names = _csv(args.names) if args.names is not None else sop_names(args.expr)
        table = sop_to_tt(parse_sop(args.expr, names))
    else:
        system = _system_from_args(args)
        names = list(system.voter_names)
        variable_index(names)  # the SOP text printed below must read back as these voters
        table = system.to_table()

    if args.voter not in names:
        raise ValueError(f"unknown voter {args.voter!r}")
    target = names.index(args.voter) + 1

    # Work in the essential subsystem: drop voters the rule never depends on.
    kept = [i for i in range(1, table.n + 1) if i == target or not table.is_vacuous_in(i)]
    for i in range(table.n, 0, -1):
        if i not in kept:
            table = table.restrict(i, 0)
    kept_names = [names[i - 1] for i in kept]
    position = kept.index(target) + 1

    difference = table.boolean_difference(position)
    remaining = [nm for k, nm in enumerate(kept_names, 1) if k != position]
    minterms = format_sop(tt_to_minterm_sop(difference), remaining)
    print(f"voter {args.voter}: weight {difference.weight()}")
    print(minterms)
    return EXIT_OK


def _add_system_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--quota", type=int, help="pass threshold (positive integer)")
    sub.add_argument("--weights", help="comma-separated non-negative voter weights")
    sub.add_argument("--names", help="comma-separated voter names (default X1..Xn)")
    sub.add_argument("--input", help="JSON file with quota/weights[/names] fields")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``banzhaf`` command line, built on first use and reused after.

    Argparse returns a fresh namespace on every parse, so the one parser
    carries no state from call to call.  Each handler looks the package
    functions up in this module's globals when it runs, so a name patched
    here after the first call still takes effect.
    """
    parser = argparse.ArgumentParser(
        prog="banzhaf",
        description="Banzhaf voting-power analysis of weighted yes-no systems.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_analyze = subs.add_parser("analyze", help="full power report for a system")
    _add_system_flags(p_analyze)
    p_analyze.add_argument(
        "--format", choices=("table", "json"), default="table", help="output format"
    )
    p_analyze.add_argument(
        "--no-oracle",
        action="store_true",
        help="skip the independent-oracle cross-check",
    )
    p_analyze.set_defaults(func=_cmd_analyze)

    p_weight = subs.add_parser("weight", help="weight of an SOP expression")
    p_weight.add_argument("expr", help="SOP text, e.g. \"X1 X2 | X2 X3 | X1 X3\"")
    p_weight.add_argument("--names", help="declared variable order (default: appearance)")
    p_weight.add_argument(
        "--method",
        choices=("table", "disjoint", "ie", "all"),
        default="all",
        help="weight method; 'all' cross-checks the three",
    )
    p_weight.set_defaults(func=_cmd_weight)

    p_deriv = subs.add_parser(
        "derivative", help="Boolean difference w.r.t. one voter, as a disjoint SOP"
    )
    _add_system_flags(p_deriv)
    p_deriv.add_argument("--expr", help="SOP text instead of a quota/weights system")
    p_deriv.add_argument("--voter", required=True, help="voter name to differentiate by")
    p_deriv.set_defaults(func=_cmd_derivative)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one ``banzhaf`` command line and return its exit code.

    `argv` defaults to ``sys.argv[1:]``.  The parser is built on the first
    call and reused by later calls, so ``main`` can be called repeatedly in
    one process.  Argparse errors and ``--help`` raise SystemExit as usual.
    """
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OracleDisagreementError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    except (ValueError, OSError) as exc:
        # parse errors, NoDecisiveVoterError and malformed --input are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
