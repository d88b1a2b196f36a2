"""The timed calls into the package, and the untimed steps around them.

Importing this module imports ``banzhaf`` from the checkout's ``src``
directory, so the set-up probe times that import by importing this module.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from banzhaf import VotingSystem, analyze, cli  # noqa: E402
from banzhaf.sop import make_disjoint, parse_sop  # noqa: E402


def prepare(workload, inp: dict):
    """Turn a generated input into the call's argument, outside the timed region."""
    if workload.command is None:
        return VotingSystem(inp["quota"], tuple(inp["weights"]))
    if workload.command == "analyze":
        return [
            "analyze",
            "--quota", str(inp["quota"]),
            "--weights", ",".join(map(str, inp["weights"])),
            "--names", ",".join(inp["names"]),
            "--format", "json",
        ]
    return ["weight", inp["expr"], "--names", ",".join(inp["names"]), "--method", "all"]


def run_cli(argv):
    """``banzhaf <argv>`` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejecting the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def disjoint_cubes(inp: dict) -> int:
    """Cube count after the package's sequential disjointing (an input property)."""
    return len(make_disjoint(parse_sop(inp["expr"], inp["names"])).cubes)
