"""Banzhaf voting-power analysis through switching algebra.

The package models a weighted yes-no voting system as a threshold switching
function and computes each voter's total and normalized Banzhaf power from
the weight of the function's Boolean difference.  A planner counts each
system with the cheaper of two exact sources within one time budget and one
memory budget: meeting in the middle, or subset-sum counting.  The
cross-check runs each one within them and compares their counts with the
Boolean-difference weights on the dense truth table.  Dense truth
tables and a sum-of-products algebra with sequential disjointing are exposed
as a library; the ``banzhaf`` command wraps it for the command line.

>>> from banzhaf import VotingSystem, analyze
>>> report = analyze(VotingSystem(12, (4, 4, 4, 2, 2, 1), ("F", "G", "I", "B", "N", "L")))
>>> report.tbp
(5, 5, 5, 3, 3, 0)
"""

from .power import (
    NoDecisiveVoterError,
    ORACLE_AUTO_LIMIT,
    OracleDisagreementError,
    PowerReport,
    StructuralChecks,
    analyze,
    normalize,
    tbp_all,
    tbp_oracle_dp,
    tbp_oracle_mitm,
)
from .sop import (
    MAX_DISJOINT_CUBES,
    SopExpr,
    SopSyntaxError,
    make_disjoint,
    parse_sop,
    sop_names,
    sop_to_tt,
    sop_weight_disjoint,
    sop_weight_ie,
    tt_to_minterm_sop,
)
from .truthtable import MAX_BYTES, MAX_SECONDS, N_MAX, TruthTable
from .voting import VotingSystem

__all__ = [
    "MAX_BYTES",
    "MAX_DISJOINT_CUBES",
    "MAX_SECONDS",
    "N_MAX",
    "NoDecisiveVoterError",
    "ORACLE_AUTO_LIMIT",
    "OracleDisagreementError",
    "PowerReport",
    "SopExpr",
    "SopSyntaxError",
    "StructuralChecks",
    "TruthTable",
    "VotingSystem",
    "analyze",
    "make_disjoint",
    "normalize",
    "parse_sop",
    "sop_names",
    "sop_to_tt",
    "sop_weight_disjoint",
    "sop_weight_ie",
    "tbp_all",
    "tbp_oracle_dp",
    "tbp_oracle_mitm",
    "tt_to_minterm_sop",
]

__version__ = "0.1.0"
