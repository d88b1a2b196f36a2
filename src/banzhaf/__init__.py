"""Banzhaf voting-power analysis through switching algebra.

The package models a weighted yes-no voting system as a threshold switching
function and computes each voter's total and normalized Banzhaf power from
the weight of the function's Boolean difference.  A planner counts each
system with the cheapest of three exact sources within its cap: the
decision diagram, per node; meeting in the middle; or subset-sum counting.
The cross-check runs every one within its cap and compares them with the
dense truth table's counts.  Supporting machinery - dense truth tables and
a sum-of-products algebra with sequential disjointing - is exposed as a
library; the ``banzhaf`` command wraps it for the command line.

>>> from banzhaf import VotingSystem, analyze
>>> report = analyze(VotingSystem(12, (4, 4, 4, 2, 2, 1), ("F", "G", "I", "B", "N", "L")))
>>> report.tbp
(5, 5, 5, 3, 3, 0)
"""

from .power import (
    MAX_DP_BYTES,
    MAX_DP_WORK,
    MAX_MITM_VOTERS,
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
    MAX_IE_CUBES,
    MAX_SOP_CUBES,
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
from .truthtable import N_MAX, TruthTable
from .voting import VotingSystem

__all__ = [
    "MAX_DISJOINT_CUBES",
    "MAX_DP_BYTES",
    "MAX_DP_WORK",
    "MAX_IE_CUBES",
    "MAX_MITM_VOTERS",
    "MAX_SOP_CUBES",
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
