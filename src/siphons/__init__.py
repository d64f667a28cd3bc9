"""Minimal siphon and trap enumeration for Petri nets.

Two engines over a shared Boolean encoding: iterated SAT with non-superset
blocking clauses, and propagation-based branch-and-bound whose 0-first
decision order yields minimal sets directly. Comes with reaction-notation
and PNML ingest, benchmark generators, a token-game simulator, and small
brute-force oracles for cross-checking.
"""

from .analysis import (SiphonReportRow, SiphonTrapReport, brute_force_minimal_siphons,
                       brute_force_minimal_traps, canonical_order,
                       enumerate_minimal_siphons, enumerate_minimal_traps,
                       filter_containing, first_solution_is_minimal_check,
                       max_trap_within, siphon_trap_report)
from .branch_bound import enumerate_minimal_bb
from .dynamics import (check_siphon_emptiness, check_trap_persistence, random_walk,
                       unmarked_places, walk_trace)
from .encoding import (Assignment, Clause, CnfFormula, VarMap, blocking_clause,
                       branching_order, encode_branching, encode_siphon, evaluate,
                       export_dimacs, parse_dimacs)
from .generators import (ThreeSatInstance, gen_3sat_reduction, gen_chain,
                         gen_random_3sat, gen_random_net)
from .net import (Marking, NotEnabledError, PetriNet, PlaceSet, format_place_set,
                  isomorphic)
from .pnml import export_pnml, parse_pnml
from .reactions import ParseError, export_reactions, parse_reactions
from .sat import SatSolver, SolveStatus, enumerate_minimal_sat
from .search import Budget, EnumerationResult, Propagator, SearchStats

__version__ = "0.1.0"

__all__ = [
    "Assignment", "Budget", "Clause", "CnfFormula", "EnumerationResult", "Marking",
    "NotEnabledError", "ParseError", "PetriNet", "PlaceSet", "Propagator", "SatSolver",
    "SearchStats", "SiphonReportRow", "SiphonTrapReport", "SolveStatus",
    "ThreeSatInstance", "VarMap", "blocking_clause", "branching_order",
    "brute_force_minimal_siphons",
    "brute_force_minimal_traps", "canonical_order", "check_siphon_emptiness",
    "check_trap_persistence", "encode_branching", "encode_siphon", "enumerate_minimal_bb",
    "enumerate_minimal_sat", "enumerate_minimal_siphons", "enumerate_minimal_traps",
    "evaluate", "export_dimacs", "export_pnml", "export_reactions", "filter_containing",
    "first_solution_is_minimal_check", "format_place_set", "gen_3sat_reduction",
    "isomorphic",
    "gen_chain", "gen_random_3sat", "gen_random_net", "max_trap_within",
    "parse_dimacs", "parse_pnml", "parse_reactions", "random_walk", "siphon_trap_report",
    "unmarked_places", "walk_trace",
]
