"""sawlab: exact self-avoiding-walk enumeration on quasi-transitive graphs,
graph height functions, quotient-based height synthesis, and certified
connective-constant brackets.

Each top-level name is imported from its submodule on first use (PEP 562),
so ``import sawlab`` loads no submodule until one is asked for.
"""

import importlib

# each re-exported name and the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("BoundsReport", "LocalityReport", "SimilarityResult", "ball_isomorphic",
                     "bracket", "check_fekete", "distinct_partitions", "locality_report",
                     "similarity_K"), "bounds"),
    **dict.fromkeys(("InvariantViolationError", "MalformedLabelError", "ResourceBudgetError",
                     "SawlabError", "UsageError"), "errors"),
    **dict.fromkeys(("Ball", "GraphFamily", "ball", "heisenberg", "hexagonal", "hypercubic",
                     "parse_family", "regular_tree", "square_octagon"), "families"),
    **dict.fromkeys(("HeightFunction", "HeightValidationReport", "default_height",
                     "validate_height", "verify_r"), "heights"),
    **dict.fromkeys(("QuotientGraph", "build_quotient", "check_symmetric", "cylinder"),
                    "quotient"),
    **dict.fromkeys(("DirectedCycleBasis", "EdgeIncrement", "LiftedHeight", "cycle_basis",
                     "lift_height", "solve_increments", "synthesize_height",
                     "unit_square_generators", "verify_cocycle"), "synthesis"),
    **dict.fromkeys(("CountTable", "build_count_table", "read_table", "write_table"), "tables"),
    **dict.fromkeys(("BridgeDecomposition", "Walk", "count_bridges", "count_halfspace",
                     "count_saws", "decompose", "enumerate_walks", "is_bridge", "is_halfspace",
                     "is_reversed_bridge", "make_walk", "span"), "walks"),
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = sorted([*_EXPORTS, *_SUBMODULES])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
