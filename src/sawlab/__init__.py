"""sawlab: exact self-avoiding-walk enumeration on quasi-transitive graphs,
graph height functions, quotient-based height synthesis, and certified
connective-constant brackets."""

from .bounds import (
    BoundsReport,
    LocalityReport,
    SimilarityResult,
    ball_isomorphic,
    bracket,
    check_fekete,
    distinct_partitions,
    locality_report,
    similarity_K,
)
from .errors import (
    InvariantViolationError,
    MalformedLabelError,
    ResourceBudgetError,
    SawlabError,
    UsageError,
)
from .families import (
    Ball,
    GraphFamily,
    ball,
    heisenberg,
    hexagonal,
    hypercubic,
    parse_family,
    regular_tree,
    square_octagon,
)
from .heights import (
    HeightFunction,
    HeightValidationReport,
    default_height,
    validate_height,
    verify_r,
)
from .quotient import (
    QuotientGraph,
    build_quotient,
    check_symmetric,
    cylinder,
)
from .synthesis import (
    DirectedCycleBasis,
    EdgeIncrement,
    LiftedHeight,
    cycle_basis,
    lift_height,
    solve_increments,
    synthesize_height,
    unit_square_generators,
    verify_cocycle,
)
from .tables import CountTable, build_count_table, read_table, write_table
from .walks import (
    BridgeDecomposition,
    Walk,
    count_bridges,
    count_halfspace,
    count_saws,
    decompose,
    enumerate_walks,
    is_bridge,
    is_halfspace,
    is_reversed_bridge,
    make_walk,
    span,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
