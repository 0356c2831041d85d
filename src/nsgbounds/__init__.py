"""Bounds on rational places of function fields from semigroup data.

The package computes the Lewittes, Serre and Geil-Matsumoto bounds from
Weierstrass semigroup data, enumerates all numerical semigroups of a
given genus, and aggregates coincidence and generator-classification
statistics into exact tables.
"""

from .bounds import (
    DEFAULT_Q_SWEEP,
    BoundReport,
    GenClassification,
    GmMethod,
    bound_report,
    classify_generators,
    coincidence_criterion,
    differential_sweep,
    gm_generic,
    gm_set,
    gm_two_gen_closed,
    gm_two_gen_sum,
    lemma_qd_condition,
    lewittes_bound,
    serre_bound,
    sufficient_condition,
    verify_index_reduction,
)
from .enumeration import (
    DEFAULT_NODE_BUDGET,
    TreeNode,
    children,
    count_by_genus,
    enumerate_genus,
    map_reduce_genus,
    root_node,
    worker_pool,
)
from .errors import (
    EmptyIndexSet,
    EmptyInput,
    NonCoprimeGenerators,
    NsgError,
    ResourceLimit,
    SingleGenerator,
)
from .semigroup import (
    NumericalSemigroup,
    TwoGenSemigroup,
    from_generators,
    is_member,
    is_member_consecutive,
    is_member_two_gen,
    unique_representation,
)
from .survey import (
    GmGenTableRow,
    LgmTableRow,
    build_gmgen_table,
    build_lgm_table,
    render_percent,
)

__version__ = "0.1.0"
