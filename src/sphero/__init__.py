"""Exact machinery for almost automorphism groups of forests of rooted trees.

Tree-pair arithmetic with finitely supported labels, generalized posets with
Morse bookkeeping, decorated disjoint-support complexes and their splitting
posets, integral homology certificates via Smith normal form, and equivariant
cell-trading inventories.
"""

__version__ = "0.1.0"

from .groups import (  # noqa: F401
    ArrowKind,
    Config,
    LabeledIsometry,
    LeafPartition,
    TreePair,
    canonical_form,
    classify_arrow,
    common_prefix_length,
    common_refinement,
    compose,
    depth_triviality,
    identity_element,
    inverse,
    isometry_element,
    stabilizer_test,
    subnormal_depth,
    thompson_membership,
)
from .posets import GenPoset, coone, join, quotient_by_subgroupoid, underlying_poset  # noqa: F401
from .homology import (  # noqa: F401
    ChainComplex,
    HomologyResult,
    flag_complex,
    neighbour_masks,
    pi1_report,
    reduced_homology,
)
from .complexes import (  # noqa: F401
    DecoratedComplex,
    DecoratedVertex,
    SplitRecord,
    build_complex,
    connectivity_bound,
    count_cell_orbits,
    cut_poset,
    elementary_split_poset,
    morse_value,
    split_class_poset,
    vertex_descending_link,
)
from .trading import (  # noqa: F401
    CellInventory,
    FiltrationSchedule,
    TradeLog,
    euler_characteristic,
    run_staircase,
    sparsify,
    trade_cell,
)
