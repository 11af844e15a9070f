"""permpat: the vocabulary of permutation patterns.

Containment and occurrences, structural decompositions, classical
statistics, mesh-family patterns, avoidance-class enumeration, growth-rate
proxies, Wilf classification and generating-function fitting, plus a CLI
(`permpat`).
"""

from .classes import (
    Basis,
    ClassEnumeration,
    GrowthEstimate,
    WilfClassification,
    WilfVerdict,
    enumerate_class,
    growth_estimates,
    parse_basis,
    validate_basis,
    wilf_classify,
    wilf_equivalent,
)
from .errors import (
    InsufficientPrefixError,
    InvalidBasisError,
    IterationCapError,
    MalformedPermutationError,
    PatternSyntaxError,
    PermPatError,
    UnknownStatisticError,
)
from .gfun import (
    AlgebraicFit,
    RationalFit,
    fit_algebraic,
    fit_rational,
    series_from_enumeration,
)
from .patterns import (
    BarredPattern,
    BivincularPattern,
    MeshPattern,
    VincularPattern,
    barred_contains,
    compile_bivincular,
    compile_vincular,
    consecutive_pattern,
    mesh_occurrences,
    parse_pattern,
    vincular_count,
    vincular_occurrences,
)
from .perm import (
    Interval,
    Permutation,
    Symmetry,
    contains,
    direct_sum,
    extremal,
    find_occurrence,
    inflate,
    intervals,
    is_layered,
    is_simple,
    occurrences,
    parse,
    reduce_word,
    skew_decompose,
    skew_sum,
    substitution_decompose,
    sum_decompose,
    symmetry_orbit,
)
from .stats import (
    STATISTICS,
    descent_set,
    distribution,
    equidistributed,
    statistic,
)

__version__ = "0.1.0"
