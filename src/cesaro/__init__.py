"""Subsets of the positive integers as composable expressions, with exact
or streamed Cesàro limits (natural densities), null modification, chain
analysis, and finite Boolean quotients."""

from .chains import (
    Chain,
    ChainError,
    OrderEvidence,
    UniformityCertificate,
    UniformityFailure,
    dense_extension,
    maximal_extension,
    pseudo_metric,
    skeleton,
    uniformity_check,
    verify_chain,
)
from .constructions import (
    ConstructionError,
    counterexample_pair,
    dyadic_partition,
    greedy_target,
    midpoint_set,
)
from .dsl import ParseError, format_expr, parse_expr
from .exprs import (
    All,
    Blocks,
    CesaroError,
    Compl,
    ConfigurationError,
    Diff,
    Dilate,
    Empty,
    Explicit,
    GapPair,
    Geometric,
    Greedy,
    Inter,
    Midpoint,
    Poly,
    Predicate,
    PrefixStat,
    Residue,
    RunList,
    SetExpr,
    Shift,
    SymDiff,
    Union,
    ZSpec,
    canonicalize,
    count_upto,
    gap_functions,
    indicator,
    member,
    partial_average,
    prefix_scan,
)
from .limits import (
    Classification,
    LimitReport,
    NotExactlySolvable,
    Verdict,
    classify,
    estimate_limits,
    exact_limits,
)
from .nullmod import (
    ChainMapResult,
    ChainModification,
    NullModError,
    NullModResult,
    chain_phi,
    chain_psi,
    disjoint_modify,
    null_modify,
)
from .quotient import (
    EquivalenceVerdict,
    FiniteAlgebra,
    Ideal,
    QuotientClass,
    QuotientError,
    QuotientResult,
    build_algebra,
    build_quotient,
    disjoint_representatives,
    generate_subalgebra,
    is_subalgebra,
    monotone_closure,
    null_equivalent,
)

__version__ = "0.1.0"
