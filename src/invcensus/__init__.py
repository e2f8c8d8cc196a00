"""Exact counting of local unitary invariants of bipartite density matrices.

The census route counts invariants as one inner product of symmetric-group
class functions built from characters; the Molien route recounts them by
torus constant terms; the factorizer searches for integrity-basis
presentations of the resulting series.  All arithmetic is exact.
"""

from . import characters, kronecker, laurent, partitions  # laurent: see its docstring
from .census import DEFAULT_DEGREE_LIMIT, CensusProblem, generating_series, invariant_count
from .characters import CharTable, char_table, character
from .errors import (
    ConsistencyError,
    InvcensusError,
    PartitionParseError,
    ResourceLimitError,
    SeriesFormatError,
    WeightMismatchError,
)
from .factorizer import (
    FitReport,
    RationalForm,
    compare,
    expand,
    fit_denominator,
    numerator_for_denominator,
    search_candidates,
)
from .kronecker import (
    SchurExpansion,
    inner_product_expansion,
    kronecker_coefficient,
    pair_weight,
)
from .molien import molien_coefficient, molien_series
from .partitions import (
    Partition,
    conjugate,
    dimension,
    format_partition,
    parse_partition,
    partitions_of,
    z_order,
)
from .series import Series, read_series_file, series_from_json, series_to_json, write_series_file

__version__ = "0.39.0"


# every memo in the package, each a functools cache
_MEMOS = (
    characters._table,
    characters._character,
    kronecker._kron,
    kronecker._packed,
    partitions._partitions,
    partitions.class_sizes,
)


def clear_caches() -> None:
    """Empty every memo: character tables and values, Kronecker coefficients,
    the packed tables of the Kronecker class sums, partitions and class
    sizes.  The next computation starts cold."""
    for memo in _MEMOS:
        memo.cache_clear()


__all__ = [
    "CensusProblem",
    "CharTable",
    "ConsistencyError",
    "DEFAULT_DEGREE_LIMIT",
    "FitReport",
    "InvcensusError",
    "Partition",
    "PartitionParseError",
    "RationalForm",
    "ResourceLimitError",
    "SchurExpansion",
    "Series",
    "SeriesFormatError",
    "WeightMismatchError",
    "char_table",
    "character",
    "clear_caches",
    "compare",
    "conjugate",
    "dimension",
    "expand",
    "fit_denominator",
    "format_partition",
    "generating_series",
    "inner_product_expansion",
    "invariant_count",
    "kronecker_coefficient",
    "molien_coefficient",
    "molien_series",
    "numerator_for_denominator",
    "pair_weight",
    "parse_partition",
    "partitions_of",
    "read_series_file",
    "search_candidates",
    "series_from_json",
    "series_to_json",
    "write_series_file",
    "z_order",
    "__version__",
]
