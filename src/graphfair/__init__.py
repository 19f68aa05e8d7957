"""Connected fair division of indivisible goods on structured graphs.

Exact-arithmetic allocators with worst-case maximin-share guarantees:
1/2 on block-cactus graphs, 1/4 on complete multipartite graphs, and
3/(7*2^k - 3) on split graphs with 2^(k-1) < p <= 2^k agent types, each
certified against a brute-force oracle.

The package root exports the user-facing API; solver internals stay in
their modules.
"""

from .core import (
    Agent,
    Allocation,
    ClassMismatchError,
    FairDivisionError,
    GoodsGraph,
    GuaranteeViolationError,
    Instance,
    InvalidInputError,
    SizeLimitError,
    StructuralError,
    UndefinedMmsError,
    UnsupportedBlockError,
    Value,
    as_value,
    validate_instance,
    value_str,
)
from .graphs import ClassWitness, recognize
from .oracle import MmsRecord, max_min_ratio_allocation, mms, pmms
from .blockcactus import allocate_block_cactus
from .multipartite import allocate_multipartite
from .splitgraph import allocate_split, split_alpha
from .verify import Certificate, check_allocation

__version__ = "0.1.0"

__all__ = [
    "Agent",
    "Allocation",
    "Certificate",
    "ClassMismatchError",
    "ClassWitness",
    "FairDivisionError",
    "GoodsGraph",
    "GuaranteeViolationError",
    "Instance",
    "InvalidInputError",
    "MmsRecord",
    "SizeLimitError",
    "StructuralError",
    "UndefinedMmsError",
    "UnsupportedBlockError",
    "Value",
    "allocate_block_cactus",
    "allocate_multipartite",
    "allocate_split",
    "as_value",
    "check_allocation",
    "max_min_ratio_allocation",
    "mms",
    "pmms",
    "recognize",
    "split_alpha",
    "validate_instance",
    "value_str",
]
