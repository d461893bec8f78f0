"""Exact-arithmetic structure analysis for group-graded Leibniz triple systems.

The package verifies the defining identities of a graded Leibniz triple
system, builds its standard embedding as a certified tensor-square
quotient, decides the connection relation on the support, and produces the
ideal decomposition along connection classes with machine-checkable
certificates for every claim.
"""

__version__ = "0.1.0"

from .connections import (
    ConnectionClass,
    SupportData,
    are_connected,
    connection_classes,
    connection_closure,
    validate_sequence,
    witness_sequence,
)
from .decomposition import (
    ClassIdeal,
    DecompositionReport,
    LemmaCheck,
    Obstruction,
    class_core_span,
    class_ideal,
    decompose,
    simplicity_obstructions,
    support_product_span,
    verify_structure_lemmas,
)
from .embedding import StandardEmbedding, build_embedding
from .errors import (
    CertificateFailure,
    DecompositionFailure,
    EquivalenceFailure,
    IdealCertificateFailure,
    InputError,
    LeibnizIdentityFailure,
    NotWellDefined,
    OracleDisagreement,
)
from .fixtures import (
    BUILTIN_NAMES,
    GradedLeibnizAlgebra,
    builtin,
    direct_sum,
    from_leibniz_algebra,
    nonlie_algebra,
    relabel_degrees,
    search_nonlie_example,
    sl2_algebra,
    zero_system,
)
from .groups import AbelianGroup, GroupElement
from .identities import Violation
from .linalg import (
    Matrix,
    PrimeField,
    RationalField,
    Subspace,
    complete_complement,
    kernel,
    rref,
    span,
)
from .systemfile import dump_system, dumps_system, load_system, loads_system
from .triples import GradedTripleSystem

__all__ = [
    "AbelianGroup",
    "BUILTIN_NAMES",
    "CertificateFailure",
    "ClassIdeal",
    "ConnectionClass",
    "DecompositionFailure",
    "DecompositionReport",
    "EquivalenceFailure",
    "GradedLeibnizAlgebra",
    "GradedTripleSystem",
    "GroupElement",
    "IdealCertificateFailure",
    "InputError",
    "LeibnizIdentityFailure",
    "LemmaCheck",
    "Matrix",
    "NotWellDefined",
    "Obstruction",
    "OracleDisagreement",
    "PrimeField",
    "RationalField",
    "StandardEmbedding",
    "Subspace",
    "SupportData",
    "Violation",
    "are_connected",
    "build_embedding",
    "builtin",
    "class_core_span",
    "class_ideal",
    "complete_complement",
    "connection_classes",
    "connection_closure",
    "decompose",
    "direct_sum",
    "dump_system",
    "dumps_system",
    "from_leibniz_algebra",
    "kernel",
    "load_system",
    "loads_system",
    "nonlie_algebra",
    "relabel_degrees",
    "rref",
    "search_nonlie_example",
    "simplicity_obstructions",
    "sl2_algebra",
    "span",
    "support_product_span",
    "validate_sequence",
    "verify_structure_lemmas",
    "witness_sequence",
    "zero_system",
]
