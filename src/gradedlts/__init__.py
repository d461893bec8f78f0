"""Exact-arithmetic structure analysis for group-graded Leibniz triple systems.

The package verifies the defining identities of a graded Leibniz triple
system, builds its standard embedding as a certified tensor-square
quotient, decides the connection relation on the support, and produces the
ideal decomposition along connection classes with machine-checkable
certificates for every claim.

`import gradedlts` loads no submodule: each public name is imported from its
submodule on first use (PEP 562), so a command or script compiles only the
modules it needs.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("connections", "ConnectionClass SupportData are_connected connection_classes "
         "connection_closure validate_sequence witness_sequence"),
        ("decomposition", "ClassIdeal DecompositionReport LemmaCheck Obstruction class_core_span "
         "class_ideal decompose simplicity_obstructions support_product_span "
         "verify_structure_lemmas"),
        ("embedding", "StandardEmbedding build_embedding"),
        ("errors", "CertificateFailure DecompositionFailure EquivalenceFailure "
         "IdealCertificateFailure InputError LeibnizIdentityFailure NotWellDefined"),
        ("fixtures", "BUILTIN_NAMES GradedLeibnizAlgebra builtin direct_sum from_leibniz_algebra "
         "relabel_degrees sl2_algebra zero_system"),
        ("groups", "AbelianGroup GroupElement"),
        ("identities", "Violation"),
        ("linalg", "PrimeField Subspace complete_complement"),
        ("rational", "RationalField"),
        ("systemfile", "dump_system dumps_system load_system loads_system"),
        ("triples", "GradedTripleSystem"),
    )
    for name in names.split()
}
_SUBMODULES = frozenset(_EXPORTS.values()) | {"cli"}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
