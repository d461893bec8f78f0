"""Exception types shared across the library.

Every mathematical claim the library produces is backed by an explicitly
computed certificate.  When a certificate fails, the corresponding exception
carries a machine-readable witness so that callers (and the command line)
can surface exactly what broke instead of silently producing a wrong report.
"""

from __future__ import annotations


class InputError(ValueError):
    """Malformed input file or inconsistent system description."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class CertificateFailure(RuntimeError):
    """A computed postcondition certificate did not hold.

    `witness` is a small, JSON-serializable description of the failing
    instance (indices, vectors as strings, or similar).
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotWellDefined(CertificateFailure):
    """The quotient bracket does not descend to the tensor-square quotient."""


class LeibnizIdentityFailure(CertificateFailure):
    """The quotient algebra of the standard embedding fails the Leibniz identity."""


class DecompositionFailure(CertificateFailure):
    """A claimed direct-sum decomposition is not direct or does not span."""


class EquivalenceFailure(CertificateFailure):
    """The connection relation recheck found a symmetry or transitivity defect."""


class IdealCertificateFailure(CertificateFailure):
    """A subspace claimed to be an ideal fails the ideal predicate."""


def is_int(x) -> bool:
    """An int and not a bool (JSON true/false load as bool, a subclass of int)."""
    return isinstance(x, int) and not isinstance(x, bool)


def read_only(self, name, *value):
    """`__setattr__` and `__delattr__` of the immutable value classes."""
    raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")
