"""The field of rationals.

It is kept out of `linalg` so that only rational systems import
``fractions`` (and with it ``decimal`` and ``numbers``); `linalg` builds it
from a descriptor on first use.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import InputError
from .linalg import _decimal, _parse_scalar, sparse


class RationalField:
    """The field of rationals; kernels and `Echelon` rows hold ints, exact values Fractions."""

    kind = "rational"
    zero = Fraction(0)
    one = Fraction(1)

    def element(self, x) -> Fraction:
        """Coerce an int, Fraction, or "a"/"a/b" string into a scalar."""
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(*_parse_scalar(x))
        raise InputError(f"cannot interpret {x!r} as a rational scalar")

    def format(self, x) -> str:
        if x.denominator == 1:
            return _decimal(x.numerator)
        return f"{_decimal(x.numerator)}/{_decimal(x.denominator)}"

    def clean(self, vec: dict) -> dict:
        """The nonzero entries of an accumulated sparse vector."""
        return {t: x for t, x in vec.items() if x}

    def integral(self, vec) -> tuple[dict, object]:
        """(w, c): the primitive integer vector w = c * vec of a dense or sparse
        vector, as {index: int}; zero and membership tests may run on w."""
        v = sparse(vec)
        d = lcm(*(x.denominator for x in v.values()))
        w = {t: x.numerator * (d // x.denominator) for t, x in v.items()}
        g = gcd(*w.values())
        if g > 1:
            return {t: x // g for t, x in w.items()}, Fraction(d, g)
        return w, d

    def descriptor(self) -> dict:
        """The document form of the field, the inverse of `field_from_descriptor`."""
        return {"kind": "rational"}

    def integer_image(self, table: dict) -> tuple[dict, int]:
        """(ints, D) for a table {key: {index: scalar}}: D is the lcm of its
        denominators and ints holds D times each entry as an int."""
        d = lcm(*(x.denominator for entry in table.values() for x in entry.values()))
        ints = {
            key: {l: x.numerator * (d // x.denominator) for l, x in entry.items()}
            for key, entry in table.items()
        }
        return ints, d

    def unscale(self, vec: dict, c) -> dict:
        """{t: x / c}: the exact vector of which `vec` is c times."""
        return {t: Fraction(x, c) for t, x in vec.items()}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "RationalField()"
