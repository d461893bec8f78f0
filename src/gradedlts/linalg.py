"""Exact linear algebra over the rationals and prime fields.

Scalars are arbitrary-precision rationals (``fractions.Fraction``, in lowest
terms with positive denominator) or, over GF(p), plain ints in [0, p).  The
field supplies what ``+ - *`` lacks: `inverse`, and `clean`, which reduces
an accumulated sparse vector once and drops its zeros, so hot loops work on
unreduced ints.  Scaling moves no zero, so over Q the zero and membership
tests run on integer images: `integral` clears a vector to a primitive
integer vector, `integer_image` a table to D times it (D the lcm of its
denominators), and `unscale` divides a reported result back.  Residues are
their own integer image.  Arithmetic is exact: no rank or zero test is
approximate, and entry growth is unbounded by design.  Scalar strings "a"
and "a/b" of any length parse and format exactly.

All elimination goes through one sparse eliminator, `Echelon`; `rref`,
kernels, complements, subspace membership, sums and intersections (by
Zassenhaus elimination) are read off it.  Subspaces are stored by their
canonical reduced-row-echelon basis, so two subspaces are equal exactly when
their stored bases are equal entry by entry, which makes every cross-module
equality check deterministic.

An `Echelon` grows in place; everything else is immutable after
construction and all operations are pure functions, so it is safe for
concurrent read-only use.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import InputError

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# "a" or "a/b" in ASCII decimal digits: no sign on b, no spaces, no "+",
# no "_" separators and no other Unicode digits, all of which int() accepts.
_SCALAR = re.compile(r"-?[0-9]+(/[0-9]+)?")


# Decimal digits per piece of an int/str conversion: under 640, the lowest
# limit the interpreter lets sys.set_int_max_str_digits set, so scalars of
# any length convert without touching that global setting.
_PIECE = 600
_PIECE_BASE = 10**_PIECE


def _int_from_decimal(text: str) -> int:
    """int(text) for an optionally signed ASCII decimal string of any length."""
    digits = text.lstrip("-")
    value = 0
    for start in range(0, len(digits), _PIECE):
        piece = digits[start : start + _PIECE]
        value = value * 10 ** len(piece) + int(piece)
    return -value if text.startswith("-") else value


def _decimal(value: int) -> str:
    """str(value) for an int of any length."""
    magnitude = abs(value)
    pieces = []
    while magnitude >= _PIECE_BASE:
        magnitude, low = divmod(magnitude, _PIECE_BASE)
        pieces.append(f"{low:0{_PIECE}d}")
    pieces.append(str(magnitude))
    return ("-" if value < 0 else "") + "".join(reversed(pieces))


def _quote(text: str) -> str:
    """repr of a scalar string for a message; a long one becomes a prefix and its length."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def _parse_scalar(text: str) -> tuple[int, int]:
    """Numerator and positive denominator of a scalar string "a" or "a/b"."""
    if not _SCALAR.fullmatch(text):
        raise InputError(f"malformed scalar {_quote(text)}")
    num, _, den = text.partition("/")
    numerator, denominator = _int_from_decimal(num), _int_from_decimal(den or "1")
    if denominator == 0:
        raise InputError(f"scalar {_quote(text)} has non-positive denominator")
    return numerator, denominator


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for p < 3.3e24)."""
    if p < 2:
        return False
    for q in _MR_WITNESSES:
        if p % q == 0:
            return p == q
    d = p - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field of rationals; kernels may hold ints, stored rows are Fractions."""

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

    def inverse(self, x) -> Fraction:
        return self.one / x

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


class PrimeField:
    """The finite field with p elements, p prime; its scalars are ints in [0, p),
    their own integer image, so `integral` only drops zeros and D is 1."""

    kind = "prime"
    zero = 0
    one = 1

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise InputError(f"modulus {p!r} is not a prime")
        self.p = p

    def element(self, x) -> int:
        """Coerce an int or "a"/"a/b" string into a residue."""
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, str):
            numerator, denominator = _parse_scalar(x)
            if denominator % self.p == 0:
                raise InputError(f"scalar {_quote(x)} has denominator divisible by {self.p}")
            return numerator * pow(denominator, -1, self.p) % self.p
        raise InputError(f"cannot interpret {x!r} as a mod-{self.p} scalar")

    def format(self, x) -> str:
        return str(x)

    def inverse(self, x) -> int:
        return pow(x, -1, self.p)

    def clean(self, vec: dict) -> dict:
        """The entries of an accumulated sparse vector reduced mod p, zeros dropped."""
        p = self.p
        return {t: r for t, x in vec.items() if (r := x % p)}

    def integral(self, vec) -> tuple[dict, int]:
        return sparse(vec), 1

    def integer_image(self, table: dict) -> tuple[dict, int]:
        return table, 1

    def unscale(self, vec: dict, c) -> dict:
        inv, p = pow(c, -1, self.p), self.p
        return {t: x * inv % p for t, x in vec.items()}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


def sparse(vec) -> dict:
    """{index: scalar} of the nonzero entries of a dense sequence or sparse mapping."""
    items = vec.items() if isinstance(vec, Mapping) else enumerate(vec)
    return {t: x for t, x in items if x}


def field_from_descriptor(descriptor: dict):
    """Build a field from {"kind": "rational"} or {"kind": "prime", "p": p}."""
    kind = descriptor.get("kind")
    if kind == "rational":
        return RationalField()
    if kind == "prime":
        if "p" not in descriptor:
            raise InputError("prime field descriptor is missing 'p'")
        return PrimeField(descriptor["p"])
    raise InputError(f"unknown field kind {kind!r}")


class Matrix:
    """An immutable dense matrix of exact scalars.

    The column count is stored explicitly so that matrices with zero rows
    keep their shape.
    """

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows: Iterable[Sequence], ncols: int | None = None):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("declared column count does not match rows")
            ncols = width
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls(field, [[zero] * i + [one] + [zero] * (n - 1 - i) for i in range(n)], ncols=n)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self):
        body = "; ".join(f"({', '.join(map(str, r))})" for r in self.rows)
        return f"Matrix[{self.nrows}x{self.ncols} | {body}]"


def _eliminate(v: dict, p: int, row: dict) -> None:
    """v -= v[p] * row in place, for a stored row with row[p] = 1; entries stay unreduced."""
    coef = v.pop(p)
    for c, x in row.items():
        if c != p:
            v[c] = v.get(c, 0) - coef * x


class Echelon:
    """The one eliminator: a span kept in sparse reduced row echelon form.

    Each row is a mapping {column: scalar} of its nonzero entries, stored
    under its pivot (its first column).  Every pivot entry is 1 and every
    pivot column is zero in all other rows, so the stored rows are the
    canonical RREF of their span in whatever order the vectors arrived, and
    a vector is reduced in one pass over its entries in pivot columns.
    Vectors are dense sequences of length `ambient` or sparse mappings
    {column: scalar} with columns in [0, ambient); stored entries are field
    scalars.
    """

    __slots__ = ("field", "ambient", "rows")

    def __init__(self, field, ambient: int, vectors: Iterable = ()):
        self.field = field
        self.ambient = ambient
        self.rows: dict[int, dict] = {}
        for vec in vectors:
            self.add(vec)

    def reduce(self, vec) -> dict:
        """Nonzero entries of the residual of `vec`; empty exactly on the span."""
        if not isinstance(vec, Mapping):
            if len(vec) != self.ambient:
                raise ValueError("ambient dimension mismatch")
            vec = dict(enumerate(vec))
        elif vec and (min(vec) < 0 or max(vec) >= self.ambient):
            raise ValueError("ambient dimension mismatch")
        v = {c: x for c, x in vec.items() if x}
        rows = self.rows
        for p in [c for c in v if c in rows]:
            _eliminate(v, p, rows[p])
        return self.field.clean(v)

    def add(self, vec) -> bool:
        """Insert a vector; returns True when it enlarged the span."""
        v = self.reduce(vec)
        if not v:
            return False
        p = min(v)
        field, rows = self.field, self.rows
        inv = field.inverse(v[p])
        row = field.clean({c: v[c] * inv for c in sorted(v)})
        for q, other in rows.items():
            if p in other:
                _eliminate(other, p, row)
                rows[q] = field.clean(other)
        rows[p] = row
        return True

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self.rows))

    def dense(self) -> list[tuple]:
        """The rows as dense tuples, in pivot order."""
        zero = self.field.zero
        out = []
        for p in self.pivots:
            row = [zero] * self.ambient
            for c, x in self.rows[p].items():
                row[c] = x
            out.append(tuple(row))
        return out

    def kernel(self) -> "Subspace":
        """{x : r . x = 0 for every row r}.  The vector of free column c is
        e_c minus, at each pivot p, the entry of row p in column c."""
        one = self.field.one
        free = {c: {c: one} for c in range(self.ambient) if c not in self.rows}
        for p, row in self.rows.items():
            for c, x in row.items():
                if c != p:
                    free[c][p] = -x
        return Subspace(self.field, self.ambient, free.values())


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with strictly increasing pivot columns.

    Every pivot is 1 and pivot columns are cleared above and below, so the
    result is the canonical normal form of the row space.

    Returns:
        (R, pivots) where R has the same row space as `m` and `pivots` lists
        the pivot column indices in increasing order.
    """
    echelon = Echelon(m.field, m.ncols, m.rows)
    return Matrix(m.field, echelon.dense(), ncols=m.ncols), echelon.pivots


class Subspace:
    """A linear subspace stored by its canonical RREF basis.

    Invariants: the basis matrix has full row rank and is in reduced row
    echelon form with strictly increasing pivot columns, so subspace
    equality is plain equality of the stored bases.  Spanning vectors may be
    dense sequences or sparse mappings {column: scalar}.
    """

    __slots__ = ("field", "ambient", "basis", "pivots", "_echelon")

    def __init__(self, field, ambient: int, vectors: Iterable):
        echelon = Echelon(field, ambient, vectors)
        self.field = field
        self.ambient = ambient
        self.basis = Matrix(field, echelon.dense(), ncols=ambient)
        self.pivots = echelon.pivots
        self._echelon = echelon

    @classmethod
    def of(cls, echelon: Echelon) -> "Subspace":
        """The span of `echelon`, kept as the canonical basis; grow it no further."""
        sub = cls(echelon.field, echelon.ambient, ())
        sub.basis = Matrix(echelon.field, echelon.dense(), ncols=echelon.ambient)
        sub.pivots, sub._echelon = echelon.pivots, echelon
        return sub

    @classmethod
    def zero(cls, field, ambient: int) -> "Subspace":
        return cls(field, ambient, [])

    @classmethod
    def full(cls, field, ambient: int) -> "Subspace":
        return cls(field, ambient, Matrix.identity(field, ambient).rows)

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def is_zero(self) -> bool:
        return self.basis.nrows == 0

    def contains(self, vec) -> bool:
        return not self._echelon.reduce(vec)

    def integral_rows(self) -> list[dict]:
        """The basis rows as sparse primitive integer vectors (see `integral`)."""
        return [self.field.integral(self._echelon.rows[p])[0] for p in self.pivots]

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return all(self.contains(row) for row in other._echelon.rows.values())

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        rows = [*self._echelon.rows.values(), *other._echelon.rows.values()]
        return Subspace(self.field, self.ambient, rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection by Zassenhaus elimination in K^2n.

        The rows (a | a) for a in this basis and (b | 0) for b in the other
        span {(a + b | a)}; its vectors with zero left half are (0 | x) for x
        in the intersection, and they are spanned by the reduced rows whose
        pivot lies in the right half.
        """
        self._check_compatible(other)
        n = self.ambient
        rows = []
        for a in self._echelon.rows.values():
            row = dict(a)
            row.update((c + n, x) for c, x in a.items())
            rows.append(row)
        rows.extend(other._echelon.rows.values())
        meet = Echelon(self.field, 2 * n, rows)
        right = [
            {c - n: x for c, x in row.items()} for p, row in meet.rows.items() if p >= n
        ]
        return Subspace(self.field, n, right)

    def _check_compatible(self, other: "Subspace"):
        if self.ambient != other.ambient or self.field != other.field:
            raise ValueError("subspaces live in different ambient spaces")

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field == other.field
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient})"


def span(field, ambient: int, vectors: Iterable) -> Subspace:
    """Canonical subspace spanned by the given vectors."""
    return Subspace(field, ambient, vectors)


def kernel(m: Matrix) -> Subspace:
    """Right kernel {x : m x = 0} as a canonical subspace of K^ncols."""
    return Echelon(m.field, m.ncols, m.rows).kernel()


def complete_complement(sub: Subspace, within: Subspace) -> Subspace:
    """Deterministic complement W with sub + W = within and sub & W = 0.

    W is spanned by the first basis vectors of `within` (taken in canonical
    order) that enlarge the span of `sub`, i.e. a greedy pivot completion.
    The greedy choice makes the complement reproducible across runs.
    """
    if sub.ambient != within.ambient or sub.field != within.field:
        raise ValueError("subspaces live in different ambient spaces")
    if not within.contains_subspace(sub):
        raise ValueError("complement requested for a subspace not contained in the carrier")
    acc = Echelon(sub.field, sub.ambient, sub._echelon.rows.values())
    kept = [row for row in within.basis.rows if acc.add(row)]
    return Subspace(sub.field, sub.ambient, kept)
