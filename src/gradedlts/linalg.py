"""Exact linear algebra over the rationals and prime fields.

Scalars are either arbitrary-precision rationals (``fractions.Fraction``,
always in lowest terms with positive denominator) or residues modulo a
prime.  Arithmetic is exact; rank and zero tests are never approximate, so
intermediate entry growth during elimination is unbounded by design.

Subspaces are stored by a canonical reduced-row-echelon basis.  Two
subspaces are equal exactly when their stored bases are equal entry by
entry, which makes every cross-module equality check deterministic.

All values are immutable after construction and all operations are pure
functions, so everything here is safe for concurrent read-only use.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InputError

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# "a" or "a/b" in ASCII decimal digits: no sign on b, no spaces, no "+",
# no "_" separators and no other Unicode digits, all of which int() accepts.
_SCALAR = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _parse_scalar(text: str) -> tuple[int, int]:
    """Numerator and positive denominator of a scalar string "a" or "a/b"."""
    if not _SCALAR.fullmatch(text):
        raise InputError(f"malformed scalar {text!r}")
    num, _, den = text.partition("/")
    try:
        numerator, denominator = int(num), int(den or "1")
    except ValueError:
        # past the interpreter's limit on int/str conversion length
        raise InputError(f"malformed scalar {text!r}") from None
    if denominator == 0:
        raise InputError(f"scalar {text!r} has non-positive denominator")
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


class PrimeFieldElement:
    """A residue modulo a prime, normalized to the range [0, p)."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.p != self.p:
                raise ValueError("mixed prime field moduli")
            return other
        if isinstance(other, int):
            return PrimeFieldElement(other, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.value - o.value, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(o.value - self.value, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.value == 0:
            raise ZeroDivisionError("division by zero residue")
        return PrimeFieldElement(self.value * pow(o.value, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self):
        return PrimeFieldElement(-self.value, self.p)

    def __eq__(self, other):
        if isinstance(other, PrimeFieldElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value} (mod {self.p})"

    def __str__(self):
        return str(self.value)


class RationalField:
    """The field of rationals with arbitrary-precision exact arithmetic."""

    kind = "rational"

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

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
        return str(x)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "RationalField()"


class PrimeField:
    """The finite field with p elements, p prime."""

    kind = "prime"

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise InputError(f"modulus {p!r} is not a prime")
        self.p = p

    @property
    def zero(self):
        return PrimeFieldElement(0, self.p)

    @property
    def one(self):
        return PrimeFieldElement(1, self.p)

    def element(self, x) -> PrimeFieldElement:
        """Coerce an int, residue, or "a"/"a/b" string into a scalar."""
        if isinstance(x, PrimeFieldElement):
            if x.p != self.p:
                raise InputError("residue from a different prime field")
            return x
        if isinstance(x, int):
            return PrimeFieldElement(x, self.p)
        if isinstance(x, str):
            numerator, denominator = _parse_scalar(x)
            if denominator % self.p == 0:
                raise InputError(f"scalar {x!r} has denominator divisible by {self.p}")
            return PrimeFieldElement(numerator, self.p) / PrimeFieldElement(denominator, self.p)
        raise InputError(f"cannot interpret {x!r} as a mod-{self.p} scalar")

    def format(self, x) -> str:
        return str(x)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


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

    def transpose(self) -> "Matrix":
        return Matrix(
            self.field,
            [
                [self.rows[r][c] for r in range(self.nrows)]
                for c in range(self.ncols)
            ],
            ncols=self.nrows,
        )

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
        body = "; ".join("(" + ", ".join(str(x) for x in r) + ")" for r in self.rows)
        return f"Matrix[{self.nrows}x{self.ncols} | {body}]"


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with strictly increasing pivot columns.

    The pivot search takes the first nonzero entry in each column, every
    pivot is scaled to 1, and pivot columns are cleared above and below, so
    the result is the canonical normal form of the row space.

    Returns:
        (R, pivots) where R has the same row space as `m` and `pivots` lists
        the pivot column indices in increasing order.
    """
    field = m.field
    zero, one = field.zero, field.one
    rows = [list(r) for r in m.rows]
    nrows, ncols = m.nrows, m.ncols
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c] != zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = one / rows[r][c]
        if inv != one:
            rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != zero:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    nonzero = rows[: len(pivots)]
    return Matrix(field, nonzero, ncols=ncols), tuple(pivots)


def vec_times_matrix(vec: Sequence, m: Matrix) -> tuple:
    """Row vector times matrix, returning a row vector of length m.ncols."""
    if len(vec) != m.nrows:
        raise ValueError("vector length does not match row count")
    zero = m.field.zero
    out = [zero] * m.ncols
    for coef, row in zip(vec, m.rows):
        if coef != zero:
            for c, entry in enumerate(row):
                if entry != zero:
                    out[c] = out[c] + coef * entry
    return tuple(out)


class Echelon:
    """Mutable forward-elimination accumulator for building spans.

    Rows are kept normalized with leading coefficient 1, indexed by pivot
    column.  This supports fast "does this vector enlarge the span" queries
    inside fixed-point loops; canonical output goes through `Subspace`.
    """

    def __init__(self, field, ambient: int):
        self.field = field
        self.ambient = ambient
        self._rows: dict[int, list] = {}

    def residual(self, vec: Sequence) -> list:
        zero = self.field.zero
        v = list(vec)
        for p in sorted(self._rows):
            coef = v[p]
            if coef != zero:
                row = self._rows[p]
                for c in range(p, self.ambient):
                    v[c] = v[c] - coef * row[c]
        return v

    def add(self, vec: Sequence) -> bool:
        """Insert a vector; returns True when it enlarged the span."""
        zero, one = self.field.zero, self.field.one
        v = self.residual(vec)
        pivot = None
        for c, entry in enumerate(v):
            if entry != zero:
                pivot = c
                break
        if pivot is None:
            return False
        inv = one / v[pivot]
        if inv != one:
            v = [x * inv for x in v]
        self._rows[pivot] = v
        return True

    def contains(self, vec: Sequence) -> bool:
        zero = self.field.zero
        return all(x == zero for x in self.residual(vec))

    @property
    def dim(self) -> int:
        return len(self._rows)

    def vectors(self) -> list[tuple]:
        return [tuple(self._rows[p]) for p in sorted(self._rows)]


class Subspace:
    """A linear subspace stored by its canonical RREF basis.

    Invariants: the basis matrix has full row rank and is in reduced row
    echelon form with strictly increasing pivot columns, so subspace
    equality is plain equality of the stored bases.
    """

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field, ambient: int, vectors: Iterable[Sequence]):
        # entries are coerced so stored bases carry canonical scalar types
        coerced = [list(map(field.element, row)) for row in vectors]
        raw = Matrix(field, coerced, ncols=ambient)
        reduced, pivots = rref(raw)
        self.field = field
        self.ambient = ambient
        self.basis = reduced
        self.pivots = pivots

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

    def residual(self, vec: Sequence) -> list:
        """Reduce a vector against the basis; zero residual means membership."""
        zero = self.field.zero
        v = list(vec)
        if len(v) != self.ambient:
            raise ValueError("ambient dimension mismatch")
        for row, p in zip(self.basis.rows, self.pivots):
            coef = v[p]
            if coef != zero:
                for c in range(p, self.ambient):
                    v[c] = v[c] - coef * row[c]
        return v

    def contains(self, vec: Sequence) -> bool:
        zero = self.field.zero
        return all(x == zero for x in self.residual(vec))

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return all(self.contains(row) for row in other.basis.rows)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace(self.field, self.ambient, list(self.basis.rows) + list(other.basis.rows))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the kernel of the stacked basis matrix.

        A row vector (c | d) with c * A = d * B witnesses a common element
        c * A, so the intersection is spanned by those combinations.
        """
        self._check_compatible(other)
        ra = self.basis.nrows
        stacked_rows = list(self.basis.rows) + [
            tuple(-x for x in row) for row in other.basis.rows
        ]
        stacked = Matrix(self.field, stacked_rows, ncols=self.ambient)
        k = kernel(stacked.transpose())
        vectors = []
        for combo in k.basis.rows:
            vec = [self.field.zero] * self.ambient
            for coef, row in zip(combo[:ra], self.basis.rows):
                if coef != self.field.zero:
                    for c, entry in enumerate(row):
                        vec[c] = vec[c] + coef * entry
            vectors.append(vec)
        return Subspace(self.field, self.ambient, vectors)

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


def span(field, ambient: int, vectors: Iterable[Sequence]) -> Subspace:
    """Canonical subspace spanned by the given vectors."""
    return Subspace(field, ambient, vectors)


def kernel(m: Matrix) -> Subspace:
    """Right kernel {x : m x = 0} as a canonical subspace of K^ncols."""
    reduced, pivots = rref(m)
    field = m.field
    zero, one = field.zero, field.one
    pivot_set = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivot_set]
    vectors = []
    for c in free:
        v = [zero] * m.ncols
        v[c] = one
        for r, p in enumerate(pivots):
            v[p] = -reduced.rows[r][c]
        vectors.append(v)
    return Subspace(field, m.ncols, vectors)


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
    acc = Echelon(sub.field, sub.ambient)
    for row in sub.basis.rows:
        acc.add(row)
    kept = []
    for row in within.basis.rows:
        if acc.add(row):
            kept.append(row)
    return Subspace(sub.field, sub.ambient, kept)
