"""Exact linear algebra over the rationals and prime fields.

Scalars are arbitrary-precision rationals (``fractions.Fraction``, in lowest
terms with positive denominator) or, over GF(p), plain ints in [0, p).  The
rational field lives in `rational`, so the prime-field path never imports
``fractions``.  The field's `clean` reduces an accumulated sparse vector
once and drops its zeros, so hot loops work on unreduced ints.  Scaling
moves no zero, so over Q the zero and membership tests run on integer
images: `integral` clears a vector to a primitive integer vector,
`integer_image` a table to D times it (D the lcm of its denominators), and
`unscale` divides a result back.  Residues are their own integer image.
Arithmetic is exact, and entry growth is unbounded by design.  Scalar
strings "a" and "a/b" of any length parse and format exactly.

One type, `Subspace`, holds a span as its canonical integer rows and does
all elimination on them; the exact reduced row echelon form, kernels,
complements, membership, sums and intersections (by Zassenhaus
elimination) are read off it, and two subspaces are equal exactly when
their stored rows are.  Fractions appear only where exact values leave:
`Subspace.basis`, built from the rows on each read.

A `Subspace` grows in place through `add` only while it is built; once
handed out it is read only, and concurrent reads are safe.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from math import gcd, lcm
from typing import Iterable

from .errors import InputError

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981  # psi_13: the 13 bases above are exact below it

# "a" or "a/b" in ASCII decimal digits: no sign on b, no spaces, no "+",
# no "_" separators and no other Unicode digits, all of which int() accepts.
_SCALAR = re.compile(r"-?[0-9]+(/[0-9]+)?")
_INT = frozenset([int])


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
    """Deterministic Miller-Rabin primality test; InputError from p = psi_13 on."""
    if p >= _MR_BOUND:
        raise InputError(f"modulus too large to test for primality (limit {_MR_BOUND})")
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

    def clean(self, vec: dict) -> dict:
        """The entries of an accumulated sparse vector reduced mod p, zeros dropped."""
        p = self.p
        return {t: r for t, x in vec.items() if (r := x % p)}

    def integral(self, vec) -> tuple[dict, int]:
        return sparse(vec), 1

    def integer_image(self, table: dict) -> tuple[dict, int]:
        return table, 1

    def descriptor(self) -> dict:
        return {"kind": "prime", "p": self.p}

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
        from .rational import RationalField

        return RationalField()
    if kind == "prime":
        if "p" not in descriptor:
            raise InputError("prime field descriptor is missing 'p'")
        return PrimeField(descriptor["p"])
    raise InputError(f"unknown field kind {kind!r}")


class Subspace:
    """A linear subspace kept in sparse echelon form on canonical integer rows.

    Each row {column: int} is stored in `int_rows` under its pivot (its
    first column); every pivot column is zero in all other rows.  Over GF(p)
    a row holds residues with pivot entry 1, over Q it is the primitive
    integer multiple of its reduced row with a positive pivot entry, so the
    rows are fixed by the span: equality, hash, dimension and membership are
    read off them, and `basis` divides them back to the exact RREF.
    Elimination is fraction-free: over Q a vector is scaled once by the lcm
    of the pivot entries it meets.  Vectors are dense sequences of length
    `ambient` or sparse mappings {column: scalar}, columns in [0, ambient).
    """

    __slots__ = ("field", "ambient", "int_rows", "_p")

    def __init__(self, field, ambient: int, vectors: Iterable = ()):
        self.field = field
        self.ambient = ambient
        self.int_rows: dict[int, dict] = {}
        self._p = field.p if field.kind == "prime" else 0
        for vec in vectors:
            self.add(vec)

    @classmethod
    def zero(cls, field, ambient: int) -> "Subspace":
        return cls(field, ambient)

    @classmethod
    def full(cls, field, ambient: int) -> "Subspace":
        return cls(field, ambient, ({i: 1} for i in range(ambient)))

    def reduce(self, vec) -> dict:
        """A nonzero multiple of the residual of `vec` as {column: int}, zeros
        dropped (residues over GF(p)); empty exactly on the span."""
        if type(vec) is not dict and not isinstance(vec, Mapping):
            if len(vec) != self.ambient:
                raise ValueError("ambient dimension mismatch")
            vec = dict(enumerate(vec))
        elif vec and (min(vec) < 0 or max(vec) >= self.ambient):
            raise ValueError("ambient dimension mismatch")
        rows, p = self.int_rows, self._p
        if not p and not _INT.issuperset(map(type, vec.values())):
            vec = self.field.integral(vec)[0]
        hits = [c for c, x in vec.items() if x and c in rows]
        scale = 1 if p else lcm(*(rows[c][c] for c in hits))
        v = {c: x * scale for c, x in vec.items()} if scale > 1 else dict(vec)
        for c in hits:
            row = rows[c]
            coef = v[c] // row[c]
            for col, x in row.items():
                v[col] = v.get(col, 0) - coef * x
        return self.field.clean(v)

    def add(self, vec) -> bool:
        """Insert a vector; returns True when it enlarged the span."""
        v = self.reduce(vec)
        if not v:
            return False
        pivot, rows = min(v), self.int_rows
        row = self._canonical(v, pivot)
        a = row[pivot]
        for q, other in rows.items():
            if pivot in other:
                # other <- (a other - other[pivot] row) / gcd(a, other[pivot])
                g = gcd(a, other[pivot])
                m, coef = a // g, other[pivot] // g
                new = {c: m * x for c, x in other.items()}
                for c, x in row.items():
                    new[c] = new.get(c, 0) - coef * x
                rows[q] = self._canonical(new, q)
        rows[pivot] = row
        return True

    def _canonical(self, v: dict, pivot: int) -> dict:
        """The stored row of which the int vector v, first column `pivot`, is a multiple."""
        if p := self._p:
            unit = pow(v[pivot], -1, p)
            return {c: r for c, x in v.items() if (r := x * unit % p)}
        content = gcd(*v.values()) if v[pivot] > 0 else -gcd(*v.values())
        return {c: x // content for c, x in v.items() if x}

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self.int_rows))

    @property
    def basis(self) -> tuple[tuple, ...]:
        """The canonical reduced-row-echelon basis as exact dense row tuples,
        pivots strictly increasing; built on each read."""
        zero, unscale, n = self.field.zero, self.field.unscale, self.ambient
        exact = (unscale(row, row[q]) for q, row in sorted(self.int_rows.items()))
        return tuple(tuple([row.get(c, zero) for c in range(n)]) for row in exact)

    @property
    def dim(self) -> int:
        return len(self.int_rows)

    def is_zero(self) -> bool:
        return not self.int_rows

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    def integral_rows(self) -> list[dict]:
        """The stored rows in pivot order, {column: int}; do not change them."""
        rows = self.int_rows
        return [rows[q] for q in sorted(rows)]

    def free_vectors(self) -> list[dict]:
        """One kernel vector per free (non-pivot) column c, in column order:
        d e_c minus, at each pivot q, d / row[q] times the entry of row q in
        column c, with d the lcm of those pivot entries (1 over GF(p))."""
        rows, vectors = self.int_rows, []
        for c in range(self.ambient):
            if c not in rows:
                entries = [(q, row[c], row[q]) for q, row in rows.items() if c in row]
                d = lcm(*(a for _, _, a in entries))
                vectors.append({c: d, **{q: -x * (d // a) for q, x, a in entries}})
        return vectors

    def kernel(self) -> "Subspace":
        """{x : r . x = 0 for every row r}, spanned by the `free_vectors`."""
        return Subspace(self.field, self.ambient, self.free_vectors())

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return all(self.contains(row) for row in other.integral_rows())

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace(self.field, self.ambient, [*self.integral_rows(), *other.integral_rows()])

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection by Zassenhaus elimination in K^2n.

        The rows (a | a) for a in this basis and (b | 0) for b in the other
        span {(a + b | a)}; its vectors with zero left half are (0 | x) for x
        in the intersection, and they are spanned by the reduced rows whose
        pivot lies in the right half.
        """
        self._check_compatible(other)
        n = self.ambient
        rows = [{**a, **{c + n: x for c, x in a.items()}} for a in self.integral_rows()]
        meet = Subspace(self.field, 2 * n, rows + other.integral_rows())
        right = [{c - n: x for c, x in row.items()} for p, row in meet.int_rows.items() if p >= n]
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
            and self.int_rows == other.int_rows
        )

    def __hash__(self):
        rows = map(frozenset, map(dict.items, self.integral_rows()))
        return hash((self.field, self.ambient, tuple(rows)))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient})"


def span(field, ambient: int, vectors: Iterable) -> Subspace:
    """Canonical subspace spanned by the given vectors."""
    return Subspace(field, ambient, vectors)


def complete_complement(sub: Subspace, within: Subspace) -> Subspace:
    """Deterministic complement W with sub + W = within and sub & W = 0.

    W is spanned by the first basis vectors of `within` (taken in canonical
    order) that enlarge the span of `sub`, i.e. a greedy pivot completion.
    The greedy choice makes the complement reproducible across runs.
    """
    if not within.contains_subspace(sub):
        raise ValueError("complement requested for a subspace not contained in the carrier")
    acc = Subspace(sub.field, sub.ambient, sub.integral_rows())
    kept = [row for row in within.integral_rows() if acc.add(row)]
    return Subspace(sub.field, sub.ambient, kept)
