"""Exact arithmetic over Q(i), quarter-integer grading, and exact sparse linear algebra.

Everything downstream (cocycle phases, operator coefficients, rank decisions)
runs on these types; no floating point exists anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, Optional


class GaussianRational:
    """An element (a + b*i)/d of Q(i), stored as one reduced integer triple.

    Normal form: d > 0 and gcd(a, b, d) = 1, zero being (0, 0, 1), so equal
    values have equal fields.  Every operation builds its result from ints
    and reduces it with a single gcd; re and im are read as Fractions.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        re = re if isinstance(re, Fraction) else Fraction(re)
        im = im if isinstance(im, Fraction) else Fraction(im)
        # over the lcm of two reduced denominators the triple is already reduced
        p, q = re.denominator, im.denominator
        d = p * q // gcd(p, q)
        self.a, self.b, self.d = re.numerator * (d // p), im.numerator * (d // q), d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, int):
            return not self.b and self.d == 1 and self.a == other
        if isinstance(other, Fraction):
            return not self.b and self.d == other.denominator and self.a == other.numerator
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __add__(self, other):
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
        if not self.a and not self.b:
            return other
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.a + other.a, self.b + other.b, d)
        return _reduced(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(-self.a, -self.b, self.d)

    def __sub__(self, other):
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.a - other.a, self.b - other.b, d)
        return _reduced(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if other.__class__ is GaussianRational:
            a, b, c, e = self.a, self.b, other.a, other.b
            return _reduced(a * c - b * e, a * e + b * c, self.d * other.d)
        if isinstance(other, (int, Fraction)):
            return self.scale_frac(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale_frac(self, f: int | Fraction) -> "GaussianRational":
        """Fast path for scaling by a plain rational (an int or a Fraction)."""
        p = f.numerator
        return _reduced(self.a * p, self.b * p, self.d * f.denominator)

    def inverse(self) -> "GaussianRational":
        a, b, d = self.a, self.b, self.d
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return _reduced(a * d, -b * d, n)

    def __truediv__(self, other):
        other = _coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        out = ONE
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "GaussianRational":
        return _reduced(self.a, -self.b, self.d)

    def __repr__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return "%si" % im
        sign = "+" if im > 0 else "-"
        return "%s%s%si" % (re, sign, abs(im))

    def as_strings(self):
        """JSON-safe exact form, e.g. {"re": "-1/8", "im": "1/2"}."""
        return {"re": str(self.re), "im": str(self.im)}


_new = object.__new__


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d for d > 0, brought to normal form."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    out = _new(GaussianRational)
    out.a = a
    out.b = b
    out.d = d
    return out


def _coerce(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    raise TypeError("cannot coerce %r into Q(i)" % (x,))


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)

_I_POWERS = (ONE, I, GaussianRational(-1), GaussianRational(0, -1))


def i_power(k: int) -> GaussianRational:
    """i**k for any integer k."""
    return _I_POWERS[k % 4]


class QuarterInt:
    """An element of (1/4)Z, stored as the integer number of quarter units.

    Mode indices and weights all live here; storing quarters keeps the
    parity classification (integer / half-odd / 1/4-class / 3/4-class)
    branch-free on q mod 4.
    """

    __slots__ = ("q",)

    def __init__(self, q: int):
        self.q = q

    @classmethod
    def of(cls, value) -> "QuarterInt":
        f = Fraction(value)
        if 4 % f.denominator:
            raise ValueError("%s is not a quarter integer" % (value,))
        return cls(int(f * 4))

    def __eq__(self, other):
        return isinstance(other, QuarterInt) and self.q == other.q

    def __hash__(self):
        return hash(("q4", self.q))

    def __lt__(self, other):
        return self.q < other.q

    def __le__(self, other):
        return self.q <= other.q

    def __add__(self, other):
        return QuarterInt(self.q + other.q)

    def __sub__(self, other):
        return QuarterInt(self.q - other.q)

    def __neg__(self):
        return QuarterInt(-self.q)

    def is_integer(self) -> bool:
        return self.q % 4 == 0

    def is_half_odd(self) -> bool:
        return self.q % 4 == 2

    def is_quarter_class(self) -> bool:
        """True when the value lies in 1/4 + Z."""
        return self.q % 4 == 1

    def is_three_quarter_class(self) -> bool:
        """True when the value lies in 3/4 + Z."""
        return self.q % 4 == 3

    def as_fraction(self) -> Fraction:
        return Fraction(self.q, 4)

    def __repr__(self):
        return str(Fraction(self.q, 4))


# ---------------------------------------------------------------------------
# Sparse exact linear algebra.
#
# Vectors are dicts {coordinate_key: GaussianRational}; any hashable,
# sortable key works (integers, monomial tuples).  All elimination is
# plain Q(i) arithmetic in EchelonBasis, so every rank decision is exact.
# ---------------------------------------------------------------------------


class SparseVector:
    """Finite Q(i)-combination of hashable keys, held in the dict terms;
    zero coefficients are never stored.  Vectors compare equal only when
    they are of the same type and hold the same terms."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping] = None):
        self.terms = {}
        if terms:
            for key, coeff in terms.items():
                if not coeff.is_zero():
                    self.terms[key] = coeff

    def add_term(self, key, coeff: GaussianRational) -> None:
        cur = self.terms.get(key)
        new = coeff if cur is None else cur + coeff
        if new.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    def __add__(self, other):
        out = type(self)(self.terms)
        for key, coeff in other.terms.items():
            out.add_term(key, coeff)
        return out

    def __sub__(self, other):
        out = type(self)(self.terms)
        for key, coeff in other.terms.items():
            out.add_term(key, -coeff)
        return out

    def scale(self, s):
        return type(self)({key: c * s for key, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms


class ExactMatrix:
    """Sparse matrix over Q(i); zero entries are never stored."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Optional[Mapping] = None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for pos, val in entries.items():
                self[pos] = val

    def __setitem__(self, pos, val):
        val = _coerce(val)
        if val.is_zero():
            self.entries.pop(pos, None)
        else:
            self.entries[pos] = val

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def is_zero(self) -> bool:
        return not self.entries

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = ExactMatrix(self.rows, other.cols)
        by_row = {}
        for (r, c), val in other.entries.items():
            by_row.setdefault(r, []).append((c, val))
        acc = {}
        for (r, k), val in self.entries.items():
            for c, w in by_row.get(k, ()):
                key = (r, c)
                acc[key] = acc.get(key, ZERO) + val * w
        for key, val in acc.items():
            out[key] = val
        return out

    def scale(self, s) -> "ExactMatrix":
        out = ExactMatrix(self.rows, self.cols)
        for pos, val in self.entries.items():
            out[pos] = val * s
        return out

    def rank(self) -> int:
        """The number of columns an EchelonBasis keeps."""
        columns = [SparseVector() for _ in range(self.cols)]
        for (r, c), val in self.entries.items():
            columns[c].terms[r] = val
        return len(EchelonBasis().extend(columns))


class EchelonBasis:
    """Incremental echelon span over arbitrary sortable coordinate keys.

    Used for per-bucket rank growth: insert() reduces against the stored
    rows and either absorbs the vector (returns False) or keeps its
    reduced form as a new pivot row (returns True).
    """

    def __init__(self):
        self._rows = {}  # lead key -> row dict with lead coefficient 1

    def __len__(self):
        return len(self._rows)

    def reduce(self, vec):
        vec = dict(vec)
        while vec:
            lead = min(vec)
            row = self._rows.get(lead)
            if row is None:
                return vec, lead
            coeff = vec[lead]
            for k, val in row.items():
                new = vec.get(k, ZERO) - coeff * val
                if new.is_zero():
                    vec.pop(k, None)
                else:
                    vec[k] = new
        return vec, None

    def insert(self, vec) -> bool:
        vec, lead = self.reduce(vec)
        if lead is None:
            return False
        inv = vec[lead].inverse()
        self._rows[lead] = {k: v * inv for k, v in vec.items()}
        return True

    def extend(self, vectors) -> list:
        """Insert the terms of each vector in turn; returns the vectors that
        enlarged the span, in order."""
        return [v for v in vectors if self.insert(v.terms)]

    def contains(self, vec) -> bool:
        reduced, lead = self.reduce(vec)
        return lead is None
