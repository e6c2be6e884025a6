"""Exact arithmetic over Q(i), quarter-integer grading, and exact sparse linear algebra.

Everything downstream (cocycle phases, operator coefficients, rank decisions)
runs on these types; no floating point exists anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Optional


class GaussianRational:
    """An element (a + b*i)/d of Q(i), stored as one reduced integer triple.

    Normal form: d > 0 and gcd(a, b, d) = 1, zero being (0, 0, 1), so equal
    values have equal fields.  Every operation builds its result from ints
    and reduces it with a single gcd; re and im are read as Fractions.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if not isinstance(re, (int, Fraction)) or not isinstance(im, (int, Fraction)):
            raise TypeError("Q(i) parts must be ints or Fractions, not %r and %r" % (re, im))
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


# ---------------------------------------------------------------------------
# Sparse exact linear algebra.
#
# Vectors are dicts {coordinate_key: GaussianRational}; any hashable key
# works (integers, monomial tuples).  EchelonBasis clears each vector's
# denominators once and eliminates over the Gaussian integers, with no
# fraction formed and only exact integer gcds dividing out common content,
# so every rank decision is exact.
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


class LazyTable(dict):
    """A dict that computes make(key) on the first lookup of a missing key
    and keeps it."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


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

    def rank(self) -> int:
        """The number of columns an EchelonBasis keeps."""
        columns = [SparseVector() for _ in range(self.cols)]
        for (r, c), val in self.entries.items():
            columns[c].terms[r] = val
        return len(EchelonBasis().extend(columns))


class EchelonBasis:
    """Incremental echelon span over Q(i), computed fraction-free over Z[i].

    insert() takes a dict {coordinate key: GaussianRational}, clears its
    denominators once and reduces the resulting Gaussian-integer vector
    against the stored rows: it either absorbs the vector (returns False)
    or keeps its reduced form as a new pivot row (returns True).  Keys are
    numbered in the order the basis first meets them, and the pivot of a
    vector is its lowest-numbered coordinate; the span, and so every
    decision, does not depend on that order.

    A row is primitive (rational content 1) with a positive rational-integer
    lead n, reached by multiplying by the conjugate of the lead; its real
    and imaginary parts sit in separate dicts, so a zero part costs
    nothing.  Eliminating a vector's lead v against a row is
    vec <- n*vec - v*row, n and v first divided by gcd(n, v); a step that
    scales vec is followed by dividing out vec's content, which keeps the
    integers from compounding along a reduction.  Fraction-free in the sense
    of Bareiss (Math. Comp. 1968), with primitive rows in place of his
    exact division by the previous pivot.
    """

    def __init__(self):
        self._index = {}  # coordinate key -> column number
        self._rows = {}  # lead column -> (n, re, im), lead column left out

    def __len__(self):
        return len(self._rows)

    def _integral(self, vec):
        """vec over its common denominator, as (re, im) dicts by column."""
        index = self._index
        den = lcm(*[c.d for c in vec.values()])
        re, im = {}, {}
        for key, c in vec.items():
            col = index.get(key)
            if col is None:
                col = index[key] = len(index)
            w = den // c.d
            if c.a:
                re[col] = c.a * w
            if c.b:
                im[col] = c.b * w
        return re, im

    def _reduce(self, re, im):
        """Reduce (re, im) in place; the lead column left when no row has
        it, None when the vector reduces to zero."""
        rows = self._rows
        while re or im:
            lead = min(re) if re else min(im)
            if im:
                low = min(im)
                if low < lead:
                    lead = low
            row = rows.get(lead)
            if row is None:
                return lead
            n, rre, rim = row
            va, vb = re.pop(lead, 0), im.pop(lead, 0)
            g = gcd(n, va, vb)
            if g != 1:
                n, va, vb = n // g, va // g, vb // g
            if n != 1:
                for k in re:
                    re[k] *= n
                for k in im:
                    im[k] *= n
            # vec -= (va + vb*i) * (rre + rim*i), part by part
            for src, dst, x in ((rre, re, va), (rim, im, va), (rre, im, vb), (rim, re, -vb)):
                if x:
                    get = dst.get
                    for k, r in src.items():
                        y = get(k, 0) - x * r
                        if y:
                            dst[k] = y
                        else:
                            del dst[k]
            if n != 1:
                g = gcd(*re.values(), *im.values())
                if g > 1:
                    for k in re:
                        re[k] //= g
                    for k in im:
                        im[k] //= g
        return None

    def insert(self, vec) -> bool:
        re, im = self._integral(vec)
        lead = self._reduce(re, im)
        if lead is None:
            return False
        a, b = re.pop(lead, 0), im.pop(lead, 0)
        if b or a < 0:
            # times the conjugate of the lead, which becomes a*a + b*b
            cols = re.keys() | im.keys()
            re, im = (
                {k: x for k in cols if (x := a * re.get(k, 0) + b * im.get(k, 0))},
                {k: x for k in cols if (x := a * im.get(k, 0) - b * re.get(k, 0))},
            )
            a = a * a + b * b
        g = gcd(a, *re.values(), *im.values())
        if g > 1:
            a //= g
            re = {k: x // g for k, x in re.items()}
            im = {k: x // g for k, x in im.items()}
        self._rows[lead] = (a, re, im)
        return True

    def extend(self, vectors) -> list:
        """Insert the terms of each vector in turn; returns the vectors that
        enlarged the span, in order."""
        return [v for v in vectors if self.insert(v.terms)]

    def contains(self, vec) -> bool:
        return self._reduce(*self._integral(vec)) is None
