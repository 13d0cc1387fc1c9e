"""Exact arithmetic over Q(c) with c = r**(1/3) for a positive rational r.

The non-asymptotic error bounds are rational multiples of powers of
(1 + z**(1/3)), so comparing them against exact rational probabilities
needs numbers of the form x + y*c + w*c**2.  A sign is decided in one
step, by the sign of the element's field norm evaluated on integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def icbrt(n: int) -> int:
    """Floor integer cube root of a nonnegative integer."""
    if n < 0:
        raise ValueError("icbrt of negative")
    if n == 0:
        return 0
    x = 1 << -(-n.bit_length() // 3)  # above the cube root
    # by AM-GM no step goes below the floor root, and steps fall while x**3 > n,
    # so the first step that does not fall leaves x at the floor root
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def _rational_cbrt(r: Fraction) -> Fraction | None:
    """Exact cube root of r if it is a perfect rational cube, else None."""
    a, b = r.numerator, r.denominator
    ra, rb = icbrt(a), icbrt(b)
    if ra**3 == a and rb**3 == b:
        return Fraction(ra, rb)
    return None


def cbrt_bounds(r: Fraction, digits: int) -> tuple[Fraction, Fraction]:
    """Lower/upper rational bounds on r**(1/3), tight to 10**-digits."""
    scale = 10**digits
    m = (r.numerator * scale**3) // r.denominator
    lo = icbrt(m)
    return Fraction(lo, scale), Fraction(lo + 1, scale)


@dataclass(frozen=True)
class CubicExt:
    """x + y*c + w*c**2 with c = base**(1/3), all coordinates rational."""

    x: Fraction
    y: Fraction
    w: Fraction
    base: Fraction  # c**3

    @staticmethod
    def of(value: Fraction | int, base: Fraction) -> "CubicExt":
        return CubicExt(Fraction(value), Fraction(0), Fraction(0), base)

    @staticmethod
    def root(base: Fraction) -> "CubicExt":
        """The generator c itself."""
        return CubicExt(Fraction(0), Fraction(1), Fraction(0), base)

    def _check(self, other: "CubicExt") -> None:
        if self.base != other.base:
            raise ValueError("mixed cube-root bases")

    def __add__(self, other: "CubicExt | Fraction | int") -> "CubicExt":
        if not isinstance(other, CubicExt):
            other = CubicExt.of(Fraction(other), self.base)
        self._check(other)
        return CubicExt(self.x + other.x, self.y + other.y, self.w + other.w, self.base)

    def __sub__(self, other: "CubicExt | Fraction | int") -> "CubicExt":
        if not isinstance(other, CubicExt):
            other = CubicExt.of(Fraction(other), self.base)
        self._check(other)
        return CubicExt(self.x - other.x, self.y - other.y, self.w - other.w, self.base)

    def __mul__(self, other: "CubicExt | Fraction | int") -> "CubicExt":
        if not isinstance(other, CubicExt):
            f = Fraction(other)
            return CubicExt(self.x * f, self.y * f, self.w * f, self.base)
        self._check(other)
        r = self.base
        a0, a1, a2 = self.x, self.y, self.w
        b0, b1, b2 = other.x, other.y, other.w
        # (a0 + a1 c + a2 c^2)(b0 + b1 c + b2 c^2) with c^3 = r, c^4 = r c
        x = a0 * b0 + r * (a1 * b2 + a2 * b1)
        y = a0 * b1 + a1 * b0 + r * a2 * b2
        w = a0 * b2 + a1 * b1 + a2 * b0
        return CubicExt(x, y, w, self.base)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CubicExt":
        if n < 0:
            raise ValueError("negative powers unsupported")
        out = CubicExt.of(Fraction(1), self.base)
        sq = self
        while n:
            if n & 1:
                out = out * sq
            sq = sq * sq
            n >>= 1
        return out

    def sign(self) -> int:
        """Exact sign: -1, 0, or +1.

        For irrational c it is the sign of the norm x**3 + r y**3 + r**2 w**3
        - 3 r x y w (r = c**3 = a/b), the element times |s|**2 for s its image
        under a complex embedding; |s|**2 is half the sum of the squares of
        x - yc, yc - wc**2 and wc**2 - x, zero only for the zero element.  The
        norm is evaluated on integers, times b**2 d**3, d the common denominator.
        """
        if self.x == 0 and self.y == 0 and self.w == 0:
            return 0
        exact_c = _rational_cbrt(self.base)
        if exact_c is not None:  # the norm can vanish on a nonzero element here
            v = self.x + self.y * exact_c + self.w * exact_c**2
            return (v > 0) - (v < 0)
        a, b = self.base.numerator, self.base.denominator
        d = math.lcm(self.x.denominator, self.y.denominator, self.w.denominator)
        x, y, w = (v.numerator * (d // v.denominator) for v in (self.x, self.y, self.w))
        norm = b * b * x**3 + a * b * y**3 + a * a * w**3 - 3 * a * b * x * y * w
        return (norm > 0) - (norm < 0)

    def compare(self, other: "CubicExt | Fraction | int") -> int:
        if not isinstance(other, CubicExt):
            other = CubicExt.of(Fraction(other), self.base)
        return (self - other).sign()

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __float__(self) -> float:
        # c >= 2**(-(k + 1)/3) when the base's denominator has k more bits than its
        # numerator, so k // 9 more digits keep the bracket narrower than 1e-39 * c
        k = self.base.denominator.bit_length() - self.base.numerator.bit_length()
        lo, hi = cbrt_bounds(self.base, 40 + max(k, 0) // 9)
        mid = (lo + hi) / 2
        return float(self.x + self.y * mid + self.w * mid * mid)
