"""Exact arithmetic in Q and in the cyclotomic fields Q(zeta_n).

Every quantity in this package that carries mathematical meaning is either a
`fractions.Fraction` or a `Cyclotomic`.  A Cyclotomic stores the unique normal
form of an element of Q(zeta_n) modulo the n-th cyclotomic polynomial, in the
power basis {zeta_n^i : 0 <= i < phi(n)}.  Equality across conductors is
decided by lifting both operands into Q(zeta_lcm) and comparing normal forms;
floats never enter any computation (``to_complex`` is display-only).  Checks
over many values at once use ``integer_lift``, an exact integer-array form of
the same elements at one conductor over one denominator.
"""

from __future__ import annotations

import cmath
import functools
import re
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

import numpy as np

__all__ = [
    "Cyclotomic",
    "ConductorCapExceeded",
    "IntegerLift",
    "conductor_cap",
    "cyclotomic_poly",
    "euler_phi",
    "format_cyclotomic",
    "integer_lift",
    "parse_cyclotomic",
    "phi_reduction_matrix",
    "rational",
    "root_of_unity",
    "set_conductor_cap",
    "weighted_root_sum",
]

_DEFAULT_CAP = 256
_conductor_cap = _DEFAULT_CAP


class ConductorCapExceeded(ValueError):
    """Raised when an operation would need Q(zeta_n) with n beyond the cap."""


def conductor_cap() -> int:
    return _conductor_cap


def set_conductor_cap(n: int) -> None:
    """Raise or lower the largest admissible conductor (default 256)."""
    global _conductor_cap
    if n < 1:
        raise ValueError("conductor cap must be >= 1")
    _conductor_cap = n


def _check_conductor(n: int) -> None:
    if n < 1:
        raise ValueError(f"invalid conductor {n}")
    if n > _conductor_cap:
        raise ConductorCapExceeded(f"conductor {n} exceeds cap {_conductor_cap}")


@functools.lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    count = 0
    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            count += 1
    return count


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # num / den in Z[x], quotient known to be exact; den monic.
    num = list(num)
    deg_d = len(den) - 1
    out = [0] * (len(num) - deg_d)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + deg_d]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    assert all(v == 0 for v in num), "inexact polynomial division"
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree, monic, exact integers."""
    if n < 1:
        raise ValueError(f"invalid conductor {n}")
    if n == 1:
        return (-1, 1)
    poly = [0] * (n + 1)
    poly[0], poly[n] = -1, 1  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_poly(d))
    return tuple(poly)


def _reduce(n: int, vec: list[Fraction]) -> tuple[Fraction, ...]:
    # Remainder of vec (degree < len) modulo Phi_n; result has degree < phi(n).
    ph = euler_phi(n)
    if len(vec) <= ph:
        return tuple(vec) + (Fraction(0),) * (ph - len(vec))
    phi_n = cyclotomic_poly(n)
    for d in range(len(vec) - 1, ph - 1, -1):
        c = vec[d]
        if c:
            base = d - ph
            for t, pt in enumerate(phi_n):
                vec[base + t] -= c * pt
    return tuple(vec[:ph])


def _fold_mod_n(n: int, pairs) -> list[Fraction]:
    # Collect (exponent, coeff) pairs into a length-n vector using zeta^n = 1.
    vec = [Fraction(0)] * n
    for e, c in pairs:
        vec[e % n] += c
    return vec


class Cyclotomic:
    """An element of Q(zeta_n) in normal form modulo Phi_n.

    Immutable; all arithmetic is exact.  Mixed-conductor operations lift both
    operands to the lcm conductor, so equality is conductor-independent.
    """

    __slots__ = ("n", "c")

    def __init__(self, n: int, coeffs):
        _check_conductor(n)
        vec = [Fraction(x) for x in coeffs]
        if len(vec) > n:
            raise ValueError("coefficient vector longer than conductor")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", _reduce(n, vec))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Cyclotomic is immutable")

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _raw(n: int, coeffs: tuple[Fraction, ...]) -> "Cyclotomic":
        obj = object.__new__(Cyclotomic)
        object.__setattr__(obj, "n", n)
        object.__setattr__(obj, "c", coeffs)
        return obj

    def lift(self, m: int) -> "Cyclotomic":
        """Image of self in Q(zeta_m); requires conductor | m."""
        if m == self.n:
            return self
        if m % self.n:
            raise ValueError(f"cannot lift conductor {self.n} into {m}")
        _check_conductor(m)
        step = m // self.n
        vec = _fold_mod_n(m, ((i * step, ci) for i, ci in enumerate(self.c) if ci))
        return Cyclotomic._raw(m, _reduce(m, vec))

    def _pair(self, other) -> tuple["Cyclotomic", "Cyclotomic"]:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented, NotImplemented
        if self.n == other.n:
            return self, other
        m = lcm(self.n, other.n)
        return self.lift(m), other.lift(m)

    # -- ring / field operations ----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_rational():  # rational summands only touch coefficient 0
            q = other.c[0]
            return self if not q else Cyclotomic._raw(
                self.n, (self.c[0] + q,) + self.c[1:])
        if self.is_rational():
            return other + self
        a, b = self._pair(other)
        return Cyclotomic._raw(a.n, tuple(x + y for x, y in zip(a.c, b.c)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._raw(self.n, tuple(-x for x in self.c))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_rational():  # rational factors scale coefficientwise
            q = other.c[0]
            return Cyclotomic._raw(self.n, tuple(x * q for x in self.c))
        if self.is_rational():
            return other * self
        a, b = self._pair(other)
        n = a.n
        vec = [Fraction(0)] * n
        for i, x in enumerate(a.c):
            if not x:
                continue
            for j, y in enumerate(b.c):
                if y:
                    k = i + j
                    if k >= n:
                        k -= n
                    vec[k] += x * y
        return Cyclotomic._raw(n, _reduce(n, vec))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero cyclotomic")
        q = self.as_rational()
        if q is not None:
            return Cyclotomic._raw(self.n, (Fraction(1) / q,) + self.c[1:])
        # extended Euclid in Q[x]: u*self + v*Phi_n = 1
        u = _poly_xgcd_inverse(list(self.c), list(cyclotomic_poly(self.n)))
        return Cyclotomic._raw(self.n, _reduce(self.n, u))

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        base = self.inverse() if k < 0 else self
        k = abs(k)
        out = Cyclotomic._raw(1, (Fraction(1),))
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- Galois action ----------------------------------------------------------

    def galois(self, a: int) -> "Cyclotomic":
        """Image under zeta_n -> zeta_n^a; requires gcd(a, n) = 1."""
        a %= self.n
        if gcd(a, self.n) != 1:
            raise ValueError(f"galois exponent {a} not coprime to {self.n}")
        vec = _fold_mod_n(self.n, ((i * a, ci) for i, ci in enumerate(self.c) if ci))
        return Cyclotomic._raw(self.n, _reduce(self.n, vec))

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation under the fixed embedding: zeta -> zeta^-1."""
        return self.galois(self.n - 1) if self.n > 1 else self

    # -- predicates / extraction -------------------------------------------------

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.c)

    def is_rational(self) -> bool:
        return all(x == 0 for x in self.c[1:])

    def as_rational(self) -> Fraction | None:
        """The element as a Fraction when it is rational, else None."""
        return self.c[0] if self.is_rational() else None

    def as_integer(self) -> int | None:
        q = self.as_rational()
        return q.numerator if q is not None and q.denominator == 1 else None

    # -- comparison / display ------------------------------------------------------

    def __eq__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return a.c == b.c

    def __bool__(self):
        return not self.is_zero()

    def to_complex(self) -> complex:
        """Numeric evaluation at zeta_n = exp(2*pi*i/n).  Display only."""
        z = cmath.exp(2j * cmath.pi / self.n)
        out = 0j
        for i, ci in enumerate(self.c):
            if ci:
                out += float(ci) * z**i
        return out

    def __str__(self):
        return format_cyclotomic(self)

    def __repr__(self):
        return f"Cyclotomic({format_cyclotomic(self)!r})"

    __hash__ = None  # mutable-free but unhashable: equality spans conductors


def _coerce(x) -> Cyclotomic:
    if isinstance(x, Cyclotomic):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclotomic._raw(1, (Fraction(x),))
    return NotImplemented


def _poly_xgcd_inverse(a: list[Fraction], mod: list) -> list[Fraction]:
    # Return u with u*a = 1 modulo the monic polynomial `mod` in Q[x].
    mod = [Fraction(v) for v in mod]

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    r0, r1 = mod, trim(list(a))
    s0, s1 = [], [Fraction(1)]
    while True:
        # r0 = q*r1 + r2 with deg r2 < deg r1
        r2 = list(r0)
        dq = len(r1) - 1
        lead = r1[-1]
        q = [Fraction(0)] * max(len(r2) - dq, 1)
        while len(r2) - 1 >= dq and trim(r2):
            c = r2[-1] / lead
            off = len(r2) - 1 - dq
            q[off] = c
            for i, ri in enumerate(r1):
                r2[off + i] -= c * ri
            trim(r2)
        if not trim(r2):
            break
        # s2 = s0 - q*s1
        s2 = list(s0) + [Fraction(0)] * max(0, len(q) + len(s1) - 1 - len(s0))
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    s2[i + j] -= qi * sj
        r0, r1, s0, s1 = r1, r2, s1, trim(s2)
    if len(r1) != 1:
        raise ZeroDivisionError("element not invertible modulo Phi_n")
    g = r1[0]
    return [si / g for si in s1]


# -- public constructors ----------------------------------------------------------


def rational(q) -> Cyclotomic:
    """Embed a rational number as a conductor-1 cyclotomic."""
    return Cyclotomic._raw(1, (Fraction(q),))


@functools.lru_cache(maxsize=None)
def _root_cached(n: int, k: int) -> Cyclotomic:
    vec = [Fraction(0)] * n
    vec[k] = Fraction(1)
    return Cyclotomic._raw(n, _reduce(n, vec))


def root_of_unity(n: int, k: int = 1) -> Cyclotomic:
    """zeta_n^k in normal form.  Multiplicative order is n/gcd(n, k)."""
    _check_conductor(n)
    return _root_cached(n, k % n)


def weighted_root_sum(n: int, terms) -> Cyclotomic:
    """Exact sum of zeta_n^e * x over (e, x) pairs, reduced once at the end.

    Multiplying by a root of unity is an exponent shift, so the whole sum
    accumulates in one unreduced coefficient vector; this is the workhorse of
    the eigenspace projectors, where termwise products would be quadratic.
    """
    _check_conductor(n)
    big = n
    pairs = []
    for e, x in terms:
        x = _coerce(x)
        big = lcm(big, x.n)
        pairs.append((e, x))
    _check_conductor(big)
    vec = [Fraction(0)] * big
    step_root = big // n
    for e, x in pairs:
        base = (e % n) * step_root
        step_x = big // x.n
        for i, c in enumerate(x.c):
            if c:
                vec[(base + i * step_x) % big] += c
    return Cyclotomic._raw(big, _reduce(big, vec))


ZERO = rational(0)
ONE = rational(1)


# -- integer coefficient arrays ----------------------------------------------------
#
# Batch work on many values runs on integers, not on Cyclotomic objects: D*x
# for one common denominator D, written in Z[x]/(x^L - 1) at one conductor L.
# There a product is a cyclic convolution and conjugation is t -> -t mod L;
# one reduction mod Phi_L (phi_reduction_matrix) gives the normal form.


class IntegerLift(NamedTuple):
    """Values x_k = (1/D) * sum_t coeffs[k, t] * zeta_L^t."""

    coeffs: np.ndarray  # shape (len(values), L): int64, or Python ints past it
    denominator: int  # D, the lcm of the coefficient denominators
    conductor: int  # L, the lcm of the conductors of the irrational values
    max_abs: int  # largest |coefficient| in coeffs
    max_terms: int  # most nonzero coefficients in one row of coeffs


def integer_lift(values) -> IntegerLift:
    """Lift Cyclotomic values onto one conductor over one denominator.

    Only irrational values set L: a rational value goes to index 0 whatever
    conductor it is stored at.  L passes the conductor cap before anything
    is allocated.  A value stored at conductor n | L keeps its power-basis
    coefficients, moved to exponents i*(L/n); nothing is reduced.
    """
    values = list(values)
    L = lcm(*(v.n for v in values if not v.is_rational()))
    _check_conductor(L)
    D = lcm(*(c.denominator for v in values for c in v.c if c))
    index_k, index_t, entries = [], [], []
    max_terms = 0
    for k, v in enumerate(values):
        step = L // v.n if not v.is_rational() else 0
        terms = [(i * step, c) for i, c in enumerate(v.c) if c]
        max_terms = max(max_terms, len(terms))
        for t, c in terms:
            index_k.append(k)
            index_t.append(t)
            entries.append(c.numerator * (D // c.denominator))
    max_abs = max(map(abs, entries), default=0)
    coeffs = np.zeros((len(values), L),
                      dtype=np.int64 if max_abs < 2**63 else object)
    coeffs[index_k, index_t] = entries
    return IntegerLift(coeffs, D, L, max_abs, max_terms)


@functools.lru_cache(maxsize=None)
def phi_reduction_matrix(n: int) -> np.ndarray:
    """The n x phi(n) integer matrix whose row t holds x^t mod Phi_n.

    For a in Z[x]/(x^n - 1), ``a @ M`` is its power-basis vector modulo
    Phi_n.  int64 when every entry fits, else Python ints; read-only.
    """
    ph = euler_phi(n)
    poly = cyclotomic_poly(n)
    rows = [[int(i == t) for i in range(ph)] for t in range(ph)]
    for _ in range(ph, n):
        # x * x^(t-1), then x^ph = -sum_{i<ph} Phi_n[i] x^i (Phi_n is monic)
        top = rows[-1][-1]
        shifted = [0] + rows[-1][:-1]
        rows.append([v - top * p for v, p in zip(shifted, poly)])
    big = max(abs(v) for row in rows for v in row)
    mat = np.array(rows, dtype=np.int64 if big < 2**63 else object)
    mat.setflags(write=False)
    return mat


# -- text syntax ---------------------------------------------------------------
#
# Grammar (whitespace-insensitive):   term (("+"|"-") term)*
# term := rational | [rational "*"] "z" N ["^" E]
# Examples: "3/2",  "z8^3 - 1/2*z8 + 1",  "-z3"

_TERM_RE = re.compile(
    r"^(?P<coef>\d+(?:/\d+)?)?(?P<star>\*)?(?:z(?P<n>\d+)(?:\^(?P<e>\d+))?)?$"
)


def parse_cyclotomic(text: str) -> Cyclotomic:
    """Parse the package's cyclotomic text syntax into normal form."""
    s = "".join(text.split())
    if not s:
        raise ValueError("empty cyclotomic literal")
    # split into signed terms
    terms: list[str] = []
    buf = ""
    for i, ch in enumerate(s):
        if ch in "+-" and i > 0:
            terms.append(buf)
            buf = ch
        else:
            buf += ch
    terms.append(buf)
    total = rational(0)
    for raw in terms:
        t = raw.lstrip("+")
        neg = t.startswith("-")
        if neg:
            t = t[1:]
        m = _TERM_RE.match(t)
        bad = (
            m is None
            or (m.group("coef") is None and m.group("n") is None)
            or (m.group("star") and (m.group("coef") is None or m.group("n") is None))
        )
        if bad:
            raise ValueError(f"bad cyclotomic term {raw!r} in {text!r}")
        coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        if neg:
            coef = -coef
        if m.group("n") is None:
            total = total + rational(coef)
        else:
            n = int(m.group("n"))
            e = int(m.group("e") or 1)
            total = total + rational(coef) * root_of_unity(n, e)
    return total


def format_cyclotomic(x: Cyclotomic) -> str:
    """Render in the text syntax; inverse of parse_cyclotomic."""
    q = x.as_rational()
    if q is not None:
        return str(q)
    parts: list[str] = []
    for i in range(len(x.c) - 1, -1, -1):
        ci = x.c[i]
        if not ci:
            continue
        if i == 0:
            body = str(abs(ci))
        else:
            z = f"z{x.n}" if i == 1 else f"z{x.n}^{i}"
            body = z if abs(ci) == 1 else f"{abs(ci)}*{z}"
        if not parts:
            parts.append(body if ci > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if ci > 0 else f" - {body}")
    return "".join(parts)
