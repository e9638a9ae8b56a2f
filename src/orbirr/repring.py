"""Virtual representations as exact class functions, with lambda-operations.

A `ClassFunction` is a tuple of cyclotomic values indexed by the deterministic
conjugacy-class order of its group: the computational model of a K-theory
class of the classifying stack.  No matrices are stored anywhere; exterior
powers come from the Newton-type recursion on power-map pullbacks, and the
test suite validates them against explicit permutation-matrix models.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .chartab import character_table
from .exact import Cyclotomic, parse_cyclotomic, rational
from .groups import PermGroup, _int_field


def _as_value(x) -> Cyclotomic:
    if isinstance(x, Cyclotomic):
        return x
    return rational(Fraction(x))


class ClassFunction:
    """A cyclotomic-valued function on the conjugacy classes of a group."""

    __slots__ = ("group", "values")

    def __init__(self, group: PermGroup, values):
        vals = tuple(_as_value(v) for v in values)
        if len(vals) != len(group.conjugacy_classes()):
            raise ValueError("value list does not match the number of classes")
        self.group = group
        self.values = vals

    def _check(self, other: "ClassFunction") -> None:
        if self.group is other.group:
            return
        if (self.group.degree != other.group.degree
                or self.group.elements != other.group.elements):
            raise ValueError("class functions live on different groups")

    def __eq__(self, other):
        if not isinstance(other, ClassFunction):
            return NotImplemented
        self._check(other)
        return self.values == other.values

    __hash__ = None

    def __add__(self, other):
        self._check(other)
        return ClassFunction(self.group,
                             [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        self._check(other)
        return ClassFunction(self.group,
                             [a - b for a, b in zip(self.values, other.values)])

    def __mul__(self, other):
        if isinstance(other, ClassFunction):
            return tensor(self, other)
        return self.scale(other)

    __rmul__ = __mul__

    def __neg__(self):
        return ClassFunction(self.group, [-v for v in self.values])

    def scale(self, c) -> "ClassFunction":
        c = _as_value(c)
        return ClassFunction(self.group, [c * v for v in self.values])

    def dim(self) -> Fraction:
        """Virtual dimension: the value at the identity class."""
        q = self.values[0].as_rational()
        if q is None:
            raise ValueError("dimension is not rational; not a virtual character")
        return q

    def conjugate(self) -> "ClassFunction":
        return ClassFunction(self.group, [v.conjugate() for v in self.values])

    def __repr__(self):
        return f"ClassFunction({self.group.name}, {[str(v) for v in self.values]})"


def tensor(a: ClassFunction, b: ClassFunction) -> ClassFunction:
    """Tensor product: pointwise product of character values."""
    a._check(b)
    return ClassFunction(a.group, [x * y for x, y in zip(a.values, b.values)])


def inner_product(a: ClassFunction, b: ClassFunction) -> Cyclotomic:
    """(1/|G|) sum_c |c| a(c) conj(b(c)), exact."""
    a._check(b)
    total = rational(0)
    for cls, x, y in zip(a.group.conjugacy_classes(), a.values, b.values):
        total = total + cls.size * x * y.conjugate()
    return total * rational(Fraction(1, a.group.order))


def invariants_dim(v: ClassFunction) -> Fraction:
    """dim of the invariant subspace: the pairing with the trivial character."""
    val = inner_product(v, trivial_character(v.group)).as_rational()
    if val is None:
        raise ValueError("invariant dimension came out irrational")
    return val


# -- standard characters -------------------------------------------------------


def trivial_character(G: PermGroup) -> ClassFunction:
    return ClassFunction(G, [1] * len(G.conjugacy_classes()))


def regular_character(G: PermGroup) -> ClassFunction:
    vals = [G.order] + [0] * (len(G.conjugacy_classes()) - 1)
    return ClassFunction(G, vals)


def permutation_character(G: PermGroup) -> ClassFunction:
    """Character of the natural action: fixed-point counts."""
    vals = []
    for cls in G.conjugacy_classes():
        rep = cls.representative
        vals.append(sum(1 for i, v in enumerate(rep) if i == v))
    return ClassFunction(G, vals)


def irreducible(G: PermGroup, index: int) -> ClassFunction:
    return ClassFunction(G, character_table(G).rows[index])


def irreducibles(G: PermGroup) -> list[ClassFunction]:
    return [ClassFunction(G, row) for row in character_table(G).rows]


# -- virtual representations ------------------------------------------------------


@dataclass(frozen=True)
class VirtualRep:
    """A class function together with its integer irreducible coordinates."""

    function: ClassFunction
    coords: tuple[int, ...]

    @property
    def dim(self) -> int:
        return int(self.function.dim())

    def is_actual(self) -> bool:
        return all(c >= 0 for c in self.coords)


def virtual_rep(v: ClassFunction) -> VirtualRep:
    """Decompose into irreducible coordinates; rejects non-virtual input."""
    table = character_table(v.group)
    coords = []
    for row in table.rows:
        c = inner_product(v, ClassFunction(v.group, row)).as_rational()
        if c is None or c.denominator != 1:
            raise ValueError(f"not a virtual character: coordinate {c} not integral")
        coords.append(int(c))
    rebuilt = sum((coords[i] * irreducible(v.group, i) for i in range(len(coords))),
                  start=ClassFunction(v.group, [0] * len(v.values)))
    if rebuilt != v:
        raise ValueError("irreducible coordinates do not reassemble the input")
    vr = VirtualRep(v, tuple(coords))
    if sum(c * d for c, d in zip(vr.coords, table.degrees)) != v.dim():
        raise ValueError("virtual dimension disagrees with coordinates")
    return vr


def is_actual_character(v: ClassFunction) -> bool:
    try:
        return virtual_rep(v).is_actual()
    except ValueError:
        return False


def assert_actual(v: ClassFunction, what: str = "operation") -> None:
    if not is_actual_character(v):
        raise ValueError(f"{what} requires an actual (non-virtual) character")


# -- lambda operations ---------------------------------------------------------


def adams(v: ClassFunction, m: int) -> ClassFunction:
    """Power-map pullback g -> v(g^m); the Newton ingredient for lambda^k."""
    G = v.group
    vals = [v.values[G.power_class_map(i, m)]
            for i in range(len(v.values))]
    return ClassFunction(G, vals)


def exterior_power(v: ClassFunction, k: int) -> ClassFunction:
    """lambda^k by the recursion k lam^k = sum (-1)^(m-1) psi^m lam^(k-m)."""
    if k < 0:
        raise ValueError("exterior power needs k >= 0")
    G = v.group
    lam = [trivial_character(G)]
    psi = [None] + [adams(v, m) for m in range(1, k + 1)]
    for kk in range(1, k + 1):
        acc = ClassFunction(G, [0] * len(v.values))
        sign = 1
        for m in range(1, kk + 1):
            term = tensor(psi[m], lam[kk - m])
            acc = acc + term.scale(sign)
            sign = -sign
        lam.append(acc.scale(Fraction(1, kk)))
    return lam[k]


def lambda_minus_one(v: ClassFunction) -> ClassFunction:
    """sum_k (-1)^k lambda^k(v); value at g equals det(1 - M_g) for any model.

    Only defined for actual representations (the sum stops at k = dim v).
    """
    assert_actual(v, "lambda_minus_one")
    n = int(v.dim())
    G = v.group
    out = ClassFunction(G, [0] * len(v.values))
    sign = 1
    for k in range(n + 1):
        out = out + exterior_power(v, k).scale(sign)
        sign = -sign
    return out


# -- JSON descriptors --------------------------------------------------------------


def rep_from_json(G: PermGroup, spec) -> ClassFunction:
    """Representation descriptors:

    {"kind":"irreducible","index":2} | {"kind":"regular"} |
    {"kind":"permutation"} | {"kind":"character","values_by_class":["2","-1","0"]}
    """
    if isinstance(spec, str):
        spec = json.loads(spec)
    kind = spec.get("kind")
    if kind == "irreducible":
        idx = _int_field(spec, "irreducible representation", "index")
        rows = character_table(G).rows
        if not 0 <= idx < len(rows):
            raise ValueError(f"irreducible index {idx} out of range")
        return ClassFunction(G, rows[idx])
    if kind == "regular":
        return regular_character(G)
    if kind == "permutation":
        return permutation_character(G)
    if kind == "character":
        strings = spec.get("values_by_class")
        if not (isinstance(strings, list)
                and all(isinstance(s, str) for s in strings)):
            raise ValueError("character representation needs a list of strings "
                             f"'values_by_class', got {json.dumps(strings)}")
        return ClassFunction(G, [parse_cyclotomic(s) for s in strings])
    raise ValueError(f"unknown representation kind {spec!r}")
