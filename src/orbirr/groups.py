"""Finite groups given by permutation generators.

Groups are enumerated exhaustively at construction (breadth-first closure,
identity first) and are immutable afterwards.  Conjugacy data is brute force
by design: conjugation orbits for the classes, exhaustive commutation scans
for centralizers.  The deterministic class order is (element order, class
size, lexicographically smallest member), which makes character-table columns
and caches stable across generating sets.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from math import lcm

import numpy as np

from . import _kernels as kern

Perm = tuple[int, ...]

DEFAULT_CAP = 100_000


class GroupCapExceeded(RuntimeError):
    """Enumeration would exceed the configured group-order cap."""


def pidentity(degree: int) -> Perm:
    return tuple(range(degree))


def pmul(a: Perm, b: Perm) -> Perm:
    """Composition a*b: apply b first, then a."""
    return tuple(a[b[i]] for i in range(len(a)))


def pinv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def porder(a: Perm) -> int:
    e = pidentity(len(a))
    x, n = a, 1
    while x != e:
        x = pmul(x, a)
        n += 1
    return n


def ppow(a: Perm, k: int) -> Perm:
    if k < 0:
        a, k = pinv(a), -k
    out = pidentity(len(a))
    while k:
        if k & 1:
            out = pmul(out, a)
        a = pmul(a, a)
        k >>= 1
    return out


def cycle_string(a: Perm) -> str:
    """1-indexed cycle notation, 'id' for the identity."""
    seen = [False] * len(a)
    cycles = []
    for start in range(len(a)):
        if seen[start] or a[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = a[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = a[nxt]
        cycles.append("(" + " ".join(str(v + 1) for v in cyc) + ")")
    return "".join(cycles) if cycles else "id"


@dataclass(frozen=True)
class ConjClass:
    representative: Perm
    size: int
    centralizer: tuple[Perm, ...]
    rep_order: int

    def __repr__(self):
        return (f"ConjClass({cycle_string(self.representative)}, size={self.size}, "
                f"|Z|={len(self.centralizer)})")


class PermGroup:
    """A finite permutation group of {1..degree}, fully enumerated."""

    def __init__(self, degree: int, generators, name: str | None = None,
                 cap: int = DEFAULT_CAP):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        gens = []
        for g in generators:
            g = tuple(int(v) for v in g)
            if sorted(g) != list(range(degree)):
                raise ValueError(f"not a permutation of degree {degree}: {g}")
            if g != pidentity(degree) and g not in gens:
                gens.append(g)
        self.degree = degree
        self.generators: tuple[Perm, ...] = tuple(gens)
        self.name = name or f"group<deg {degree}>"
        self.elements: list[Perm] = self._enumerate(cap)
        self.order = len(self.elements)
        self._index: dict[Perm, int] = {g: i for i, g in enumerate(self.elements)}
        self._arr = np.array(self.elements, dtype=np.int64)
        self._lex = kern.lex_order(self._arr)
        self._classes: list[ConjClass] | None = None
        self._class_of: np.ndarray | None = None
        self._power_cache: dict[tuple[int, int], int] = {}
        self._char_table = None  # filled lazily by chartab.character_table

    def _enumerate(self, cap: int) -> list[Perm]:
        e = pidentity(self.degree)
        seen = {e}
        out = [e]
        frontier = [e]
        while frontier:
            new = []
            for x in frontier:
                for g in self.generators:
                    y = pmul(g, x)
                    if y not in seen:
                        if len(seen) >= cap:
                            raise GroupCapExceeded(
                                f"group order exceeds cap {cap}")
                        seen.add(y)
                        out.append(y)
                        new.append(y)
            frontier = new
        return out

    # -- basic access ---------------------------------------------------------

    def __len__(self):
        return self.order

    def __contains__(self, perm) -> bool:
        return tuple(perm) in self._index

    def index(self, perm) -> int:
        return self._index[tuple(perm)]

    def __repr__(self):
        return f"PermGroup({self.name}, order={self.order})"

    def canonical_hash(self) -> str:
        """Hash of (degree, sorted element list); generator-independent."""
        payload = json.dumps([self.degree, sorted(self.elements)])
        return hashlib.sha256(payload.encode()).hexdigest()

    def exponent(self) -> int:
        return lcm(*(c.rep_order for c in self.conjugacy_classes()))

    # -- conjugacy structure -----------------------------------------------------

    def conjugacy_classes(self) -> list[ConjClass]:
        if self._classes is None:
            self._compute_classes()
        return self._classes

    def class_of_index(self) -> np.ndarray:
        """Array mapping element index -> class index."""
        if self._class_of is None:
            self._compute_classes()
        return self._class_of

    def class_of(self, perm) -> int:
        return int(self.class_of_index()[self.index(perm)])

    def _compute_classes(self) -> None:
        gen_rows = (np.array(self.generators, dtype=np.int64)
                    if self.generators else np.zeros((0, self.degree), np.int64))
        gen_inv = (np.argsort(gen_rows, axis=1) if len(gen_rows)
                   else gen_rows)
        raw = kern.conjugacy_partition(self._arr, self._lex, gen_rows, gen_inv)
        n_classes = int(raw.max()) + 1
        # lexicographically smallest member is the representative
        rep_idx = np.full(n_classes, -1, dtype=np.int64)
        for pos in self._lex:
            c = raw[pos]
            if rep_idx[c] < 0:
                rep_idx[c] = pos
        sizes = np.bincount(raw, minlength=n_classes)
        keyed = []
        for c in range(n_classes):
            rep = self.elements[int(rep_idx[c])]
            keyed.append((porder(rep), int(sizes[c]), rep, c))
        keyed.sort()
        relabel = np.empty(n_classes, dtype=np.int64)
        classes = []
        for new_c, (order_, size, rep, old_c) in enumerate(keyed):
            relabel[old_c] = new_c
            centralizer = self._centralizer_of(rep)
            if size * len(centralizer) != self.order:
                raise AssertionError("orbit-stabilizer violation (internal bug)")
            classes.append(ConjClass(rep, size, centralizer, order_))
        self._classes = classes
        self._class_of = relabel[raw]

    def _centralizer_of(self, h: Perm) -> tuple[Perm, ...]:
        h_arr = np.array(h, dtype=np.int64)
        gh = self._arr[:, h_arr]       # rows g∘h
        hg = h_arr[self._arr]          # rows h∘g
        mask = (gh == hg).all(axis=1)
        cent = sorted(self.elements[i] for i in np.nonzero(mask)[0])
        return tuple(cent)

    def centralizer_subgroup(self, class_index: int,
                             name: str | None = None) -> "PermGroup":
        cls = self.conjugacy_classes()[class_index]
        label = name or f"Z({cycle_string(cls.representative)})<{self.name}"
        return PermGroup(self.degree, cls.centralizer, name=label)

    def power_class_map(self, class_index: int, exponent: int) -> int:
        cls = self.conjugacy_classes()[class_index]
        e = exponent % cls.rep_order
        key = (class_index, e)
        if key not in self._power_cache:
            powered = ppow(cls.representative, e)
            self._power_cache[key] = int(self.class_of_index()[self.index(powered)])
        return self._power_cache[key]

    def class_fusion(self, sub: "PermGroup") -> list[int]:
        """For each conjugacy class of `sub`, the index of its class in self."""
        if sub.degree != self.degree:
            raise ValueError("subgroup must act on the same points")
        for g in sub.elements:
            if g not in self._index:
                raise ValueError("given group is not a subset of the ambient group")
        return [self.class_of(c.representative) for c in sub.conjugacy_classes()]

    def class_constant_tensor(self) -> np.ndarray:
        """a[i,j,k] = #{x in C_i : x^{-1} rep_k in C_j} (Dixon input)."""
        reps_idx = np.array(
            [self.index(c.representative) for c in self.conjugacy_classes()],
            dtype=np.int64)
        return kern.class_constants(self._arr, self._lex,
                                    self.class_of_index(), reps_idx)


# -- catalog constructors -------------------------------------------------------


def trivial_group() -> PermGroup:
    return PermGroup(1, [], name="C1")


def cyclic(n: int, *, cap: int = DEFAULT_CAP) -> PermGroup:
    if n < 1:
        raise ValueError("cyclic group needs n >= 1")
    if n == 1:
        return trivial_group()
    rot = tuple((i + 1) % n for i in range(n))
    return PermGroup(n, [rot], name=f"C{n}", cap=cap)


def dihedral(n: int, *, cap: int = DEFAULT_CAP) -> PermGroup:
    """Symmetries of the n-gon, order 2n (n >= 1; D1 = C2)."""
    if n < 1:
        raise ValueError("dihedral group needs n >= 1")
    if n == 1:
        return PermGroup(2, [(1, 0)], name="D1", cap=cap)
    rot = tuple((i + 1) % n for i in range(n))
    refl = tuple((n - i) % n for i in range(n))
    return PermGroup(n, [rot, refl], name=f"D{n}", cap=cap)


def symmetric(n: int, *, cap: int = DEFAULT_CAP) -> PermGroup:
    if n < 1:
        raise ValueError("symmetric group needs n >= 1")
    if n == 1:
        return PermGroup(1, [], name="S1", cap=cap)
    gens = [(1, 0) + tuple(range(2, n))]
    if n > 2:
        gens.append(tuple((i + 1) % n for i in range(n)))
    return PermGroup(n, gens, name=f"S{n}", cap=cap)


def alternating(n: int, *, cap: int = DEFAULT_CAP) -> PermGroup:
    if n < 3:
        raise ValueError("alternating group needs n >= 3")
    three = (1, 2, 0) + tuple(range(3, n))
    if n == 3:
        gens = [three]
    elif n % 2:
        gens = [three, tuple((i + 1) % n for i in range(n))]
    else:
        gens = [three, (0,) + tuple(1 + (i + 1) % (n - 1) for i in range(n - 1))]
    return PermGroup(n, gens, name=f"A{n}", cap=cap)


def quaternion(*, cap: int = DEFAULT_CAP) -> PermGroup:
    """Q8 in its regular degree-8 permutation model."""
    a = (1, 2, 3, 0, 5, 6, 7, 4)          # left multiplication by i
    b = (4, 7, 6, 5, 2, 1, 0, 3)          # left multiplication by j
    return PermGroup(8, [a, b], name="Q8", cap=cap)


def group_from_json(spec, cap: int = DEFAULT_CAP) -> PermGroup:
    """Build a group from the JSON description syntax.

    {"type":"permutation","degree":3,"generators":[[2,1,3],[2,3,1]],"name":"S3"}
    (one-line image notation, 1-indexed), or catalog shorthands:
    {"type":"cyclic","order":7}, {"type":"dihedral","n":4} (or "order":8),
    {"type":"symmetric","n":4}, {"type":"alternating","n":5},
    {"type":"quaternion"}, {"type":"trivial"}.
    """
    if isinstance(spec, str):
        spec = json.loads(spec)
    if not isinstance(spec, dict):
        raise ValueError(f"group JSON is not an object: {json.dumps(spec)}")
    if "type" not in spec:
        raise ValueError("group description must be an object with a 'type'")
    kind = spec["type"]
    if kind == "permutation":
        degree = _int_field(spec, kind, "degree")
        gens = _generators_field(spec, kind)
        for g in gens:
            if sorted(g) != list(range(degree)):
                raise ValueError(f"bad one-line image list {spec['generators']}")
        return PermGroup(degree, gens, name=spec.get("name"), cap=cap)
    if kind == "cyclic":
        return cyclic(_int_field(spec, kind, "order"), cap=cap)
    if kind == "dihedral":
        return dihedral(_dihedral_n(spec), cap=cap)
    if kind == "symmetric":
        return symmetric(_int_field(spec, kind, "n"), cap=cap)
    if kind == "alternating":
        return alternating(_int_field(spec, kind, "n"), cap=cap)
    if kind == "quaternion":
        return quaternion(cap=cap)
    if kind == "trivial":
        return trivial_group()
    raise ValueError(f"unknown group type {kind!r}")


def _int_field(spec: dict, kind: str, field: str) -> int:
    # a missing, null, boolean, non-numeric or fractional field is an input
    # error naming the group type and the field
    value = spec.get(field)
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if (n is None or isinstance(value, bool)
            or (isinstance(value, float) and value != n)):
        raise ValueError(f"{kind} group needs an integer {field!r}, "
                         f"got {json.dumps(value)}")
    return n


def _generators_field(spec: dict, kind: str) -> list[tuple[int, ...]]:
    # a list of one-line image lists of integers, read 1-indexed; anything
    # else is an input error naming the group type and the field
    value = spec.get("generators")
    if not isinstance(value, list) or not all(
            isinstance(g, list) and all(
                isinstance(v, int) and not isinstance(v, bool) for v in g)
            for g in value):
        raise ValueError(f"{kind} group needs a list of integer lists "
                         f"'generators', got {json.dumps(value)}")
    return [tuple(v - 1 for v in g) for g in value]


def _dihedral_n(spec: dict) -> int:
    # D_n has order 2n: an odd order, or an n that disagrees with the order,
    # names no dihedral group; a null field counts as absent
    if spec.get("n") is None:
        order = _int_field(spec, "dihedral", "order")
        if order % 2:
            raise ValueError(f"dihedral group order must be even, got {order}")
        return order // 2
    n = _int_field(spec, "dihedral", "n")
    if spec.get("order") is not None:
        order = _int_field(spec, "dihedral", "order")
        if order != 2 * n:
            raise ValueError(f"dihedral n={n} has order {2 * n}, not {order}")
    return n


def catalog() -> list[PermGroup]:
    """The acceptance catalog: C_n (n <= 12), S3, S4, A4, D4, D6, Q8."""
    groups = [cyclic(n) for n in range(1, 13)]
    groups += [symmetric(3), symmetric(4), alternating(4),
               dihedral(4), dihedral(6), quaternion()]
    return groups
