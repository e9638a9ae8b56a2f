"""Independent oracles for the test suite.

Nothing here reuses the package's class machinery, mod-p path, or integer
kernels: conjugacy data is recomputed by plain dictionary brute force, the
reference character tables come either from the closed cyclic-group formula
or from simultaneous eigenspace splitting over an exact cyclotomic field
(sympy), and the exterior-power oracles work on explicit permutation
matrices with fraction arithmetic.  Two references read the group's
classes: the orthogonality reference sums both families term by term in
`Cyclotomic` arithmetic, independently of the integer arrays it checks, and
`full_enumeration_average` sums a class function over every element,
independently of class sizes and sectors.  `reduced` and `sort_key` compare
cyclotomic values at their smallest conductor, by Fraction elimination.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import isqrt, lcm

from sympy import Poly, QQ, Symbol
from sympy.polys.matrices import DomainMatrix

from orbirr.exact import Cyclotomic, euler_phi, rational, root_of_unity
from orbirr.groups import PermGroup, pinv, pmul, porder, ppow

# -- brute-force group structure (no numpy, no kernels) ------------------------


def brute_classes(G: PermGroup) -> list[tuple]:
    """Conjugacy classes by exhaustive conjugation, in the package's
    deterministic order (rep order, size, lexicographic representative)."""
    elems = list(G.elements)
    remaining = set(elems)
    classes = []
    while remaining:
        x = next(iter(remaining))
        orbit = {pmul(g, pmul(x, pinv(g))) for g in elems}
        remaining -= orbit
        rep = min(orbit)
        classes.append((porder(rep), len(orbit), rep, frozenset(orbit)))
    classes.sort(key=lambda t: (t[0], t[1], t[2]))
    return classes


def brute_class_constants(G: PermGroup, classes) -> list[list[list[int]]]:
    """a[i][j][k] = #{x in C_i : x^-1 rep_k in C_j}, dictionary brute force."""
    r = len(classes)
    which = {}
    for j, (_, _, _, members) in enumerate(classes):
        for m in members:
            which[m] = j
    a = [[[0] * r for _ in range(r)] for _ in range(r)]
    reps = [c[2] for c in classes]
    for x in G.elements:
        i = which[x]
        xi = pinv(x)
        for k, z in enumerate(reps):
            a[i][which[pmul(xi, z)]][k] += 1
    return a


# -- reference character tables -----------------------------------------------


def _anp_to_cyclotomic(anp, conductor: int) -> Cyclotomic:
    desc = [Fraction(int(c.numerator), int(c.denominator)) for c in anp.to_list()]
    return Cyclotomic(conductor, list(reversed(desc)))


def _fraction_sqrt(q: Fraction) -> int:
    if q.denominator != 1 or q < 0:
        raise ValueError(f"degree^2 came out as {q}")
    root = isqrt(q.numerator)
    if root * root != q.numerator:
        raise ValueError(f"{q} is not a perfect square")
    return root


def _cyclic_reference_rows(G: PermGroup, classes) -> list[tuple[Cyclotomic, ...]]:
    n = G.order
    gen = next((g for g in G.elements if porder(g) == n), None)
    assert gen is not None, "group passed to the cyclic formula is not cyclic"
    logs = []
    for _, _, rep, _ in classes:
        k = next(m for m in range(n) if ppow(gen, m) == rep)
        logs.append(k)
    return [tuple(root_of_unity(n, j * k) for k in logs) for j in range(n)]


def _sympy_reference_rows(G: PermGroup, classes) -> list[tuple[Cyclotomic, ...]]:
    r = len(classes)
    if r == 1:
        return [(rational(1),)]
    exponent = lcm(*[c[0] for c in classes])
    a = brute_class_constants(G, classes)
    K = QQ.cyclotomic_field(exponent)
    x = Symbol("x")
    mats = []
    for i in range(1, r):
        rows = [[K.convert(a[i][j][k]) for j in range(r)] for k in range(r)]
        mats.append(DomainMatrix(rows, (r, r), K))

    eye = DomainMatrix.eye(r, K)
    spaces = [(eye, list(range(r)))]
    for M in mats:
        if all(S.shape[0] == 1 for S, _ in spaces):
            break
        refined = []
        for S, piv in spaces:
            if S.shape[0] == 1:
                refined.append((S, piv))
                continue
            T = S * M
            R = T.extract(range(S.shape[0]), piv)
            charpoly = Poly(R.charpoly(), x, domain=K)
            roots = sorted(charpoly.ground_roots(),
                           key=lambda e: str(K.from_sympy(e)))
            if len(roots) <= 1:
                refined.append((S, piv))
                continue
            m = S.shape[0]
            for root in roots:
                lam = K.from_sympy(root)
                B = R - lam * DomainMatrix.eye(m, K)
                Y = B.transpose().nullspace()
                sub = (Y * S).rref()
                basis, sub_piv = sub
                rank = len(sub_piv)
                refined.append((basis.extract(range(rank), range(r)),
                                list(sub_piv)))
        spaces = refined
    assert all(S.shape[0] == 1 for S, _ in spaces), "splitting failed"

    sizes = [c[1] for c in classes]
    inv_of = []
    which = {}
    for j, (_, _, _, members) in enumerate(classes):
        for mem in members:
            which[mem] = j
    for _, _, rep, _ in classes:
        inv_of.append(which[pinv(rep)])

    rows = []
    for S, _ in spaces:
        w = [_anp_to_cyclotomic(v, exponent) for v in S.to_list()[0]]
        w = [v * w[0].inverse() for v in w]
        norm = rational(0)
        for k in range(r):
            norm = norm + w[k] * w[inv_of[k]] * Fraction(1, sizes[k])
        d2 = (rational(G.order) / norm).as_rational()
        d = _fraction_sqrt(d2)
        rows.append(tuple(rational(Fraction(d, sizes[k])) * w[k]
                          for k in range(r)))
    return rows


def reference_table_rows(G: PermGroup) -> list[tuple[Cyclotomic, ...]]:
    """Character table rows by an independent route, aligned to the package's
    class order.  Cyclic groups use the closed formula; everything else goes
    through exact eigenspace splitting over Q(zeta_exp) via sympy."""
    classes = brute_classes(G)
    order_match = [c[2] for c in classes]
    ours = [c.representative for c in G.conjugacy_classes()]
    assert order_match == ours, "independent class order disagrees"
    if any(porder(g) == G.order for g in G.elements):
        return _cyclic_reference_rows(G, classes)
    return _sympy_reference_rows(G, classes)


# -- conductor-independent comparison keys --------------------------------------


def reduced(x: Cyclotomic) -> Cyclotomic:
    """Equal element at the smallest conductor dividing x's conductor."""
    if x.is_rational():
        return rational(x.c[0])
    for m in range(2, x.n):
        if x.n % m == 0:
            down = _try_descend(x, m)
            if down is not None:
                return down
    return x


def _try_descend(x: Cyclotomic, m: int) -> Cyclotomic | None:
    # Solve for coordinates of x in the power basis of Q(zeta_m).
    ph_n, ph_m = euler_phi(x.n), euler_phi(m)
    cols = [root_of_unity(m, j).lift(x.n).c for j in range(ph_m)]
    # Gaussian elimination on the (ph_n x ph_m) system cols * y = x.c
    mat = [[cols[j][i] for j in range(ph_m)] + [x.c[i]] for i in range(ph_n)]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(ph_m):
        sel = next((r for r in range(row, ph_n) if mat[r][col]), None)
        if sel is None:
            continue
        mat[row], mat[sel] = mat[sel], mat[row]
        inv = Fraction(1) / mat[row][col]
        mat[row] = [v * inv for v in mat[row]]
        for r in range(ph_n):
            if r != row and mat[r][col]:
                f = mat[r][col]
                mat[r] = [v - f * w for v, w in zip(mat[r], mat[row])]
        pivots.append((row, col))
        row += 1
    if any(mat[r][-1] for r in range(row, ph_n)):
        return None
    sol = [Fraction(0)] * ph_m
    for r, c in pivots:
        sol[c] = mat[r][-1]
    return Cyclotomic(m, sol)


def sort_key(x: Cyclotomic) -> tuple:
    """Deterministic total-order key (conductor-independent)."""
    r = reduced(x)
    return (r.n,) + r.c


def row_key(row) -> tuple:
    return tuple(sort_key(v) for v in row)


def table_row_multiset(rows) -> list[tuple]:
    return sorted(row_key(row) for row in rows)


def fraction_orthogonality(table) -> bool:
    """Both orthogonality families summed term by term in `Cyclotomic`
    arithmetic: the reference that `chartab.verify_orthogonality` is checked
    against.  A table that is not r x r fails, as there."""
    G = table.group
    classes = G.conjugacy_classes()
    order = rational(G.order)
    r = len(classes)
    rows = table.rows
    if len(rows) != r or any(len(row) != r for row in rows):
        return False
    for i in range(r):
        conj_i = [v.conjugate() for v in rows[i]]
        for j in range(i, r):
            s = rational(0)
            for k in range(r):
                s = s + classes[k].size * rows[j][k] * conj_i[k]
            if s != (order if i == j else rational(0)):
                return False
    for c in range(r):
        for c2 in range(c, r):
            s = rational(0)
            for i in range(r):
                s = s + rows[i][c] * rows[i][c2].conjugate()
            want = rational(Fraction(G.order, classes[c].size)) if c == c2 \
                else rational(0)
            if s != want:
                return False
    return True


def full_enumeration_average(G: PermGroup, v) -> Fraction:
    """(1/|G|) sum over every element of V(g), summed by full enumeration.

    Independent of the class-size bookkeeping; ties the inertia sum back to
    orbit-stabilizer.
    """
    class_of = G.class_of_index()
    total = rational(0)
    for idx in range(G.order):
        total = total + v.values[int(class_of[idx])]
    q = (total * rational(Fraction(1, G.order))).as_rational()
    if q is None:
        raise ValueError("enumeration average failed to be rational")
    return q


# -- exact matrix oracles for lambda operations ----------------------------------


def perm_matrix(perm) -> list[list[Fraction]]:
    n = len(perm)
    return [[Fraction(1 if perm[j] == i else 0) for j in range(n)]
            for i in range(n)]


def det_fraction(mat) -> Fraction:
    n = len(mat)
    m = [list(map(Fraction, row)) for row in mat]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def exterior_trace(mat, k: int) -> Fraction:
    """Trace of the induced action on the k-th exterior power: the sum of all
    principal k x k minors."""
    n = len(mat)
    if k == 0:
        return Fraction(1)
    if k > n:
        return Fraction(0)
    total = Fraction(0)
    for subset in combinations(range(n), k):
        total += det_fraction([[mat[i][j] for j in subset] for i in subset])
    return total
