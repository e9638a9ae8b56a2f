"""Exact irreducible character tables by the Dixon-Burnside method.

The table is computed mod a deterministic prime p = 1 (mod exp(G)) with
p > 2*sqrt(|G|): the class-sum matrices are simultaneously diagonalized over
F_p by recursive eigenspace splitting, eigenvectors are normalized to
characters through the degree formula, and each value is lifted to the
cyclotomic field Q(zeta_e) (e the element order) by discrete Fourier
inversion of the eigenvalue multiplicities: one mod-p product of the table's
columns at the powers g_k^s with the e x e DFT matrix per class k, for every
row at once.  All lifted values are exact `Cyclotomic` elements; the
finished table is checked against both orthogonality families before it is
returned.

That check (`verify_orthogonality`, also run on every cache load) makes no
`Cyclotomic` products: the table becomes one integer array D*chi_i(g_k) in
Z[x]/(x^L - 1), both families are cyclic convolutions of it with its
conjugate, and one integer matrix reduces them mod Phi_L.  It is exact by
proof: int64 only under a checked overflow bound, Python ints past it.
Orthogonality is necessary, not sufficient: a swap of two columns of equal
class size still passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from . import _kernels as kern
from .exact import (Cyclotomic, _check_conductor, integer_lift,
                    phi_reduction_matrix, rational)
from .groups import PermGroup


class TableComputationError(RuntimeError):
    """Internal failure of the eigenspace splitting; impossible for valid input."""


@dataclass(frozen=True)
class CharacterTable:
    group: PermGroup
    rows: tuple[tuple[Cyclotomic, ...], ...]
    degrees: tuple[int, ...]
    prime: int

    def trivial_index(self) -> int:
        one = rational(1)
        for i, row in enumerate(self.rows):
            if all(v == one for v in row):
                return i
        raise AssertionError("trivial character missing (internal bug)")


def smallest_dixon_prime(order: int, exponent: int) -> int:
    """Smallest prime p = 1 (mod exponent) with p > 2*ceil(sqrt(order))."""
    bound = 2 * (isqrt(order - 1) + 1) if order > 1 else 2
    p = 1
    while True:
        p += exponent
        if p <= bound or p < 3:
            continue
        if _is_prime(p):
            return p


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _primitive_root(p: int) -> int:
    if p == 2:
        return 1
    factors = []
    m, d = p - 1, 2
    while d * d <= m:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        factors.append(m)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise AssertionError("no primitive root found (p not prime?)")


def _sqrt_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise TableComputationError("degree formula gave a non-residue")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _split_eigenrows(mats: list[np.ndarray], p: int, r: int) -> list[np.ndarray]:
    """Common 1-dim eigenrow spaces of commuting matrices over F_p."""
    start = np.eye(r, dtype=np.int64)
    spaces: list[tuple[np.ndarray, np.ndarray]] = [(start, np.arange(r))]
    for M in mats:
        if all(S.shape[0] == 1 for S, _ in spaces):
            break
        refined: list[tuple[np.ndarray, np.ndarray]] = []
        for S, piv in spaces:
            if S.shape[0] == 1:
                refined.append((S, piv))
                continue
            T = kern.modp_matmul(S, M, p)
            R = T[:, piv]  # action in the row basis of S (S is in rref)
            roots = kern.modp_poly_roots(kern.modp_charpoly(R, p), p)
            if len(roots) <= 1:
                refined.append((S, piv))
                continue
            for lam in roots:
                B = (R - int(lam) * np.eye(S.shape[0], dtype=np.int64)) % p
                Y = kern.modp_nullspace(B.T, p)
                if Y.shape[0] == 0:
                    raise TableComputationError("empty eigenspace (internal bug)")
                basis, sub_piv = kern.modp_rref(kern.modp_matmul(Y, S, p), p)
                refined.append((basis[: len(sub_piv)], sub_piv))
        spaces = refined
    if any(S.shape[0] != 1 for S, _ in spaces):
        raise TableComputationError(
            "class matrices failed to split into one-dimensional eigenspaces")
    return [S[0] for S, _ in spaces]


def character_table(G: PermGroup) -> CharacterTable:
    """Exact character table of G, deterministic row and column order."""
    if G._char_table is not None:
        return G._char_table
    classes = G.conjugacy_classes()
    for c in classes:  # chi(g_k) lies in Q(zeta_e), e = ord g_k: cap before any work
        _check_conductor(c.rep_order)
    r = len(classes)
    order = G.order
    exponent = G.exponent()
    p = smallest_dixon_prime(order, exponent)
    a = G.class_constant_tensor() % p
    # w |-> w.M_i acts on row vectors w with w_j ~ |C_j| chi(g_j)/chi(1)
    mats = [np.ascontiguousarray(a[i].T) for i in range(1, r)]
    eigenrows = _split_eigenrows(mats, p, r)

    sizes = [c.size for c in classes]
    inv_class = [G.power_class_map(k, classes[k].rep_order - 1) for k in range(r)]
    zgen = _primitive_root(p)
    omega_exp = pow(zgen, (p - 1) // exponent, p)

    degrees: list[int] = []
    X = np.zeros((r, r), dtype=np.int64)  # X[i, k] = chi_i(g_k) mod p
    for i, w in enumerate(eigenrows):
        w = [int(v) % p for v in w]
        if w[0] == 0:
            raise TableComputationError("eigenrow vanishes at the identity class")
        scale = pow(w[0], p - 2, p)
        w = [v * scale % p for v in w]
        norm = sum(w[k] * w[inv_class[k]] * pow(sizes[k], p - 2, p)
                   for k in range(r)) % p
        if norm == 0:
            raise TableComputationError("degenerate norm in degree formula")
        d2 = order * pow(norm, p - 2, p) % p
        d = _sqrt_mod(d2, p)
        d = min(d, p - d)
        if d == 0 or d * d > order:
            raise TableComputationError(f"implausible degree lift {d}")
        degrees.append(d)
        X[i] = [d * w[k] * pow(sizes[k], p - 2, p) % p for k in range(r)]

    # chi(g_k) = sum_j m_j zeta_e^j with m_j the multiplicity of eigenvalue j,
    # recovered mod p for every row at once by the inverse DFT
    # m_j = e^-1 sum_s chi(g_k^s) omega^(-js) against a fixed e-th root omega
    deg = np.array(degrees, dtype=np.int64)
    columns = []
    for k, cls in enumerate(classes):
        e = cls.rep_order
        pw = [G.power_class_map(k, s) for s in range(e)]
        omega = pow(omega_exp, exponent // e, p)
        powers = np.array([pow(omega, t, p) for t in range(e)], dtype=np.int64)
        F = powers[-np.outer(np.arange(e), np.arange(e)) % e]
        m = kern.modp_matmul(X[:, pw], F, p) * pow(e, p - 2, p) % p
        over = np.argwhere(m > deg[:, None])
        if len(over):
            i, j = over[0]
            raise TableComputationError(
                f"eigenvalue multiplicity {m[i, j]} exceeds degree {degrees[i]}")
        if (m.sum(axis=1) != deg).any():
            raise TableComputationError(
                "eigenvalue multiplicities do not sum to degree")
        columns.append([Cyclotomic(e, m_i) for m_i in m.tolist()])
    rows = [(d, tuple(col[i] for col in columns)) for i, d in enumerate(degrees)]

    rows.sort(key=lambda item: (item[0], tuple(v.c for v in item[1])))
    table = CharacterTable(
        group=G,
        rows=tuple(vals for _, vals in rows),
        degrees=tuple(d for d, _ in rows),
        prime=p,
    )
    if sum(d * d for d in table.degrees) != order:
        raise TableComputationError("sum of squared degrees != |G|")
    if not verify_orthogonality(table):
        raise TableComputationError("orthogonality check failed after lift")
    G._char_table = table
    return table


# Exact in int64 only below this bound on every intermediate magnitude.
_INT64_BOUND = 2**62


def verify_orthogonality(table: CharacterTable) -> bool:
    """Exact check of both orthogonality families.

    Each D*chi_i(g_k) is lifted into Z[x]/(x^L - 1) (``integer_lift``), where
    conjugation is t -> -t mod L.  Each family is then a weighted Gram
    matrix of cyclic convolutions: sum_k |C_k| chi_i(g_k) conj chi_j(g_k)
    for the rows, sum_i chi_i(g_c) conj chi_i(g_c') for the columns.  Its
    r^2 entries are reduced mod Phi_L by one integer matrix and compared
    with D^2*|G|*delta_ij and D^2*|G|/|C_c|*delta_cc'.  A table that is not
    r x r fails.

    Every convolution coefficient is a sum of at most |G|*N products of two
    coefficients of size <= B (N nonzero coefficients per entry, B the
    largest), so int64 is used only once |G|*N*B^2 < 2^62 is checked; past
    that the arrays hold Python ints.  The reduction has its own bound.
    """
    G = table.group
    classes = G.conjugacy_classes()
    r = len(classes)
    rows = table.rows
    if len(rows) != r or any(len(row) != r for row in rows):
        return False
    lift = integer_lift([v for row in rows for v in row])
    L, D = lift.conductor, lift.denominator
    bound = G.order * lift.max_terms * lift.max_abs ** 2
    dtype = np.int64 if bound < _INT64_BOUND else object
    A = lift.coeffs.astype(dtype, copy=False).reshape(r, r, L)
    sizes = np.array([c.size for c in classes], dtype=dtype)
    M = phi_reduction_matrix(L)
    reduce_bound = bound * int(np.abs(M).sum(axis=0).max())
    if dtype is object or reduce_bound >= _INT64_BOUND:
        M = M.astype(object)
    scale = D * D * G.order
    return (_is_diagonal(_gram(A.transpose(1, 0, 2), sizes) @ M, [scale] * r)
            and _is_diagonal(_gram(A, np.ones_like(sizes)) @ M,
                             [scale // c.size for c in classes]))


def _gram(A: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # out[a, b] = sum_m weights[m] * A[m, a] * conj(A[m, b]) in Z[x]/(x^L - 1):
    # one matrix product per nonzero exponent s of A, shifted by s
    m, r, L = A.shape
    conj = A[:, :, (-np.arange(L)) % L].reshape(m, r * L)
    out = np.zeros((r, r, L), dtype=A.dtype)
    for s in np.flatnonzero(A.any(axis=(0, 1))):
        T = ((A[:, :, s] * weights[:, None]).T @ conj).reshape(r, r, L)
        out[:, :, s:] += T[:, :, :L - s]
        out[:, :, :s] += T[:, :, L - s:]
    return out


def _is_diagonal(reduced: np.ndarray, diagonal: list[int]) -> bool:
    # reduced[a, b] is a power-basis vector; true iff it is diagonal[a] * delta_ab
    idx = np.arange(len(diagonal))
    got = reduced[idx, idx, 0].tolist()
    reduced[idx, idx, 0] = 0
    return got == diagonal and not reduced.any()
