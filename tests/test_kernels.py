"""The integer kernels must agree with slow, independent references.

The `*_backends_agree` tests compare a kernel with a Python-level oracle that
shares none of its code: `exact_oracles` brute force for the group scans and
Python-int arithmetic for the mod-p products.
"""

from fractions import Fraction

import numpy as np
import pytest

from orbirr import _kernels as kern
from orbirr.groups import alternating, dihedral, symmetric

from exact_oracles import brute_class_constants, brute_classes, det_fraction


def _group_data(G):
    gen_rows = np.array(G.generators, dtype=np.int64)
    gen_inv = np.argsort(gen_rows, axis=1)
    return G._arr, G._lex, gen_rows, gen_inv


def test_lookup_roundtrip():
    G = symmetric(4)
    elems, order, _, _ = _group_data(G)
    rows = elems[::-1].copy()
    got = kern.lookup_rows(elems, order, rows)
    assert list(got) == list(range(G.order))[::-1]


def test_lookup_missing_row():
    G = symmetric(3)
    elems, order, _, _ = _group_data(G)
    absent = np.array([[0, 1, 1]], dtype=np.int64)
    got = kern.lookup_rows(elems, order, absent)
    assert got[0] == -1


def test_conjugacy_partition_backends_agree():
    # the kernel's partition equals the brute-force conjugation orbits
    for G in (symmetric(4), dihedral(6)):
        cid = kern.conjugacy_partition(*_group_data(G))
        got = {frozenset(G.elements[x] for x in np.nonzero(cid == c)[0])
               for c in range(int(cid.max()) + 1)}
        want = {members for _, _, _, members in brute_classes(G)}
        assert got == want


def test_class_constants_backends_agree():
    # entry by entry against the brute-force tensor, through the class labels;
    # A4 has non-real classes, so x^-1 z and x z^-1 give different tensors
    for G in (symmetric(4), dihedral(6), alternating(4)):
        elems, order, gen_rows, gen_inv = _group_data(G)
        cid = kern.conjugacy_partition(elems, order, gen_rows, gen_inv)
        reps = np.array([int(np.nonzero(cid == c)[0][0])
                         for c in range(int(cid.max()) + 1)], dtype=np.int64)
        a = kern.class_constants(elems, order, cid, reps)
        classes = brute_classes(G)
        want = brute_class_constants(G, classes)
        label = [int(cid[G.index(rep)]) for _, _, rep, _ in classes]
        r = len(classes)
        assert a.shape == (r, r, r)
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    assert a[label[i], label[j], label[k]] == want[i][j][k]


def test_modp_charpoly_against_fraction_determinant():
    rng = np.random.default_rng(42)
    p = 97
    for _ in range(12):
        n = int(rng.integers(1, 6))
        A = rng.integers(0, p, size=(n, n)).astype(np.int64)
        coeffs = kern.modp_charpoly(A, p)
        coeffs = [int(c) % p for c in np.asarray(coeffs)]
        # evaluate det(xI - A) at a few points with exact fractions
        for x in (0, 1, 5):
            mat = [[Fraction(x if i == j else 0) - Fraction(int(A[i, j]))
                    for j in range(n)] for i in range(n)]
            want = det_fraction(mat).numerator % p
            got = sum(c * pow(x, t, p) for t, c in enumerate(coeffs)) % p
            assert got == want


def test_modp_rref_and_nullspace():
    rng = np.random.default_rng(7)
    p = 13
    for _ in range(20):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        A = rng.integers(0, p, size=(m, n)).astype(np.int64)
        R, piv = kern.modp_rref(A.copy(), p)
        R = np.asarray(R) % p
        piv = list(np.asarray(piv))
        # pivot columns are unit vectors
        for row, col in enumerate(piv):
            want = np.zeros(m, dtype=np.int64)
            want[row] = 1
            assert (R[:, col] % p == want).all()
        null = kern.modp_nullspace(A, p)
        assert null.shape[0] == n - len(piv)
        if null.shape[0]:
            assert not ((A @ null.T) % p).any()


def test_modp_matmul_backends_agree():
    # against the schoolbook product in Python ints, reduced mod p
    rng = np.random.default_rng(3)
    p = 1009
    A = rng.integers(-3 * p, 3 * p, size=(7, 5)).astype(np.int64)
    B = rng.integers(-3 * p, 3 * p, size=(5, 9)).astype(np.int64)
    got = kern.modp_matmul(A, B, p)
    want = [[sum(int(A[i, t]) * int(B[t, j]) for t in range(5)) % p
             for j in range(9)] for i in range(7)]
    assert got.tolist() == want


def test_poly_roots_exhaustive():
    p = 31
    # (x - 3)(x - 5)(x^2 + 1); x^2 + 1 does have roots mod 31? 31 % 4 == 3: no
    coeffs_poly = np.poly1d([1, 0, 1]) * np.poly1d([1, -3]) * np.poly1d([1, -5])
    coeffs = np.array([int(c) % p for c in coeffs_poly.coefficients[::-1]],
                      dtype=np.int64)
    roots = sorted(int(r) for r in kern.modp_poly_roots(coeffs, p))
    assert roots == [3, 5]


def test_overflow_guard():
    big = np.ones((2, 2), dtype=np.int64)
    with pytest.raises(OverflowError):
        kern.modp_rref(big, p=2**33)
