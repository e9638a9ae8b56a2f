"""Integer hot loops: permutation-group scans and mod-p linear algebra.

Everything here is exact machine-integer arithmetic (permutation indices and
residues mod a word-sized prime), in numpy.  The cyclotomic/rational layers
never pass through this module.
"""

from __future__ import annotations

import numpy as np


# --------------------------------------------------------------------------
# row lookup in a lexicographically sorted permutation table
# --------------------------------------------------------------------------


def _row_view(arr: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(arr, dtype=np.int64)
    return a.view([("", a.dtype)] * a.shape[1]).ravel()


def lex_order(elems: np.ndarray) -> np.ndarray:
    """Indices that sort the rows of `elems` lexicographically."""
    return np.argsort(_row_view(elems), kind="stable").astype(np.int64)


def _lookup_rows(elems, order, rows):
    sorted_view = _row_view(elems[order])
    query = _row_view(np.atleast_2d(rows))
    pos = np.searchsorted(sorted_view, query)
    out = np.full(len(query), -1, dtype=np.int64)
    in_range = pos < len(sorted_view)
    hit = in_range.copy()
    hit[in_range] = sorted_view[pos[in_range]] == query[in_range]
    out[hit] = order[pos[hit]]
    return out


def lookup_rows(elems, order, rows):
    """Original indices of `rows` inside the element table (-1 if absent)."""
    # The scans below call `_lookup_rows` directly: a profiler or tracer that
    # wraps the public names then sees one call per scan, not one per lookup.
    return _lookup_rows(elems, order, rows)


# --------------------------------------------------------------------------
# conjugacy classes: orbit partition under conjugation by generators
# --------------------------------------------------------------------------


def conjugacy_partition(elems, order, gen_rows, gen_inv_rows):
    """Label each element with its conjugacy class (discovery order)."""
    elems, order, gen_rows, gen_inv_rows = (
        np.ascontiguousarray(a, dtype=np.int64)
        for a in (elems, order, gen_rows, gen_inv_rows))
    n = elems.shape[0]
    class_id = np.full(n, -1, dtype=np.int64)
    cls = 0
    for start in range(n):
        if class_id[start] >= 0:
            continue
        class_id[start] = cls
        frontier = np.array([start], dtype=np.int64)
        while len(frontier):
            new: list[np.ndarray] = []
            for g, ginv in zip(gen_rows, gen_inv_rows):
                # gen * x * gen^{-1} for every x in the frontier
                conj = g[elems[frontier][:, ginv]]
                idx = _lookup_rows(elems, order, conj)
                fresh = idx[class_id[idx] < 0]
                class_id[fresh] = cls
                new.append(np.unique(fresh))
            frontier = np.unique(np.concatenate(new)) if new else frontier[:0]
        cls += 1
    return class_id


# --------------------------------------------------------------------------
# class multiplication constants a[i, j, k]
#   a[i, j, k] = #{ x in C_i : x^{-1} * rep_k in C_j }
# --------------------------------------------------------------------------


def class_constants(elems, order, class_of, reps_idx):
    elems, order, class_of, reps_idx = (
        np.ascontiguousarray(x, dtype=np.int64)
        for x in (elems, order, class_of, reps_idx))
    r = len(reps_idx)
    inv_elems = np.argsort(elems, axis=1)  # row-wise permutation inverse
    a = np.zeros((r, r, r), dtype=np.int64)
    for k, z in enumerate(reps_idx):
        prod = inv_elems[:, elems[z]]
        j = class_of[_lookup_rows(elems, order, prod)]
        np.add.at(a[:, :, k], (class_of, j), 1)
    return a


# --------------------------------------------------------------------------
# arithmetic mod p (word-sized primes from the Dixon table computation)
# --------------------------------------------------------------------------


def _check_modp(p: int, n: int) -> None:
    # row sums in matmul/rref stay below 2^63
    if n * (p - 1) * (p - 1) >= 2**62:
        raise OverflowError(f"prime {p} too large for int64 kernels at size {n}")


def modp_matmul(A, B, p):
    A = np.ascontiguousarray(A, dtype=np.int64) % p
    B = np.ascontiguousarray(B, dtype=np.int64) % p
    _check_modp(p, A.shape[1])
    return (A @ B) % p


def modp_rref(A, p):
    """Row-reduce A mod p; returns (reduced matrix, pivot columns)."""
    R = np.ascontiguousarray(A, dtype=np.int64) % p
    m, n = R.shape
    _check_modp(p, max(m, n))
    pivots = []
    rank = 0
    for col in range(n):
        nz = np.nonzero(R[rank:, col])[0]
        if not len(nz):
            continue
        sel = rank + nz[0]
        if sel != rank:
            R[[rank, sel]] = R[[sel, rank]]
        R[rank] = R[rank] * pow(int(R[rank, col]), p - 2, p) % p
        mask = np.ones(m, dtype=bool)
        mask[rank] = False
        R[mask] = (R[mask] - np.outer(R[mask, col], R[rank])) % p
        pivots.append(col)
        rank += 1
        if rank == m:
            break
    return R, np.array(pivots, dtype=np.int64)


def modp_nullspace(A, p):
    """Basis (as rows) of {v : A v = 0 mod p}, deterministic order."""
    A = np.ascontiguousarray(A, dtype=np.int64) % p
    n = A.shape[1]
    R, pivots = modp_rref(A, p)
    pivot_set = set(int(c) for c in pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for b, f in enumerate(free):
        basis[b, f] = 1
        for row, col in enumerate(pivots):
            basis[b, col] = (-int(R[row, f])) % p
    return basis


def modp_charpoly(A, p):
    """Characteristic polynomial of A mod p, ascending coefficients, monic."""
    A = np.ascontiguousarray(A, dtype=np.int64) % p
    _check_modp(p, A.shape[0])
    n = A.shape[0]
    H = [[int(v) for v in row] for row in A]
    # similarity reduction to upper Hessenberg
    for j in range(n - 2):
        sel = next((i for i in range(j + 1, n) if H[i][j]), None)
        if sel is None:
            continue
        if sel != j + 1:
            H[j + 1], H[sel] = H[sel], H[j + 1]
            for row in H:
                row[j + 1], row[sel] = row[sel], row[j + 1]
        inv = pow(H[j + 1][j], p - 2, p)
        for i in range(j + 2, n):
            if H[i][j]:
                f = H[i][j] * inv % p
                for t in range(n):
                    H[i][t] = (H[i][t] - f * H[j + 1][t]) % p
                for t in range(n):
                    H[t][j + 1] = (H[t][j + 1] + f * H[t][i]) % p
    # charpoly recurrence over leading principal minors
    polys = [[1]]
    for k in range(1, n + 1):
        cur = [0] + polys[k - 1]
        hkk = H[k - 1][k - 1]
        for t in range(k):
            cur[t] = (cur[t] - hkk * polys[k - 1][t]) % p
        run = 1
        for m in range(k - 1, 0, -1):
            run = run * H[m][m - 1] % p
            if run == 0:
                break
            f = H[m - 1][k - 1] * run % p
            if f:
                for t in range(m):
                    cur[t] = (cur[t] - f * polys[m - 1][t]) % p
        polys.append(cur)
    return np.array(polys[n], dtype=np.int64)


def modp_poly_roots(coeffs, p):
    """All roots in F_p of the given polynomial, ascending."""
    coeffs = np.ascontiguousarray(coeffs, dtype=np.int64) % p
    _check_modp(p, 1)
    xs = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for t in range(len(coeffs) - 1, -1, -1):
        acc = (acc * xs + int(coeffs[t])) % p
    return xs[acc == 0]
