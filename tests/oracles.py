"""Independent brute-force oracles shared by the tests.

These deliberately avoid the library's production code paths: walks
are enumerated one at a time by depth-first search, or counted by
powers of the dense adjacency matrix built here from the edge set; the
system matrix is pasted from the paper's block display rather than from
the lattice's edge rule; the generating functions come from the shared
Bareiss routine on the full system in t, without the grade-class
reduction; determinants at a point are taken mod p by Gaussian
elimination on the adjacency matrix; the Perron block is sliced out of
the adjacency matrix rather than counted from predecessor lists.
"""

import math
from collections import Counter

import numpy as np

from anyondeg.genfunc import _bareiss, build_system, j_matrix
from anyondeg.lattice import ORIGIN, Lattice, Vertex, build_lattice, \
    grade_classes, successors
from anyondeg.poly import IntPoly, RationalFn


def adjacency(lattice: Lattice) -> np.ndarray:
    """0/1 adjacency matrix in the canonical vertex order (row -> column)."""
    n = lattice.dim
    mat = np.zeros((n, n), dtype=np.int64)
    for v, w in lattice.edges:
        mat[lattice.index(v), lattice.index(w)] = 1
    return mat


def dfs_walk_counts(k: int, n: int) -> Counter:
    """Endpoint histogram of all n-step walks from the origin."""
    counts = Counter()

    def go(v: Vertex, steps: int) -> None:
        if steps == n:
            counts[v] += 1
            return
        for w in successors(v, k):
            go(w, steps + 1)

    go(ORIGIN, 0)
    return counts


def counts_by_matrix_power(k: int, n: int) -> dict[Vertex, int]:
    """Origin row of the n-th adjacency-matrix power, exact."""
    lat = build_lattice(k)
    mat = adjacency(lat).tolist()
    row = [0] * lat.dim
    row[lat.index(ORIGIN)] = 1
    for _ in range(n):
        row = [sum(row[r] * mat[r][c] for r in range(lat.dim) if row[r])
               for c in range(lat.dim)]
    return {v: row[lat.index(v)] for v in lat.vertices}


def paper_block_system(k: int) -> list[list[IntPoly]]:
    """M_k as the paper displays it, in block rows i = 0..k.

    Block row i has size m = k + 1 - i: I - t J(m,m,-1) on the diagonal,
    -t J(m,m-1,0) to its right and -t J(m-1,m,1) below it.
    """
    sizes = range(k + 1, 0, -1)
    dim = sum(sizes)
    t = IntPoly.monomial(1, 1)
    mat = [[IntPoly.one() if r == c else IntPoly.zero() for c in range(dim)]
           for r in range(dim)]

    def minus_t(block, r0, c0):
        for r, row in enumerate(block):
            for c, bit in enumerate(row):
                if bit:
                    mat[r0 + r][c0 + c] = mat[r0 + r][c0 + c] - t

    offset = 0
    for m in sizes:
        minus_t(j_matrix(m, m, -1), offset, offset)
        if m > 1:
            minus_t(j_matrix(m, m - 1, 0), offset, offset + m)
            minus_t(j_matrix(m - 1, m, 1), offset + m, offset)
        offset += m
    return mat


def full_system_solution(k: int) -> tuple[IntPoly, dict[Vertex, RationalFn]]:
    """det(M_k) and every generating function, by Bareiss elimination on
    the full (k+1)(k+2)/2-dimensional system M_k x = e_1 over Z[t]."""
    mat = build_system(k)
    rhs = [IntPoly.one()] + [IntPoly.zero()] * (len(mat) - 1)
    det, numerators = _bareiss(mat, rhs)
    lat = build_lattice(k)
    return det, {v: RationalFn(numerators[lat.index(v)], det)
                 for v in lat.vertices}


def transfer_det_mod_p(k: int, t0: int, p: int) -> int:
    """det(I - t0 * A) mod a prime p, by Gaussian elimination on the
    adjacency matrix."""
    adj = adjacency(build_lattice(k)).tolist()
    n = len(adj)
    mat = [[((r == c) - t0 * adj[r][c]) % p for c in range(n)]
           for r in range(n)]
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det = det * mat[col][col] % p
        inv = pow(mat[col][col], -1, p)
        for r in range(col + 1, n):
            f = mat[r][col] * inv % p
            if f:
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[col])]
    return det % p


def dense_perron_block(k: int) -> np.ndarray:
    """B = A[C0,C1] @ A[C1,C2] @ A[C2,C0], sliced out of the dense
    adjacency matrix and multiplied in float64."""
    lat = build_lattice(k)
    adj = adjacency(lat)
    c0, c1, c2 = ([lat.index(v) for v in cls] for cls in grade_classes(lat))

    def block(rows, cols):
        return adj[np.ix_(rows, cols)].astype(np.float64)

    return block(c0, c1) @ block(c1, c2) @ block(c2, c0)


def dense_lambda_perron(k: int, tol: float = 1e-12,
                        max_iter: int = 100_000) -> float:
    """Power iteration on ``dense_perron_block(k)``; the cube root of its
    dominant eigenvalue."""
    cubed = dense_perron_block(k)
    vec = np.ones(cubed.shape[0])
    vec /= np.linalg.norm(vec)
    mu_prev = math.inf
    for _ in range(max_iter):
        nxt = cubed @ vec
        mu = float(vec @ nxt)
        vec = nxt / np.linalg.norm(nxt)
        if abs(mu - mu_prev) < tol:
            return mu ** (1.0 / 3.0)
        mu_prev = mu
    raise RuntimeError(f"power iteration did not converge (k={k})")
