"""Zero-average Poisson solves on closed curve components.

Solves the cyclic second-difference system d^2/ds^2 phi = f - <f> with
<phi> = 0 on each closed component.  The nullspace of constants is removed
by a weighted rank-one shift that acts as a bordered mean constraint, so no
vertex gets pinned and symmetry of the stiffness form is preserved.  The
cyclic wrap and the shift enter a banded solve through a Woodbury
correction; that solver, :func:`solve_cyclic_banded`, also takes the flow
step's pentadiagonal system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import NonZeroMean, SingularSystem
from .geometry import GeometryCache, VertexField, d2ds2, dds, field_mean, integrate

RESIDUAL_TOL = 1e-9


@dataclass
class PotentialSolve:
    """Result of one zero-average solve on a component."""

    rhs: VertexField
    solution: VertexField
    residual_norm: float
    mean_removed: float


def solve_cyclic_banded(diags, rhs: np.ndarray, extra=()) -> np.ndarray:
    """Solve A x = rhs for a cyclic band matrix A plus rank-one terms.

    ``diags`` holds 2p+1 row-aligned diagonals of an n x n matrix, n > 2p:
    ``diags[k][i]`` is the entry A[i, (i + k - p) mod n].  The band inside
    the matrix goes to a banded LU solve; the 2p rows whose entries wrap
    around the corners, and the ``extra`` (u, v) pairs adding u v^T to A,
    enter through a Woodbury correction (Temperton, JCP 19, 1975).
    """
    diags = np.asarray(diags, dtype=float)
    p = len(diags) // 2
    n = diags.shape[1]
    rows = np.arange(n)
    wrapped = np.r_[0:p, n - p:n]
    ab = np.zeros((2 * p + 1, n))
    us = np.zeros((n, 2 * p))
    us[wrapped, np.arange(2 * p)] = 1.0
    vs = np.zeros((n, 2 * p))
    for k in range(2 * p + 1):
        cols = rows + k - p
        inside = (cols >= 0) & (cols < n)
        ab[2 * p - k, cols[inside]] = diags[k, inside]
        out = rows[~inside]
        vs[cols[out] % n, np.searchsorted(wrapped, out)] = diags[k, out]
    us = np.column_stack([us, *(u for u, _ in extra)])
    vs = np.column_stack([vs, *(v for _, v in extra)])
    sol = solve_banded((p, p), ab, np.column_stack([rhs, us]))
    y, z = sol[:, 0], sol[:, 1:]
    cap = np.eye(us.shape[1]) + vs.T @ z
    return y - z @ np.linalg.solve(cap, vs.T @ y)


def _stiffness_shifted_solve(cache: GeometryCache, b: np.ndarray) -> np.ndarray:
    """Solve (K + w w^T) phi = b where K is the cyclic stiffness matrix.

    K has rows (-1/h_{i-1}, 1/h_{i-1} + 1/h_i, -1/h_i) with cyclic wrap; its
    nullspace is the constants.  Because the weights w sum against constants
    to the length, the shifted system returns exactly the solution of
    K phi = b with the weighted mean of phi equal to zero, provided b sums
    to zero.
    """
    inv_h = 1.0 / cache.edge_lengths
    inv_hm = np.roll(inv_h, 1)
    diags = [-inv_hm, inv_h + inv_hm, -inv_h]
    w = cache.weights
    return solve_cyclic_banded(diags, b, extra=[(w, w)])


def solve_zero_average(cache: GeometryCache, f: VertexField) -> PotentialSolve:
    """Solve d^2 phi/ds^2 = f - <f> with <phi> = 0 on one closed component."""
    if cache.n < 8:
        raise SingularSystem(f"component {cache.component_index} has < 8 vertices")
    vals = np.asarray(f.values, dtype=float)
    if len(vals) != cache.n:
        raise ValueError("field length does not match component")
    mean = field_mean(cache, vals)
    g = vals - mean
    # d2ds2 phi = g  <=>  K phi = -D g with D the weight diagonal
    b = -cache.weights * g
    phi = _stiffness_shifted_solve(cache, b)
    residual = d2ds2(cache, phi) - g
    scale = float(np.sqrt(integrate(cache, vals**2))) or 1.0
    res_norm = float(np.sqrt(integrate(cache, residual**2)))
    if res_norm > RESIDUAL_TOL * max(scale, 1e-30):
        raise SingularSystem(
            f"poisson residual {res_norm:.2e} exceeds {RESIDUAL_TOL:.0e} * |f|"
        )
    return PotentialSolve(
        rhs=f,
        solution=VertexField(f.component_id, phi),
        residual_norm=res_norm,
        mean_removed=mean,
    )


def velocity_potential(cache: GeometryCache, v: VertexField) -> VertexField:
    """Zero-average potential of a normal velocity: d^2 phi_V/ds^2 = V.

    Requires the per-component mean of V to vanish (mass conservation); a
    violation signals broken volume conservation upstream.
    """
    mean = field_mean(cache, v.values)
    scale = max(1.0, float(np.max(np.abs(v.values))) if len(v.values) else 1.0)
    if abs(mean) > 1e-8 * scale:
        raise NonZeroMean(
            f"component {v.component_id}: <V> = {mean:.3e} violates volume conservation"
        )
    return solve_zero_average(cache, v).solution


def h_minus1_norm_sq(caches: list[GeometryCache], v_fields: list[VertexField]) -> float:
    """Sum over components of the squared H^-1 seminorm int |d phi_V/ds|^2 ds."""
    total = 0.0
    for cache, v in zip(caches, v_fields):
        phi = velocity_potential(cache, v)
        grad = dds(cache, phi.values)
        total += integrate(cache, grad**2)
    return float(total)


def nu_dot_B_potential(cache: GeometryCache, b_eval) -> VertexField:
    """Zero-average potential of nu . B on one component.

    ``b_eval`` maps an (n, 2) array of positions to (n, 2) vectors.  The
    component mean of nu . B is subtracted before solving (it need not
    vanish for a general field).
    """
    bvals = np.asarray(b_eval(cache.vertices), dtype=float)
    rhs = np.sum(cache.nu * bvals, axis=1)
    field = VertexField(cache.component_index, rhs)
    return solve_zero_average(cache, field).solution
