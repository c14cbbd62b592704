"""Zero-average Poisson solves on closed curve components.

Solves the cyclic second-difference system d^2/ds^2 phi = f - <f> with
<phi> = 0 on each closed component.  The nullspace of constants is removed
by a weighted rank-one shift that acts as a bordered mean constraint, so no
vertex gets pinned and symmetry of the stiffness form is preserved.  The
cyclic wrap and the shift enter a banded solve through a Woodbury
correction.  That solver, :func:`solve_cyclic_banded`, takes any stack of
cycles at once: it also solves the flow step's pentadiagonal system for all
components of a curve, and the knot slopes of :class:`PeriodicSpline`, the
periodic cubic interpolant of the flow's resampling and the extension field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import NonZeroMean, SingularSystem
from .geometry import (
    GeometryCache,
    VertexField,
    cycle_neighbours,
    d2ds2,
    dds,
    field_mean,
    integrate,
)

RESIDUAL_TOL = 1e-9


@dataclass
class PotentialSolve:
    """Result of one zero-average solve on a component."""

    rhs: VertexField
    solution: VertexField
    residual_norm: float
    mean_removed: float


def solve_cyclic_banded(diags, rhs: np.ndarray, lengths, extra=()) -> np.ndarray:
    """Solve A x = rhs for stacked cyclic band matrices plus rank-one terms.

    A is block diagonal with one n x n cyclic band block per entry n > 2p of
    ``lengths``.  ``diags`` holds 2p+1 row-aligned diagonals of the stack:
    ``diags[k][i]`` is the entry of row i in the column k - p places after i
    around i's own cycle.  The bands inside the blocks go to one banded LU
    solve; each block's 2p rows whose entries wrap around its corners, and
    the ``extra`` (u, v) pairs adding u v^T to A, enter through one Woodbury
    correction (Temperton, JCP 19, 1975).  ``rhs`` is (N,) or (N, m).
    """
    diags = np.asarray(diags, dtype=float)
    p = len(diags) // 2
    lengths = np.asarray(lengths)
    n = diags.shape[1]
    start = np.repeat(np.cumsum(lengths) - lengths, lengths)
    size = np.repeat(lengths, lengths)
    local = np.arange(n) - start
    wrapped = np.flatnonzero((local < p) | (local >= size - p))
    col_of = np.zeros(n, dtype=np.intp)
    col_of[wrapped] = np.arange(len(wrapped))
    # entry (k, i) sits in column cols[k, i] of i's own cycle
    k = np.arange(2 * p + 1)[:, None]
    cols = local + k - p
    inside = (cols >= 0) & (cols < size)
    ab = np.zeros((2 * p + 1, n))
    ab[np.broadcast_to(2 * p - k, cols.shape)[inside], (start + cols)[inside]] = diags[inside]
    us = np.zeros((n, len(wrapped)))
    us[wrapped, np.arange(len(wrapped))] = 1.0
    vs = np.zeros((n, len(wrapped)))
    vs[(start + cols % size)[~inside], np.broadcast_to(col_of, cols.shape)[~inside]] = diags[~inside]
    us = np.column_stack([us, *(u for u, _ in extra)])
    vs = np.column_stack([vs, *(v for _, v in extra)])
    b = np.reshape(rhs, (n, -1))
    sol = solve_banded((p, p), ab, np.column_stack([b, us]))
    y, z = sol[:, :b.shape[1]], sol[:, b.shape[1]:]
    cap = np.eye(us.shape[1]) + vs.T @ z
    return np.reshape(y - z @ np.linalg.solve(cap, vs.T @ y), np.shape(rhs))


class PeriodicSpline:
    """Periodic cubic interpolants of data on stacked cycles.

    Cycle c has knots at the arc positions ``arc`` of its entries, starting
    at 0 and increasing below its period ``period[c]``.  The knot slopes of
    every cycle and every data column come from one cyclic tridiagonal
    solve (de Boor, *A Practical Guide to Splines*, ch. IV); each interval
    then holds the Hermite cubic of its end values and slopes.  ``values``
    is (N,) or (N, m); evaluation returns (P,) or (P, m) to match.
    """

    def __init__(self, arc, period, lengths, values):
        self.arc = np.asarray(arc, dtype=float)
        self.period = np.asarray(period, dtype=float)
        self.lengths = np.asarray(lengths)
        self.start = np.cumsum(self.lengths) - self.lengths
        comp = np.repeat(np.arange(len(self.lengths)), self.lengths)
        nxt, prv = cycle_neighbours(self.lengths)
        # interval lengths; each cycle's last interval closes at its period
        h = np.where(nxt > np.arange(len(nxt)), self.arc[nxt], self.period[comp]) - self.arc
        y = np.reshape(values, (len(h), -1)).astype(float)
        slope = (y[nxt] - y) / h[:, None]
        hp = h[prv]
        d = solve_cyclic_banded([h, 2.0 * (hp + h), hp],
                                3.0 * (h[:, None] * slope[prv] + hp[:, None] * slope),
                                self.lengths)
        t = (d + d[nxt] - 2.0 * slope) / h[:, None]
        self.coef = np.stack([t / h[:, None], (slope - d) / h[:, None] - t, d, y])
        self.shape = np.shape(values)[1:]
        # interval search over all cycles laid end to end
        self.offset = np.cumsum(self.period) - self.period
        self.key = self.arc + self.offset[comp]

    def __call__(self, comp, s, nu: int = 0) -> np.ndarray:
        """The nu-th derivative (nu <= 2) at arc positions s of cycles comp."""
        comp = np.asarray(comp)
        s = np.mod(s, self.period[comp])
        j = np.searchsorted(self.key, s + self.offset[comp], side="right") - 1
        j = np.clip(j, self.start[comp], self.start[comp] + self.lengths[comp] - 1)
        x = (s - self.arc[j])[:, None]
        c3, c2, c1, c0 = self.coef[:, j]
        if nu == 0:
            out = ((c3 * x + c2) * x + c1) * x + c0
        elif nu == 1:
            out = (3.0 * c3 * x + 2.0 * c2) * x + c1
        else:
            out = 6.0 * c3 * x + 2.0 * c2
        return np.reshape(out, (len(j), *self.shape))


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
    return solve_cyclic_banded(diags, b, [cache.n], extra=[(w, w)])


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


def nu_dot_B_potential(cache: GeometryCache, b_vals) -> VertexField:
    """Zero-average potential of nu . B on one component.

    ``b_vals`` is the (n, 2) array of B at the component's vertices.  The
    component mean of nu . B is subtracted before solving (it need not
    vanish for a general field).
    """
    rhs = np.sum(cache.nu * np.asarray(b_vals, dtype=float), axis=1)
    field = VertexField(cache.component_index, rhs)
    return solve_zero_average(cache, field).solution
