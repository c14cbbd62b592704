"""Zero-average Poisson solves on closed curve components.

Solves the cyclic second-difference system d^2/ds^2 phi = f - <f> with
<phi> = 0 on every closed component of a curve at once.  The cyclic
stiffness matrix of a component is singular (its nullspace is the
constants), so vertex 0 of each component is grounded: its row and column
drop out, the other vertices keep a path tridiagonal system, and the
weighted mean is subtracted afterwards.  All components go to one call of
:func:`solve_cyclic_banded`, which takes any stack of cycles: it also
solves the flow step's pentadiagonal system for all components of a curve,
and the knot slopes of :class:`PeriodicSpline`, the periodic cubic
interpolant of the flow's resampling and the extension field.

LAPACK's ``dgbsv``, these band solves, comes from scipy's extension file
``linalg/_flapack``, loaded by :func:`load_lapack` without the
``scipy.linalg`` package import.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from functools import lru_cache

import numpy as np

from .errors import NonZeroMean, SingularSystem
from .geometry import CurveGeometry, cycle_layout, dds, field_mean, integrate

RESIDUAL_TOL = 1e-9


def _flapack_file() -> str:
    """scipy's ``linalg/_flapack`` extension file, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    for base in spec.submodule_search_locations if spec else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(base, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    raise ImportError("scipy has no linalg/_flapack extension file")


def load_lapack():
    """scipy's f2py LAPACK wrappers: the ``_flapack`` module loaded from its
    file and kept out of ``sys.modules`` (the name must match the file's
    ``PyInit__flapack``), else ``scipy.linalg.lapack`` when there is no file."""
    try:
        spec = importlib.util.spec_from_file_location("_flapack", _flapack_file())
    except ImportError:
        from scipy.linalg import lapack
        return lapack
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


lapack = load_lapack()
dgbsv = lapack.dgbsv


@lru_cache(maxsize=32)
def _band_layout(lengths: tuple, p: int):
    """Row order and band-storage targets of stacked cycles, interleaved.

    Cycle entry j of a length-n cycle goes to row 0 for j = 0, 2j - 1 for
    j <= n/2 and 2(n - j) otherwise: the order 0, 1, n-1, 2, n-2, ...  Two
    entries k places apart around the cycle land at most 2k rows apart, so
    the corner entries of a cyclic band of half-width p fall inside a plain
    band of half-width 2p.  Returns ``row`` (the row of every stacked
    entry), ``order`` (its inverse) and ``target``, the flat index in
    LAPACK's column-major (6p+1, N) band storage of diagonal entry (k, i).
    """
    lay = cycle_layout(lengths)
    if np.any(lay.counts <= 2 * p):
        raise ValueError(f"cycles need more than {2 * p} entries for half-width {p}")
    n = len(lay.comp)
    start, size, local = lay.first[lay.comp], lay.counts[lay.comp], lay.local
    row = start + np.maximum(np.where(2 * local <= size, 2 * local - 1,
                                      2 * (size - local)), 0)
    order = np.empty(n, dtype=np.intp)
    order[row] = np.arange(n)
    k = np.arange(2 * p + 1)[:, None]
    col = row[start + (local + k - p) % size]
    # A[r, c] sits at ab[4p + r - c, c] for kl = ku = 2p
    target = (4 * p + row - col) + (6 * p + 1) * col
    for shared in (row, order, target):
        shared.flags.writeable = False
    return row, order, target


def solve_cyclic_banded(diags, rhs: np.ndarray, lengths) -> np.ndarray:
    """Solve A x = rhs for a stack of cyclic band matrices.

    A is block diagonal with one n x n cyclic band block per entry n > 2p of
    ``lengths``.  ``diags`` holds 2p+1 row-aligned diagonals of the stack:
    ``diags[k][i]`` is the entry of row i in the column k - p places after i
    around i's own cycle.  Each cycle is reordered 0, 1, n-1, 2, n-2, ...,
    which moves its corner entries into a band of half-width 2p, and the
    whole stack is one LAPACK band LU solve (``dgbsv``) with no corner
    correction.  ``rhs`` is (N,) or (N, m).  Raises SingularSystem on
    non-finite entries or a zero pivot.
    """
    diags = np.asarray(diags, dtype=float)
    p = len(diags) // 2
    n = diags.shape[1]
    rhs = np.asarray(rhs)
    b = rhs.reshape(n, -1)
    if not (np.isfinite(diags).all() and np.isfinite(b).all()):
        raise SingularSystem("non-finite entries in a cyclic band system")
    row, order, target = _band_layout(tuple(lengths), p)
    ab = np.zeros((6 * p + 1) * n)
    ab[target] = diags
    _, _, x, info = dgbsv(2 * p, 2 * p, ab.reshape((6 * p + 1, n), order="F"),
                          b.take(order, axis=0), overwrite_ab=1, overwrite_b=1)
    if info > 0:
        raise SingularSystem("zero pivot in a cyclic band system")
    return x.take(row, axis=0).reshape(rhs.shape)


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
        key = tuple(lengths)
        nxt, prv, self.start, comp, _, _, self.lengths = cycle_layout(key)
        self.last = self.start + self.lengths - 1
        # interval lengths; each cycle's last interval closes at its period
        h = self.arc.take(nxt) - self.arc
        h[self.last] = self.period - self.arc[self.last]
        # the data columns as rows, (m, N), so that every product with a
        # per-knot array runs along a contiguous row
        y = np.asarray(values, dtype=float).reshape(len(h), -1).T
        slope = (y.take(nxt, axis=1) - y) / h
        hp = h.take(prv)
        d = solve_cyclic_banded(np.array([h, 2.0 * (hp + h), hp]),
                                (3.0 * (h * slope.take(prv, axis=1) + hp * slope)).T, key).T
        t = (d + d.take(nxt, axis=1) - 2.0 * slope) / h
        self.coef = np.array([t / h, (slope - d) / h - t, d, y])
        self.shape = np.shape(values)[1:]
        # interval search over all cycles laid end to end
        self.offset = self.period.cumsum() - self.period
        self.key = self.arc + self.offset.take(comp)

    def __call__(self, comp, s, nu: int = 0) -> np.ndarray:
        """The nu-th derivative (nu <= 2) at arc positions s of cycles comp."""
        comp = np.asarray(comp)
        s = s % self.period.take(comp)
        j = self.key.searchsorted(s + self.offset.take(comp), side="right") - 1
        j = np.minimum(np.maximum(j, self.start.take(comp)), self.last.take(comp))
        x = s - self.arc.take(j)
        c3, c2, c1, c0 = self.coef.take(j, axis=2)
        if nu == 0:
            out = ((c3 * x + c2) * x + c1) * x + c0
        elif nu == 1:
            out = (3.0 * c3 * x + 2.0 * c2) * x + c1
        else:
            out = 6.0 * c3 * x + 2.0 * c2
        return np.ascontiguousarray(out.T).reshape(len(j), *self.shape)


def solve_zero_average(geom: CurveGeometry, values) -> np.ndarray:
    """Solve d^2 phi/ds^2 = f - <f> with <phi> = 0 on every component at once.

    ``values`` is the stacked f.  With D the weight diagonal, d2ds2 phi = g
    is K phi = -D g for the cyclic stiffness matrix K, rows (-1/h_{i-1},
    1/h_{i-1} + 1/h_i, -1/h_i).  The right side sums to zero on each
    component, so grounding vertex 0 (phi_0 = 0, its row dropped) leaves the
    path tridiagonal system on the other vertices; one stacked solve covers
    all components, and each then has its weighted mean removed.  Each
    component keeps its own residual check; the first failing one is named.
    """
    nxt, prv, first, comp, _, _, lengths = geom.layout
    small = lengths < 8
    if np.any(small):
        raise SingularSystem(f"component {int(np.argmax(small))} has < 8 vertices")
    vals = np.asarray(values, dtype=float)
    if vals.shape != geom.weights.shape:
        raise ValueError("field length does not match the curve")
    h, w = geom.edge_lengths, geom.weights
    g = vals - field_mean(geom, vals)[comp]
    inv_h = 1.0 / h
    lo, up = -inv_h[prv], -inv_h
    lo[first + 1] = 0.0
    up[first + lengths - 1] = 0.0
    free = np.ones(len(h), dtype=bool)
    free[first] = False
    phi = np.zeros(len(h))
    phi[free] = solve_cyclic_banded([lo[free], (inv_h + inv_h[prv])[free], up[free]],
                                    (-w * g)[free], lengths - 1)
    phi -= field_mean(geom, phi)[comp]
    residual = ((phi[nxt] - phi) / h - (phi - phi[prv]) / h[prv]) / w - g
    res_norm = np.sqrt(integrate(geom, residual**2))
    scale = np.sqrt(integrate(geom, vals**2))
    bad = res_norm > RESIDUAL_TOL * np.maximum(np.where(scale == 0.0, 1.0, scale), 1e-30)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise SingularSystem(f"poisson residual {res_norm[k]:.2e} on component "
                             f"{k} exceeds {RESIDUAL_TOL:.0e} * |f|")
    return phi


def velocity_potential(geom: CurveGeometry, v) -> np.ndarray:
    """Zero-average potentials of a stacked normal velocity: d^2 phi_V/ds^2 = V.

    Requires the per-component mean of V to vanish (mass conservation); a
    violation signals broken volume conservation upstream.
    """
    v = np.asarray(v, dtype=float)
    mean = field_mean(geom, v)
    bad = np.abs(mean) > 1e-8 * np.maximum(1.0, np.maximum.reduceat(np.abs(v),
                                                                     geom.layout.first))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NonZeroMean(f"component {k}: <V> = {mean[k]:.3e} violates volume conservation")
    return solve_zero_average(geom, v)


def h_minus1_norm_sq(geom: CurveGeometry, v) -> float:
    """Sum over components of the squared H^-1 seminorm int |d phi_V/ds|^2 ds."""
    return float(np.sum(integrate(geom, dds(geom, velocity_potential(geom, v)) ** 2)))


def nu_dot_B_potential(geom: CurveGeometry, b_vals) -> np.ndarray:
    """Zero-average potentials of nu . B on every component.

    ``b_vals`` is the (N, 2) array of B at the stacked vertices.  The
    component means of nu . B are subtracted before solving (they need not
    vanish for a general field).
    """
    return solve_zero_average(geom, np.sum(geom.nu * np.asarray(b_vals, dtype=float), axis=1))
