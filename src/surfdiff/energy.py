"""Relative energy, bulk error, dissipation functionals and inequality verdicts.

The relative energy is the tilt excess int (1 - nu . xi) over the evolving
curve; the bulk error weighs the symmetric difference between the evolving
and reference regions by the truncated signed distance vartheta = theta(s).
The bulk error is a line integral over the evolving curve's edges: in tube
coordinates around the reference, fields whose divergence is vartheta (or
delta - |vartheta|) are known in closed form, and the parts of the plane
they do not reach are faces of constant vartheta whose terms are closed
form in the reference's lengths, areas and total curvatures.

The per-sample checkers read one ``calibration.TubeSample`` of the state:
the relative energy is the sum of its per-component tilt integrals, which
the small-component bound reads too, and the dissipation report takes
div xi from it; the stationary gradient ratio is cross_xi / E of that
report.  All inequality checkers report slack and never clamp: a negative
slack is a finding, not an error.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BandExceeded,
    DegenerateInitialData,
    NonStationaryReference,
    ReferenceEnclosed,
)
from .calibration import AnalyticCircles, Calibration, TubeSample
from .geometry import CurveGeometry, crossing_parity, dds, field_mean, integrate
from .poisson import nu_dot_B_potential, velocity_potential

# 4-point Gauss-Legendre on [0, 1]
_G4X = 0.5 + 0.5 * np.array([-0.8611363115940526, -0.3399810435848563,
                             0.3399810435848563, 0.8611363115940526])
_G4W = 0.5 * np.array([0.3478548451374538, 0.6521451548625461,
                       0.6521451548625461, 0.3478548451374538])

# 6-point Gauss-Legendre on [0, 1], the bulk error's rule per edge
_BULK_X = 0.5 + 0.5 * np.array([-0.9324695142031521, -0.6612093864662645,
                                -0.2386191860831969, 0.2386191860831969,
                                0.6612093864662645, 0.9324695142031521])
_BULK_W = 0.5 * np.array([0.1713244923791704, 0.3607615730481386, 0.4679139345726910,
                          0.4679139345726910, 0.3607615730481386, 0.1713244923791704])

# ---------------------------------------------------------------------------
# relative energy
# ---------------------------------------------------------------------------

def relative_energy(sample: TubeSample) -> float:
    """int over the curve of 1 - nu . xi; vertices beyond the tube add 1.

    The sum of the per-component tilt integrals.
    """
    return float(np.sum(sample.tilt))


# ---------------------------------------------------------------------------
# bulk error: a line integral over the evolving curve
# ---------------------------------------------------------------------------

def bulk_error(sample: TubeSample, calib: Calibration) -> float:
    """int (chi_curve - chi_reference) * vartheta over the plane, as a line integral.

    ``sample`` is the curve state with its signed distances at the vertices.
    Let kappa be the reference curvature at the foot point and
    G(s, kappa) = int_0^s theta(r) (1 + r kappa) dr, closed form from the
    profile's polynomial pieces.  Phi = G / (1 + s kappa) grad s has
    div Phi = vartheta wherever tube coordinates hold (|s| below the reach,
    which an admissible delta keeps at least 4 delta) and vanishes on the
    reference.  With o_k the orientations, chi_curve = sum_k o_k chi_int(k)
    (each orientation matches its nesting depth), so each component k adds
    o_k int_int(k) vartheta.  Its kind is read from bounds on |s| along its
    edges: s is 1-Lipschitz, so between two points at distance l with |s|
    = a and b, (a + b - l)/2 <= |s| <= (a + b + l)/2.  The points are the
    vertices and, on every edge that is queried, the quadrature points.

    * side components stay clear of the reference (|s| > 0 by the bounds)
      and enclose none of its components, so s has one sign sigma inside
      them.  Such a component adds sigma delta A (A its signed area) plus
      the flux of K(|s|, sigma kappa) / (1 + s kappa) grad s, where
      K(u, k) = int_u^delta (delta - theta(r)) (1 + r k) dr: on that side
      the field has divergence vartheta - sigma delta and is zero for
      |s| >= delta, so edges at |s| >= delta (all of a far component's)
      need no query.
    * band components are all others; they must stay within |s| < 2 delta
      and add the flux of Phi through them.
    * face terms: off the band |s| < 2 delta, the band components' sum
      minus chi_reference is an integer c_j on the face inside reference
      component j, read at one parity probe 3 delta inside it.  Where
      c_j != 0 the face adds c_j times (the flux of Phi into it through its
      offset curves + sigma_j delta |face|), closed form by Steiner's
      formula in the length, signed area and int kappa ds of the loop and
      its direct children.

    Every flux is a 6-point Gauss-Legendre sum per piece of edge, from one
    reference query.  Edges are cut in four where their |s| range may hold
    delta/2 or delta, the joints of theta, and where they cross a polygon
    reference's corner bisector: grad s jumps across it on the inside of
    the turn and turns through the corner's angle near it outside.  On
    analytic circles F is exact up to quadrature; on a polygon reference it
    integrates over a tube whose curvature is interpolated along the edges,
    a discretization of the reference.

    Raises :class:`BandExceeded` when a component that may meet the
    reference reaches |s| >= 2 delta, and :class:`ReferenceEnclosed` when a
    component clear of the reference encloses a reference component and
    reaches |s| >= 2 delta.
    """
    delta, profile, t = calib.delta, calib.profile, sample.t
    geom = sample.geometry
    curve, lay = geom.curve, geom.layout
    loops = calib.reference.loops(t)
    starts, ends, comp_of, _ = curve.segments
    orientation = curve.orientations
    a_vert = np.abs(sample.s)
    h = geom.edge_lengths
    edge_lo = 0.5 * (a_vert + a_vert[lay.nxt] - h)
    edge_hi = 0.5 * (a_vert + a_vert[lay.nxt] + h)
    encloses = crossing_parity(loops.point, starts, ends, comp_of,
                               curve.ncomponents).any(axis=0)
    # clear by the vertex bounds alone: only edges that may reach |s| < delta
    # are queried
    sure = (np.minimum.reduceat(edge_lo, lay.first) > 0) & ~encloses
    edges = np.nonzero(~sure[comp_of] | (edge_lo < delta))[0]

    # cut points along each queried edge, as (row in edges, parameter):
    # both ends, quarters where theta'' may jump, crossings of grad s jumps
    joint = np.nonzero((((edge_lo < 0.5 * delta) & (edge_hi > 0.5 * delta))
                        | ((edge_lo < delta) & (edge_hi > delta)))[edges])[0]
    rows = np.arange(len(edges))
    kink, u_kink = calib.reference.bisector_crossings(geom.vertices, edges,
                                                      lay.nxt[edges], t)
    row = np.concatenate([rows, rows, np.repeat(joint, 3), kink])
    u = np.concatenate([np.zeros(len(edges)), np.ones(len(edges)),
                        np.tile([0.25, 0.5, 0.75], len(joint)), u_kink])
    order = np.lexsort((u, row))
    row, u = row[order], u[order]
    cut = np.nonzero(row[1:] == row[:-1])[0]
    piece, u0, du = edges[row[cut]], u[cut], u[cut + 1] - u[cut]

    x, w = _BULK_X, _BULK_W
    e = ends[piece] - starts[piece]
    d = du[:, None] * e
    frac = u0 + x[:, None] * du
    pts = starts[piece] + frac[:, :, None] * e
    s, grad, _, kappa = calib.reference.query(pts.reshape(-1, 2), t)
    s, kappa = s.reshape(len(x), -1), kappa.reshape(len(x), -1)
    grad = grad.reshape(pts.shape)

    # bounds on |s| between consecutive points along each queried edge: its
    # start, the quadrature points of its pieces in order, its end
    pt_edge = np.concatenate([edges, np.repeat(piece, len(x)), edges])
    pt_u = np.concatenate([np.zeros(len(edges)), frac.T.ravel(), np.ones(len(edges))])
    pt_a = np.concatenate([a_vert[edges], np.abs(s).T.ravel(), a_vert[lay.nxt[edges]]])
    order = np.lexsort((pt_u, pt_edge))
    pt_edge, pt_u, pt_a = pt_edge[order], pt_u[order], pt_a[order]
    link = np.nonzero(pt_edge[1:] == pt_edge[:-1])[0]
    span = 0.5 * (pt_u[link + 1] - pt_u[link]) * h[pt_edge[link]]
    mid = 0.5 * (pt_a[link] + pt_a[link + 1])
    lo = np.full(curve.ncomponents, np.inf)
    hi = np.zeros(curve.ncomponents)
    np.minimum.at(lo, comp_of[pt_edge[link]], mid - span)
    np.maximum.at(hi, comp_of[pt_edge[link]], mid + span)

    clear = sure | (lo > 0)
    side = clear & ~encloses
    over = ~side & (hi >= 2.0 * delta)
    if np.any(over & clear):
        raise ReferenceEnclosed(f"component {np.argmax(over & clear)} encloses a reference "
                                f"component and reaches |s| = {hi[over & clear].max():.3g} "
                                f">= 2 delta = {2.0 * delta:.3g}")
    if np.any(over):
        raise BandExceeded(f"component {np.argmax(over)} may meet the reference and reaches "
                           f"|s| = {hi[over].max():.3g} >= 2 delta = {2.0 * delta:.3g}")
    sigma = np.sign(sample.s[lay.first])
    area = 0.5 * np.add.reduceat(starts[:, 0] * ends[:, 1] - ends[:, 0] * starts[:, 1],
                                 lay.first)
    total = delta * float(np.sum((sigma * area)[side]))

    # K(|s|, sigma kappa) = a0 + sigma kappa b0 - sigma delta (s + kappa s^2 / 2) + G(s, kappa)
    m1, m2 = profile.theta_moments(delta)
    a0, b0 = delta**2 - m1, 0.5 * delta**3 - m2
    m1, m2 = profile.theta_moments(s)
    g = m1 + kappa * m2
    on_side = side[comp_of[piece]]
    sig = sigma[comp_of[piece]]
    k_side = a0 + sig * kappa * b0 - sig * delta * (s + 0.5 * kappa * s * s) + g
    val = np.where(on_side, np.where(np.abs(s) < delta, k_side, 0.0), g)
    flux = val / (1.0 + s * kappa) * (grad[..., 0] * d[:, 1] - grad[..., 1] * d[:, 0])
    total += float(np.sum(w @ flux))

    # one probe 3 delta into the geometric inside of each reference loop
    probes = loops.point - 3.0 * delta * loops.orientation[:, None] * loops.normal
    band = ~side[comp_of]
    c = (crossing_parity(probes, starts[band], ends[band], comp_of[band], curve.ncomponents)
         @ orientation - 0.5 * (1.0 + loops.orientation))
    if np.any(c):
        # sigma_j delta |face| + the flux into the face, summed over the
        # loop and its children: o_j a0 L - b0 int kappa - delta A
        own = np.column_stack([loops.length, loops.area, loops.kappa_integral])
        face = own.copy()
        child = loops.parent >= 0
        np.add.at(face, loops.parent[child], own[child])
        length, signed, turn = face.T
        total += float(np.sum(c * (loops.orientation * a0 * length - b0 * turn
                                   - delta * signed)))
    return total


# ---------------------------------------------------------------------------
# dissipation functionals
# ---------------------------------------------------------------------------

@dataclass
class EnergyReport:
    t: float
    E: float
    F: float
    L: float
    A: float
    D_H: float
    D_V: float
    cross_v_xi: float        # int |d phi_V/ds - d(div xi)/ds|^2
    cross_xi: float          # int |d(div xi)/ds|^2
    cross_h_b: float         # int |d kappa/ds - d phi_(nu.B)/ds|^2
    verdicts: dict = field(default_factory=dict)

    def as_row(self):
        return [self.t, self.E, self.F, self.L, self.A, self.D_H, self.D_V,
                self.cross_v_xi, self.cross_xi, self.cross_h_b]


CSV_COLUMNS = ["t", "E", "F", "L", "A", "D_H", "D_V",
               "cross1", "cross2", "cross3", "verdicts"]


def dissipation_report(sample: TubeSample, calib: Calibration,
                       b_field, velocity: np.ndarray) -> EnergyReport:
    """Assemble the per-sample energy bookkeeping of a curve at ``sample.t``.

    ``sample`` holds the tube fields at the curve's vertices, and
    ``velocity`` is its stacked normal velocity.  ``b_field`` may be None
    for a stationary reference (B = 0).
    """
    t = sample.t
    geom = sample.geometry
    dkappa = dds(geom, geom.kappa)
    ddiv = dds(geom, sample.div_xi)
    phi_v = velocity_potential(geom, velocity - field_mean(geom, velocity)[geom.layout.comp])
    dphi = dds(geom, phi_v)
    d_v = np.sum(integrate(geom, dphi**2))
    cross_v_xi = np.sum(integrate(geom, (dphi - ddiv)**2))
    # B = 0 for a stationary reference, so phi_(nu.B) = 0
    dphib = 0.0 if b_field is None else dds(
        geom, nu_dot_B_potential(geom, b_field.at(geom.vertices)))
    return EnergyReport(t=float(t), E=relative_energy(sample),
                        F=bulk_error(sample, calib),
                        L=float(sum(geom.length)), A=float(sum(geom.area)),
                        D_H=float(np.sum(integrate(geom, dkappa**2))), D_V=float(d_v),
                        cross_v_xi=float(cross_v_xi),
                        cross_xi=float(np.sum(integrate(geom, ddiv**2))),
                        cross_h_b=float(np.sum(integrate(geom, (dkappa - dphib)**2))))


# ---------------------------------------------------------------------------
# Gronwall fit
# ---------------------------------------------------------------------------

@dataclass
class GronwallResult:
    c_fit: float
    c_integral: float
    verdict: str
    initial: float
    series: list


GRONWALL_C_MAX = 1e3    # the largest Gronwall constant a PASS may fit


def gronwall_verdict(reports: list[EnergyReport], floor: float = 1e-7) -> GronwallResult:
    """Smallest C with E+F <= C exp(Ct) (E0+F0) and the integral form.

    Both the exponential and the trapezoidal integral form must hold at
    every sample for the fitted C; the verdict is PASS when such a finite C
    exists below GRONWALL_C_MAX.  The t=0 sample forces the literal
    exponential form to C >= 1, so the integral-form constant (zero for a
    nonincreasing series) is reported separately.  A start at the quadrature floor with
    later growth beyond it falsifies uniqueness and raises
    DegenerateInitialData.
    """
    if len(reports) < 10:
        raise ValueError("need at least 10 samples for a Gronwall fit")
    t = np.array([r.t for r in reports])
    s = np.array([r.E + r.F for r in reports])
    s0 = s[0]
    if s0 <= floor:
        if np.any(s > 10.0 * floor):
            raise DegenerateInitialData(
                f"E+F started at {s0:.2e} but reached {s.max():.2e}"
            )
        return GronwallResult(c_fit=0.0, c_integral=0.0, verdict="PASS-TRIVIAL",
                              initial=float(s0), series=list(map(float, s)))

    cum = np.concatenate([[0.0], np.cumsum(0.5 * (s[1:] + s[:-1]) * np.diff(t))])
    with np.errstate(divide="ignore"):
        c_int = float(np.max((s[1:] - s0) / np.maximum(cum[1:], 1e-300)))
    c_int = max(0.0, c_int)

    def ok(c):
        with np.errstate(over="ignore"):
            if np.any(s > c * np.exp(c * t) * s0 + 1e-30):
                return False
        return not np.any(s - s0 > c * cum + 1e-30)

    lo_c, hi_c = 0.0, GRONWALL_C_MAX
    if not ok(hi_c):
        return GronwallResult(c_fit=np.inf, c_integral=c_int, verdict="FAIL",
                              initial=float(s0), series=list(map(float, s)))
    for _ in range(60):
        mid = 0.5 * (lo_c + hi_c)
        if ok(mid):
            hi_c = mid
        else:
            lo_c = mid
    return GronwallResult(c_fit=float(hi_c), c_integral=c_int, verdict="PASS",
                          initial=float(s0), series=list(map(float, s)))


# ---------------------------------------------------------------------------
# component-wise boundary flux and the two nu . B sum inequalities
# ---------------------------------------------------------------------------

def edge_flux(vector_field, geom: CurveGeometry) -> np.ndarray:
    """int nu . B over each component, with 4-point Gauss per edge.

    ``vector_field`` is called once, on the Gauss points of every edge of
    every component.  Per-edge quadrature makes the divergence theorem exact
    for constant fields (the rotated edge vectors telescope), which the
    checkers rely on.
    """
    starts, ends, _, _ = geom.curve.segments
    e = ends - starts
    elen = geom.edge_lengths
    nu_e = np.column_stack([e[:, 1], -e[:, 0]]) / elen[:, None]
    pts = starts + _G4X[:, None, None] * e
    vals = np.reshape(vector_field(np.reshape(pts, (-1, 2))), pts.shape)
    per_edge = elen * np.sum(nu_e * vals, axis=2)
    return _G4W @ np.add.reduceat(per_edge, geom.layout.first, axis=1)


@dataclass
class NuDotBReport:
    sum_abs: float
    sum_scaled: float
    slack_abs: float
    slack_scaled: float
    hypothesis_failures: int


def nu_dot_B_sums(geom: CurveGeometry, b_field, calib: Calibration,
                  xi_grad_bound: float, f_value: float, e_value: float) -> NuDotBReport:
    """Check both component-flux inequalities with the constructive constants.

    First: sum_i |int nu . B| <= (2R/delta) ||div B||_inf F.  Second: the
    length-normalized sum is bounded by the same quantity times ||B||_inf
    plus 34 ||div B||_inf E, splitting components at length 1/||B||_inf.
    Components failing the diameter hypothesis of the small-component bound
    (``xi_grad_bound`` is sup |grad xi|) are counted in
    ``hypothesis_failures``, but no run reports the count: a run reads only
    the two slacks.
    """
    fluxes = edge_flux(b_field.at, geom)
    lengths = geom.length
    sum_abs = float(np.sum(np.abs(fluxes)))
    sum_scaled = float(np.sum(np.abs(fluxes) / lengths))

    r_supp = b_field.support_radius
    div_sup = b_field.div_sup
    sup_b = b_field.sup_norm
    bound_abs = (2.0 * r_supp / calib.delta) * div_sup * f_value

    small = np.flatnonzero(lengths <= 1.0 / sup_b) if sup_b > 0 else []
    hyp_fail = (int(np.sum(geom.curve.diameters[small] > 1.0 / (2.0 * xi_grad_bound)))
                if len(small) else 0)
    bound_scaled = sup_b * bound_abs + 34.0 * div_sup * e_value

    # 4-point Gauss flux error floor for analytic integrands
    quadrature_floor = 1e-9 * max(sup_b, 1.0) * float(np.sum(lengths))
    return NuDotBReport(
        sum_abs=sum_abs, sum_scaled=sum_scaled,
        slack_abs=bound_abs - sum_abs + quadrature_floor,
        slack_scaled=bound_scaled - sum_scaled + quadrature_floor,
        hypothesis_failures=hyp_fail,
    )


# ---------------------------------------------------------------------------
# small-component area bound with the explicit constant 34
# ---------------------------------------------------------------------------

def small_component_area_check(sample: TubeSample, xi_grad_bound: float) -> float:
    """The least slack 34 int (1 - xi . nu) - length over the components small
    against 1/(2|grad xi|), inf when none is."""
    geom = sample.geometry
    applicable = (np.ones(len(geom.length), dtype=bool) if xi_grad_bound <= 0.0
                  else geom.curve.diameters <= 1.0 / (2.0 * xi_grad_bound))
    return float(np.min(34.0 * sample.tilt[applicable] - geom.length[applicable],
                        initial=np.inf))


# ---------------------------------------------------------------------------
# stationary-reference gradient bound
# ---------------------------------------------------------------------------

def require_constant_curvature(geom: CurveGeometry) -> None:
    """Raise NonStationaryReference unless the curvature is constant per component."""
    first = geom.layout.first
    grad = np.maximum.reduceat(np.abs(dds(geom, geom.kappa)), first)
    if np.any(grad > 1e-3 * np.maximum(1.0, np.maximum.reduceat(np.abs(geom.kappa), first))):
        raise NonStationaryReference("reference curvature is not constant per component")


def stationary_gradient_ratio(report: EnergyReport, calib: Calibration) -> float:
    """int |d(div xi)/ds|^2 over E for a stationary reference, from one report.

    The bound with a reference-only constant needs the reference curvature
    gradient to vanish; circles qualify, anything else is rejected.
    """
    ref = calib.reference
    if not isinstance(ref, AnalyticCircles):
        if not ref.stationary:
            raise NonStationaryReference("reference evolves in time")
        require_constant_curvature(ref.geometry_at(report.t))
    return report.cross_xi / report.E if report.E > 0 else 0.0


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def reports_to_csv(reports: list[EnergyReport], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in reports:
            flags = ";".join(f"{k}={v}" for k, v in sorted(r.verdicts.items()))
            writer.writerow([repr(float(x)) for x in r.as_row()] + [flags])
