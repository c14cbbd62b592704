import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import extension_oracle as oracle
from surfdiff import extension as ex
from surfdiff import flow as fl
from surfdiff import geometry as geo
from surfdiff.errors import NonZeroMean, RankDeficient

from conftest import gmres_steps, vertex_angles
from geometry_oracle import parts


def _disk_field(k: int, n: int = 128, delta: float = 0.25):
    """B field for the harmonic family: V* = cos(k theta) on the unit circle
    gives the interior potential rho^k cos(k theta) / k."""
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0, n)])
    geom = geo.build_geometry(curve)
    return ex.build_B(geom, np.cos(k * vertex_angles(geom)), delta), curve, geom


@pytest.fixture(scope="module")
def disk_cos1():
    return _disk_field(1)[0]


@pytest.fixture(scope="module")
def disk_cos2():
    return _disk_field(2)[0]


def test_boundary_condition_sup(disk_cos1):
    assert disk_cos1.bc_residual <= 1e-2


def test_boundary_condition_order_under_doubling():
    residuals = []
    for n in (64, 128, 256):
        field, _, _ = _disk_field(1, n=n)
        residuals.append(field.bc_residual)
    assert residuals[0] / residuals[1] >= 2.5
    assert residuals[1] / residuals[2] >= 2.5


def test_interior_field_matches_harmonic_gradient(disk_cos1):
    # phi = x, B = e1 inside the disk
    pts = np.array([[0.0, 0.0], [0.5, 0.3], [-0.4, -0.2], [0.8, 0.0],
                    [0.0, -0.85], [0.97, 0.0], [0.0, 1.02]])
    vals = disk_cos1.at(pts)
    assert np.max(np.abs(vals - np.array([1.0, 0.0]))) <= 1e-2


def test_interior_field_cos2(disk_cos2):
    # phi = rho^2 cos(2 theta)/2 = (x^2 - y^2)/2, B = (x, -y)
    pts = np.array([[0.3, 0.2], [0.5, -0.5], [0.0, 0.0], [0.9, 0.1]])
    exact = np.column_stack([pts[:, 0], -pts[:, 1]])
    assert np.max(np.abs(disk_cos2.at(pts) - exact)) <= 1e-2


def test_zero_velocity_zero_field():
    geom = geo.build_geometry(geo.PolyCurve([geo.make_circle((0, 0), 1.0, 128)]))
    field = ex.build_B(geom, np.zeros(128), 0.25)
    pts = np.array([[0.5, 0.2], [1.01, 0.0], [1.4, 0.3], [3.0, 0.0]])
    assert np.max(np.abs(field.at(pts))) == 0.0


def test_compatibility_rejection():
    geom = geo.build_geometry(geo.PolyCurve([geo.make_circle((0, 0), 1.0, 128)]))
    with pytest.raises(NonZeroMean):
        ex.build_B(geom, np.cos(vertex_angles(geom)) + 0.1, 0.25)


def test_singular_density_system_is_rank_deficient(monkeypatch):
    # a zero Nystrom block leaves only the border: the bordered system is singular
    geom = geo.build_geometry(geo.PolyCurve([geo.make_circle((0, 0), 1.0, 16)]))
    monkeypatch.setattr(ex, "_neumann_system", lambda g, a: a.fill(0.0))
    with pytest.raises(RankDeficient, match="singular"):
        ex._solve_density(geom, np.cos(vertex_angles(geom)))


@pytest.mark.parametrize("fault", ["stall", "zero Arnoldi vector", "step cap"])
def test_gmres_failures_raise_rank_deficient_without_a_floating_point_error(fault,
                                                                           monkeypatch):
    # a zero Nystrom block stalls GMRES at the first step, an all-zero system
    # has a zero Arnoldi vector, and two steps do not solve an ellipse's
    # system: each is RankDeficient, and no step divides by zero
    geom = geo.build_geometry(geo.PolyCurve([_component(0, "ellipse", 64, 1.0)]))
    if fault == "stall":
        monkeypatch.setattr(ex, "_neumann_system", lambda g, a: a.fill(0.0))
    elif fault == "zero Arnoldi vector":
        monkeypatch.setattr(ex, "_bordered_system", lambda g: np.zeros((65, 65), order="F"))
    else:
        monkeypatch.setattr(ex, "GMRES_MAX_ITER", 2)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        with pytest.raises(RankDeficient, match=f"singular: .*{fault.split()[-1]}"):
            ex._solve_density(geom, _mode_velocities(geom, [2]))


def test_far_field_vanishes(disk_cos1):
    far = disk_cos1.support_radius * 1.01
    pts = np.array([[far, 0.0], [0.0, -far]])
    assert np.max(np.abs(disk_cos1.at(pts))) == 0.0
    assert disk_cos1.support_radius == pytest.approx(2.0 + 10 * 0.25, rel=1e-2)


def test_points_beyond_inflated_box_skip_the_query(disk_cos1, monkeypatch):
    # beyond the vertex bounding box inflated by 2.5 delta, B and div B are
    # exact zeros and the points never reach the closest-segment query
    field = disk_cos1
    seen = []
    signed = field.geometry.index.signed

    def recording(points):
        seen.append(np.array(points))
        return signed(points)

    monkeypatch.setattr(field.geometry.index, "signed", recording)
    pad = 2.5 * field.delta
    rng = np.random.default_rng(11)
    ang = rng.uniform(0.0, 2.0 * np.pi, 200)
    # outside the box [-1 - pad, 1 + pad]^2, some inside the support disk
    rad = (1.0 + pad) * np.sqrt(2.0) + rng.uniform(1e-9, 3.0, 200)
    beyond = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    beyond[:4] = [[1.0 + pad + 1e-12, 0.0], [0.0, -1.0 - pad], [-1.0 - pad - 1e-9, 0.3],
                  [0.2, 1.0 + 1.5 * pad]]
    inside = np.array([[0.0, 0.0], [1.0 + 2.2 * field.delta, 0.0], [0.7, 0.7]])
    b, div = field.at_and_div(np.vstack([beyond, inside]))
    assert not np.any(b[:len(beyond)]) and not np.any(div[:len(beyond)])
    assert not np.any(field.at(beyond))
    assert len(seen) == 1 and np.array_equal(seen[0], inside)
    # beyond 2 delta outside the curve the field is zero inside the box too
    assert not np.any(b[-2])


def test_interior_divergence_harmonic(disk_cos1):
    delta = disk_cos1.delta
    # interior points at distance >= delta/4 from the boundary
    pts = np.array([[1 - delta / 4, 0.0], [0.5, 0.5], [0.0, 0.0],
                    [0.0, -(1 - delta / 2)]])
    assert np.max(np.abs(disk_cos1.divergence(pts))) <= 1e-6


def test_divergence_decay_profile(disk_cos1):
    slope, ratio = oracle.divergence_decay_profile(disk_cos1)
    assert np.isfinite(slope) and np.isfinite(ratio)
    # outward rays live in the tube extension: div = O(dist) with a small
    # constant for this construction
    assert ratio <= 0.1
    assert abs(slope) <= 0.05


def test_divergence_zero_field():
    geom = geo.build_geometry(geo.PolyCurve([geo.make_circle((0, 0), 1.0, 128)]))
    field = ex.build_B(geom, np.zeros(128), 0.25)
    slope, ratio = oracle.divergence_decay_profile(field)
    assert slope == 0.0 and ratio == 0.0
    b, div = field.at_and_div(_band_points(field))
    assert not np.any(b) and not np.any(div)


def test_field_constants_reported(disk_cos1):
    assert 0.9 <= disk_cos1.sup_norm <= 1.2
    assert np.isfinite(disk_cos1.lipschitz)
    assert disk_cos1.div_sup < 20.0


def test_lipschitz_stable_under_refinement():
    lips = []
    for n in (64, 128):
        field, _, _ = _disk_field(1, n=n)
        lips.append(field.lipschitz)
    assert abs(lips[1] - lips[0]) <= 0.5 * max(lips)


# ---------------------------------------------------------------------------
# trivial extension
# ---------------------------------------------------------------------------

def test_bbar_matches_B_on_reference(disk_cos1, circle_calibration):
    pts = np.column_stack([np.cos([0.3, 1.1]), np.sin([0.3, 1.1])])
    bbar = oracle.trivial_extension_Bbar(circle_calibration, disk_cos1, pts)
    direct = disk_cos1.at(pts)
    assert np.max(np.abs(bbar - direct)) <= 1e-10


def test_bbar_vanishes_beyond_double_tube(disk_cos1, circle_calibration):
    pts = np.array([[1.0 + 2.1 * 0.25, 0.0], [3.0, 3.0]])
    assert np.max(np.abs(oracle.trivial_extension_Bbar(
        circle_calibration, disk_cos1, pts))) == 0.0


def test_bbar_normal_component_is_velocity(disk_cos1, circle_calibration):
    ang = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    pts = np.column_stack([1.08 * np.cos(ang), 1.08 * np.sin(ang)])
    s, grad, foot, _ = circle_calibration.reference.query(pts)
    bbar = oracle.trivial_extension_Bbar(circle_calibration, disk_cos1, pts)
    v_foot = np.cos(np.arctan2(foot[:, 1], foot[:, 0]))
    assert np.max(np.abs(np.sum(bbar * grad, axis=1) - v_foot)) <= 1e-3


def test_b_minus_bbar_linear_in_distance(disk_cos2, circle_calibration):
    # |B - Bbar| <= C |s|: fit the constant along outward rays
    angles = np.linspace(0.2, 2 * np.pi, 8, endpoint=False)
    dists = np.array([0.02, 0.05, 0.1, 0.2])
    ratios = []
    for ang in angles:
        direction = np.array([np.cos(ang), np.sin(ang)])
        for d in dists:
            p = ((1 + d) * direction)[None, :]
            diff = np.linalg.norm(
                disk_cos2.at(p) - oracle.trivial_extension_Bbar(
                    circle_calibration, disk_cos2, p))
            ratios.append(diff / d)
    assert np.max(ratios) <= 5.0          # finite fitted constant
    assert np.median(ratios) <= 3.0


# ---------------------------------------------------------------------------
# reference potentials
# ---------------------------------------------------------------------------

def test_star_potential_stationary_zero(circle_calibration):
    geom = geo.build_geometry(geo.PolyCurve([geo.make_circle((0, 0), 1.0, 128)]))
    field = ex.build_B(geom, np.zeros(128), 0.25)
    sp = oracle.star_potentials(geom, circle_calibration, field, np.zeros(128))
    assert np.max(np.abs(sp.phi)) <= 1e-14
    pts = np.array([[1.05, 0.0], [0.5, 0.5]])
    assert np.max(np.abs(sp.extension_at(pts))) <= 1e-14


def test_star_potential_cos2(disk_cos2, circle_calibration):
    geom = disk_cos2.geometry
    theta = vertex_angles(geom)
    sp = oracle.star_potentials(geom, circle_calibration, disk_cos2, np.cos(2 * theta))
    assert np.max(np.abs(sp.phi + np.cos(2 * theta) / 4)) <= 1e-3


def test_chain_rule_identity_refines_second_order(circle_calibration):
    residuals = []
    ang = np.linspace(0, 2 * np.pi, 40, endpoint=False)
    pts = np.column_stack([1.06 * np.cos(ang), 1.06 * np.sin(ang)])
    for n in (64, 128, 256):
        field, _, geom = _disk_field(2, n=n)
        v = np.cos(2 * vertex_angles(geom))
        sp = oracle.star_potentials(geom, circle_calibration, field, v)
        residuals.append(sp.chain_rule_residual(pts))
    assert residuals[0] / residuals[1] >= 2.5
    assert residuals[1] / residuals[2] >= 2.5


# ---------------------------------------------------------------------------
# closedness of the wedge flux
# ---------------------------------------------------------------------------

def test_wedge_zero_field(circle_calibration):
    geom = geo.build_geometry(geo.PolyCurve([geo.make_circle((0, 0), 1.0, 128)]))
    field = ex.build_B(geom, np.zeros(128), 0.25)
    wavy = geo.build_geometry(geo.PolyCurve([geo.make_wavy_circle(1.0, 0.05, 3, 256)]))
    assert oracle.gauss_wedge_residual(wavy, field, circle_calibration) == 0.0


def test_wedge_constant_fields_identically_zero():
    # all four terms carry a derivative of B or xi: constant fields vanish
    class ConstantField:
        support_radius = 100.0

        def at(self, pts):
            return np.tile([0.7, -0.2], (len(np.atleast_2d(pts)), 1))

        def divergence(self, pts, h=None):
            return np.zeros(len(np.atleast_2d(pts)))

    def flat_query(pts, t=0.0):
        n = len(np.atleast_2d(pts))
        return np.zeros(n), np.tile([0.0, 0.4], (n, 1)), None, np.zeros(n)

    class ConstantCalib:
        # s = 0 and a flat level set everywhere: xi = zeta(0) grad s = (0, 0.4)
        delta = 0.25
        profile = SimpleNamespace(zeta=np.ones_like, zeta_prime=np.zeros_like)
        reference = SimpleNamespace(query=flat_query)

    geom = geo.build_geometry(geo.PolyCurve([geo.make_wavy_circle(1.0, 0.1, 5, 128)]))
    res = oracle.gauss_wedge_residual(geom, ConstantField(), ConstantCalib())
    assert res <= 1e-12


def test_wedge_residual_small_and_refining(disk_cos1, circle_calibration):
    residuals = []
    for n in (128, 256, 512):
        geom = geo.build_geometry(geo.PolyCurve([geo.make_wavy_circle(1.0, 0.05, 3, n)]))
        residuals.append(oracle.gauss_wedge_residual(geom, disk_cos1, circle_calibration))
    assert residuals[-1] <= 1e-2
    assert residuals[0] <= 1e-1


def _grad_potential_dense(sources, charges, points):
    """Real-arithmetic double sum of -q_j/(2 pi) (x - w_j)/|x - w_j|^2."""
    rel = points[:, None, :] - sources[None, :, :]
    r2 = np.maximum(np.sum(rel * rel, axis=2), 1e-300)
    coef = -(charges / (2.0 * np.pi))[None, :] / r2
    return np.sum(coef[:, :, None] * rel, axis=1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grad_potential_matches_dense_sum(seed):
    rng = np.random.default_rng(seed)
    sources = rng.uniform(-1.0, 1.0, (1024, 2))
    charges = rng.normal(size=1024)
    # more points than one row block (2**14 // 1024 = 16 rows), some within
    # 1e-3 of a source
    near = sources[rng.integers(0, 1024, 200)] + rng.uniform(-7e-4, 7e-4, (200, 2))
    points = np.vstack([rng.uniform(-1.5, 1.5, (1400, 2)), near])
    fake = SimpleNamespace(fine_points=sources, fine_charge=charges)
    got = ex.BField._grad_potential(fake, points)
    want = _grad_potential_dense(sources, charges, points)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.linalg.norm(want, axis=1))


def _batch_points(rng, count):
    """Points inside, across and outside the unit disk's tube, in random order."""
    rad = np.concatenate([rng.uniform(0.0, 0.95, count // 2),
                          rng.uniform(0.95, 1.6, count - count // 2)])
    ang = rng.uniform(0.0, 2.0 * np.pi, count)
    return rng.permutation(np.column_stack([rad * np.cos(ang), rad * np.sin(ang)]))


@pytest.mark.parametrize("seed", [0, 1])
def test_b_does_not_depend_on_its_batch(disk_cos1, seed):
    # 4096 fine sources give row blocks of 4 points; 203 points, half of
    # them deep inside where the far field runs, fill many blocks and end in
    # a partial one
    rng = np.random.default_rng(seed)
    points = _batch_points(rng, 203)
    cuts = np.sort(rng.choice(np.arange(1, len(points)), 4, replace=False))
    subsets = np.split(rng.permutation(len(points)), cuts)
    assert len(disk_cos1.fine_points) == 4096
    stacked_b = disk_cos1.at(points)
    stacked_b2, stacked_div = disk_cos1.at_and_div(points)
    assert np.array_equal(stacked_b, stacked_b2)
    for sub in subsets:
        assert np.array_equal(disk_cos1.at(points[sub]), stacked_b[sub])
        b, div = disk_cos1.at_and_div(points[sub])
        assert np.array_equal(b, stacked_b[sub])
        assert np.array_equal(div, stacked_div[sub])


# ---------------------------------------------------------------------------
# row-block kernels against their dense pairwise oracles
# ---------------------------------------------------------------------------

def _component(k: int, kind: str, n: int, radius: float):
    """Component k, 5 apart along the x axis, nodes uniform in arc length.

    An ellipse of radius 1 spans 4 along x, so 5 keeps neighbours apart.

    Uniform nodes, as the flow leaves them, keep every spline midpoint of the
    boundary residual half an edge from the nodes; a midpoint next to a node
    costs both the block kernel and its oracle their last digits.
    """
    center = (5.0 * k, 0.0)
    if kind == "circle":
        comp = geo.make_circle(center, radius, n)
    elif kind == "ellipse":
        comp = geo.make_ellipse(2.0 * radius, radius, n, center=center)
    else:
        comp = geo.make_wavy_circle(radius, 0.2, 3, n, center=center)
    return fl._resample_uniform(comp, [n], passes=4)


def _mode_velocities(geom, modes):
    """Zero-mean cos(mode * angle about the component's centroid) per component, stacked."""
    vals = np.empty(len(geom.weights))
    for part, mode in zip(parts(geom), modes):
        rel = geom.vertices[part] - geom.vertices[part].mean(axis=0)
        vals[part] = np.cos(mode * np.arctan2(rel[:, 1], rel[:, 0]))
    return vals - geo.field_mean(geom, vals)[geom.layout.comp]


def _on_forests(test):
    """Run ``test`` on forests of up to four components, (kind, vertices,
    radius, velocity mode) each, among them K >= 2 references."""
    test = example([("circle", 8, 1.0, 1), ("ellipse", 19, 0.01, 1)])(test)
    test = example([("ellipse", 512, 1.0, 2)] + [("circle", 24, 0.01, 1)] * 3)(test)
    test = given(st.lists(st.tuples(st.sampled_from(["circle", "ellipse", "wavy"]),
                                    st.integers(8, 64), st.floats(0.01, 1.0),
                                    st.integers(1, 5)),
                          min_size=1, max_size=4))(test)
    return settings(max_examples=15, deadline=None, database=None)(test)


@_on_forests
def test_block_kernels_match_dense_oracles(specs):
    curve = geo.PolyCurve([_component(k, kind, n, r)
                           for k, (kind, n, r, _) in enumerate(specs)])
    geom = geo.build_geometry(curve)
    v = _mode_velocities(geom, [mode for *_, mode in specs])
    field = ex.build_B(geom, v, 0.25 * min(r for _, _, r, _ in specs))
    m = len(geom.weights)
    a = ex._bordered_system(geom)[:m, :m]
    a_ref, _ = oracle.neumann_system(geom)
    assert np.max(np.abs(a - a_ref)) <= 1e-13 * np.max(np.abs(a_ref))
    phi = ex._surface_potential(geom, field.density)
    phi_ref = oracle.surface_potential(geom, field.density)
    assert np.max(np.abs(phi - phi_ref)) <= 1e-13 * np.max(np.abs(phi_ref))
    # the residual is a small difference of fluxes of the size of V*, so
    # it is compared relative to V*
    res_ref = oracle.midpoint_bc_residual(field, v)
    v_sup = np.max(np.abs(v))
    assert abs(ex._midpoint_bc_residual(field, v) - res_ref) <= 1e-13 * v_sup


@_on_forests
def test_bordered_system_matches_two_array_assembly(specs):
    # the Nystrom block written in place through source-column blocks is bit
    # for bit the target-row matrix copied in; GMRES solves it to rounding
    # level, and its density and mu agree with the dense LU solution
    curve = geo.PolyCurve([_component(k, kind, n, r)
                           for k, (kind, n, r, _) in enumerate(specs)])
    geom = geo.build_geometry(curve)
    v = _mode_velocities(geom, [mode for *_, mode in specs])
    system = ex._bordered_system(geom)
    assert system.flags.f_contiguous
    assert np.array_equal(system, oracle.bordered_system(geom))
    q, mu = ex._solve_density(geom, v)
    rhs = np.concatenate([v, np.zeros(len(mu))])
    assert np.max(np.abs(system @ np.concatenate([q, mu]) - rhs)) <= 1e-13 * np.max(np.abs(v))
    # mu vanishes to rounding for compatible data, so both compare on the
    # density's scale
    q_ref, mu_ref = oracle.solve_density(geom, v)
    scale = np.max(np.abs(q_ref))
    assert np.max(np.abs(q - q_ref)) <= 1e-12 * scale
    assert np.max(np.abs(mu - mu_ref)) <= 1e-12 * scale


@pytest.mark.parametrize("n", [256, 512, 1024, 2048])
def test_gmres_steps_do_not_grow_with_the_ellipse(n, monkeypatch):
    # a second-kind system: the step count is bounded as the nodes refine
    steps = gmres_steps(monkeypatch)
    geom = geo.build_geometry(geo.PolyCurve([_component(0, "ellipse", n, 1.0)]))
    ex._solve_density(geom, _mode_velocities(geom, [2]))
    assert len(steps) == 1 and 1 <= steps[0] <= 20


def test_build_B_holds_one_dense_matrix():
    # the bordered (n + 1)^2 system is the only dense array of a build: the
    # Nystrom block is not formed apart from it and copied in
    n = 1024
    geom = geo.build_geometry(geo.PolyCurve([_component(0, "ellipse", n, 1.0)]))
    v = _mode_velocities(geom, [2])
    ex.build_B(geom, v, 0.125)      # the geometry's lazy fields, built once
    tracemalloc.start()
    try:
        ex.build_B(geom, v, 0.125)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * 8 * (n + 1) ** 2


@pytest.mark.parametrize("specs", [
    [("circle", 128, 1.0, 1)],
    [("ellipse", 512, 1.0, 2)] + [("circle", 24, 0.01, 1)] * 3,
    [("wavy", 64, 0.5, 3), ("ellipse", 19, 0.2, 1)],
])
def test_field_constants_match_three_call_oracle(specs):
    curve = geo.PolyCurve([_component(k, kind, n, r)
                           for k, (kind, n, r, _) in enumerate(specs)])
    geom = geo.build_geometry(curve)
    v = _mode_velocities(geom, [mode for *_, mode in specs])
    field = ex.build_B(geom, v, 0.25 * min(r for _, _, r, _ in specs))
    want = oracle.field_constants(field)
    assert (field.div_sup, field.sup_norm, field.lipschitz) == want
    assert ex._field_constants(field) == want


def test_midpoint_residual_on_parameter_uniform_nodes():
    # a parameter-uniform 37-gon ellipse puts an arc-uniform midpoint
    # 2.5e-8 from a node; midpoints at the arc centre of each edge read the
    # same residual as the arc-uniform copy of that component
    others = [_component(1, "circle", 24, 0.3), _component(2, "wavy", 40, 0.5),
              _component(3, "circle", 16, 0.05)]
    first = geo.make_ellipse(0.1012, 0.0506, 37)
    residuals = []
    for comp in (first, fl._resample_uniform(first, [37], passes=4)):
        curve = geo.PolyCurve([comp] + others)
        geom = geo.build_geometry(curve)
        v = _mode_velocities(geom, [2, 1, 3, 1])
        field = ex.build_B(geom, v, 0.25 * 0.0506)
        residuals.append(field.bc_residual)
        v_sup = np.max(np.abs(v))
        assert abs(field.bc_residual - oracle.midpoint_bc_residual(field, v)) <= 1e-13 * v_sup
    assert residuals[0] <= 0.05
    assert residuals[0] <= 1.5 * residuals[1]


def test_interior_blend_continuous_past_the_tube_band():
    # delta = 0.0025 on a 64-gon: 2 near_cut (9.2e-3) reaches past 2.5 delta,
    # and the interior blend keeps its smooth foot along the whole ray
    field, _, geom = _disk_field(1, n=64, delta=0.0025)
    assert 2.0 * field.near_cut > 2.5 * field.delta
    s = -np.linspace(0.0055, 0.0075, 41)
    pts = geom.vertices[0] + s[:, None] * geom.nu[0]
    b, div = field.at_and_div(pts)
    assert np.max(np.abs(np.diff(b[:, 0]))) <= 1e-4
    assert np.max(np.abs(b[:, 0] - 1.0)) <= 1e-3
    assert np.max(np.abs(div - field.divergence(pts))) <= 1e-5


# ---------------------------------------------------------------------------
# exact divergence against the Richardson quotient
# ---------------------------------------------------------------------------

def _divergence_case(name):
    if name.startswith("cos"):
        return _disk_field(int(name[3:]))[0]
    if name == "ellipse-flow":
        # the surface diffusion velocity d^2 kappa / ds^2 of a 2:1 ellipse
        geom = geo.build_geometry(geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 256)]))
        vals = geo.d2ds2(geom, geom.kappa)
        return ex.build_B(geom, vals - geo.field_mean(geom, vals), 0.25)
    geom = geo.build_geometry(geo.PolyCurve([geo.make_ellipse(1.0, 0.5, 192),
                                             geo.make_circle((2.5, 0.0), 0.5, 128)]))
    return ex.build_B(geom, _mode_velocities(geom, [2, 3]), 0.25)


def _band_points(field, n_rays: int = 16):
    """Rays across the near cut, the tube edge delta and the damping band."""
    delta, cut = field.delta, field.near_cut
    dists = [-0.5 * delta, -2.5 * cut, -1.8 * cut, -1.5 * cut, -1.2 * cut, -0.5 * cut,
             0.1 * delta, 0.5 * delta, 0.95 * delta, delta, 1.05 * delta,
             1.5 * delta, 1.9 * delta, 1.99 * delta, 2.1 * delta]
    return ex._normal_rays(field.geometry, n_rays, dists)


@pytest.mark.parametrize("case", ["cos1", "cos2", "cos3", "ellipse-flow", "two-component"])
def test_exact_divergence_matches_richardson(case):
    field = _divergence_case(case)
    pts = _band_points(field)
    b, div = field.at_and_div(pts)
    np.testing.assert_array_equal(b, field.at(pts))
    h = 2e-5
    rich = field.divergence(pts, h)
    # rich is fourth order in h: |rich(h) - rich(2h)| bounds its error
    trunc = np.abs(rich - field.divergence(pts, 2.0 * h))
    scale = np.max(np.abs(div))
    resolved = trunc < 1e-7 * scale
    assert np.mean(resolved) >= 0.9
    assert np.max(np.abs(div - rich)[resolved]) <= 1e-6 * scale
