import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from surfdiff import geometry as geo
from surfdiff import poisson as po
from surfdiff.errors import NonZeroMean, SingularSystem

import poisson_oracle
from conftest import jittered_loop, vertex_angles


def _graded_circle(n, jitter=0.3):
    u = 2 * np.pi * np.arange(n) / n
    th = u + jitter * np.sin(u)
    return geo.build_geometry(geo.PolyCurve([
        geo.Component(np.column_stack([np.cos(th), np.sin(th)]), 1)]))[0]


def test_manufactured_cos3(unit_circle_256):
    _, caches = unit_circle_256
    cache = caches[0]
    theta = vertex_angles(cache)
    sol = po.solve_zero_average([cache], [geo.VertexField(0, np.cos(3 * theta))])[0]
    err = np.sqrt(geo.integrate(cache, (sol.solution.values + np.cos(3 * theta) / 9) ** 2))
    assert err <= 1e-3
    assert abs(geo.field_mean(cache, sol.solution.values)) <= 1e-10 * max(
        1.0, np.abs(sol.solution.values).max())


def test_zero_rhs_gives_zero(unit_circle_256):
    _, caches = unit_circle_256
    sol = po.solve_zero_average([caches[0]], [geo.VertexField(0, np.zeros(caches[0].n))])[0]
    assert np.max(np.abs(sol.solution.values)) <= 1e-14


@pytest.mark.parametrize("radius,k", [(2.0, 2), (0.5, 4), (3.0, 1)])
def test_scaled_circle_eigenfunctions(radius, k):
    # oracle via symbolic differentiation: phi = -R^2/k^2 cos(k theta)
    # satisfies d^2 phi / ds^2 = cos(k theta) with s = R theta
    import sympy as sp

    th, R = sp.symbols("theta R", positive=True)
    phi = -R**2 / k**2 * sp.cos(k * th)
    assert sp.simplify(sp.diff(phi, th, 2) / R**2 - sp.cos(k * th)) == 0

    n = 256
    curve = geo.PolyCurve([geo.make_circle((0, 0), radius, n)])
    cache = geo.build_geometry(curve)[0]
    theta = vertex_angles(cache)
    sol = po.solve_zero_average([cache], [geo.VertexField(0, np.cos(k * theta))])[0]
    exact = -radius**2 / k**2 * np.cos(k * theta)
    err = np.sqrt(geo.integrate(cache, (sol.solution.values - exact) ** 2))
    assert err <= 5e-3 * radius**2 / k**2 * np.sqrt(cache.length)


def test_residual_contract(unit_circle_256):
    _, caches = unit_circle_256
    cache = caches[0]
    rng = np.random.default_rng(0)
    sol = po.solve_zero_average([cache], [geo.VertexField(0, rng.normal(size=cache.n))])[0]
    assert sol.residual_norm <= 1e-9 * np.sqrt(geo.integrate(
        cache, sol.rhs.values**2))


def test_velocity_potential_double_solve_identity():
    # V = d^2 kappa/ds^2 on a wavy curve: phi_V recovers kappa - <kappa>,
    # verified through the discrete second-derivative oracle
    cache = geo.build_geometry(
        geo.PolyCurve([geo.make_wavy_circle(1.0, 0.03, 3, 256)]))[0]
    v_vals = geo.d2ds2(cache, cache.kappa)
    phi = po.velocity_potential([cache], [geo.VertexField(0, v_vals)])[0]
    expected = cache.kappa - geo.field_mean(cache, cache.kappa)
    err = np.sqrt(geo.integrate(cache, (phi.values - expected) ** 2))
    assert err <= 1e-8 * max(1.0, np.abs(expected).max())
    # oracle direction: applying d2ds2 to phi returns the mean-free rhs
    residual = geo.d2ds2(cache, phi.values) - (v_vals - geo.field_mean(cache, v_vals))
    assert np.max(np.abs(residual)) <= 1e-8 * max(1.0, np.abs(v_vals).max())


def test_velocity_potential_zero(unit_circle_256):
    _, caches = unit_circle_256
    phi = po.velocity_potential([caches[0]], [geo.VertexField(0, np.zeros(caches[0].n))])[0]
    assert np.max(np.abs(phi.values)) <= 1e-14


def test_velocity_potential_cos1(unit_circle_256):
    _, caches = unit_circle_256
    cache = caches[0]
    theta = vertex_angles(cache)
    phi = po.velocity_potential([cache], [geo.VertexField(0, np.cos(theta))])[0]
    assert np.max(np.abs(phi.values + np.cos(theta))) <= 1e-3


def test_velocity_potential_rejects_nonzero_mean(unit_circle_256):
    _, caches = unit_circle_256
    with pytest.raises(NonZeroMean):
        po.velocity_potential([caches[0]], [geo.VertexField(0, np.ones(caches[0].n))])


def test_singular_below_vertex_floor():
    cache = geo.build_geometry(geo.PolyCurve([geo.make_circle((0, 0), 1.0, 8)]))[0]
    cache.n  # 8 vertices is the floor; fabricate a smaller cache
    import dataclasses

    small = dataclasses.replace(cache)
    small.vertices = cache.vertices[:6]
    small.edge_lengths = cache.edge_lengths[:6]
    small.weights = cache.weights[:6]
    with pytest.raises(SingularSystem):
        po.solve_zero_average([small], [geo.VertexField(0, np.zeros(6))])


@pytest.mark.parametrize("k", [1, 2, 5])
def test_h_minus1_norm_eigenvalues(unit_circle_256, k):
    # quadrature oracle: d phi/ds = sin(k theta)/k, integral = pi/k^2
    _, caches = unit_circle_256
    theta = vertex_angles(caches[0])
    value = po.h_minus1_norm_sq(caches, [geo.VertexField(0, np.cos(k * theta))])
    assert value == pytest.approx(np.pi / k**2, rel=5e-3)


def test_h_minus1_norm_zero_and_scaling(unit_circle_256):
    _, caches = unit_circle_256
    theta = vertex_angles(caches[0])
    assert po.h_minus1_norm_sq(caches, [geo.VertexField(0, np.zeros(caches[0].n))]) == 0.0
    v1 = po.h_minus1_norm_sq(caches, [geo.VertexField(0, np.cos(2 * theta))])
    v2 = po.h_minus1_norm_sq(caches, [geo.VertexField(0, 2 * np.cos(2 * theta))])
    assert v2 == pytest.approx(4.0 * v1, rel=1e-12)


def test_nu_dot_b_potential_constant_field(unit_circle_256):
    _, caches = unit_circle_256
    theta = vertex_angles(caches[0])
    phi = po.nu_dot_B_potential([caches[0]], np.tile([1.0, 0.0], (caches[0].n, 1)))[0]
    assert np.max(np.abs(phi.values + np.cos(theta))) <= 1e-3


def test_nu_dot_b_potential_identity_field(unit_circle_256):
    # B(x) = x gives nu . B = 1 on the unit circle: mean removal leaves zero
    _, caches = unit_circle_256
    phi = po.nu_dot_B_potential([caches[0]], caches[0].vertices)[0]
    assert np.max(np.abs(phi.values)) <= 1e-12


def test_self_adjointness(unit_circle_256):
    _, caches = unit_circle_256
    cache = caches[0]
    rng = np.random.default_rng(4)
    for _ in range(5):
        u = rng.normal(size=cache.n)
        v = rng.normal(size=cache.n)
        lhs = geo.integrate(cache, geo.d2ds2(cache, u) * v)
        rhs = geo.integrate(cache, u * geo.d2ds2(cache, v))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_convergence_order_two():
    errs = []
    for n in (64, 128, 256):
        cache = _graded_circle(n)
        theta = vertex_angles(cache)
        sol = po.solve_zero_average([cache], [geo.VertexField(0, np.cos(3 * theta))])[0]
        errs.append(np.sqrt(geo.integrate(
            cache, (sol.solution.values + np.cos(3 * theta) / 9) ** 2)))
    assert 3.2 <= errs[0] / errs[1] <= 4.8
    assert 3.2 <= errs[1] / errs[2] <= 4.8


def test_energy_identity(unit_circle_256):
    # int (d phi/ds)^2 = int phi (<f> - f) up to quadrature consistency
    _, caches = unit_circle_256
    cache = caches[0]
    theta = vertex_angles(cache)
    f = np.cos(2 * theta) + 0.3 * np.sin(5 * theta)
    sol = po.solve_zero_average([cache], [geo.VertexField(0, f)])[0]
    phi = sol.solution.values
    lhs = geo.integrate(cache, geo.dds(cache, phi) ** 2)
    rhs = geo.integrate(cache, phi * (geo.field_mean(cache, f) - f))
    assert lhs == pytest.approx(rhs, rel=2e-3)
    assert lhs > 0


def test_uniqueness_up_to_rhs_constant(unit_circle_256):
    _, caches = unit_circle_256
    cache = caches[0]
    theta = vertex_angles(cache)
    f = np.cos(4 * theta)
    a = po.solve_zero_average([cache], [geo.VertexField(0, f)])[0]
    b = po.solve_zero_average([cache], [geo.VertexField(0, f + 11.0)])[0]
    np.testing.assert_allclose(a.solution.values, b.solution.values,
                               rtol=0, atol=1e-11)
    assert b.mean_removed == pytest.approx(11.0, rel=1e-12)


# ---------------------------------------------------------------------------
# stacked cyclic banded solver and periodic spline against dense references
# ---------------------------------------------------------------------------

ORACLE = settings(max_examples=40, deadline=None, database=None)


def _dense_cyclic(diags, lengths):
    p = len(diags) // 2
    dense = np.zeros((sum(lengths), sum(lengths)))
    start = 0
    for size in lengths:
        for i in range(size):
            for k in range(2 * p + 1):
                dense[start + i, start + (i + k - p) % size] += diags[k, start + i]
        start += size
    return dense


def _dominant_diags(rng, p, n):
    diags = rng.uniform(-1.0, 1.0, (2 * p + 1, n))
    diags[p] += 2.0 * p + 1.0 + rng.uniform(0.0, 1.0, n)
    return diags


@ORACLE
@given(st.sampled_from([1, 2]),
       st.lists(st.sampled_from([1, 2, 3, 6, 35, 510]), min_size=1, max_size=4),
       st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_stacked_cyclic_banded_matches_dense(p, spare, m, seed):
    # each cycle is a diagonally dominant cyclic band block of 2p + spare
    # entries: the shortest cycles 2p + 1 and 2p + 2, odd and even lengths
    rng = np.random.default_rng(seed)
    lengths = [2 * p + k for k in spare]
    n = sum(lengths)
    diags = _dominant_diags(rng, p, n)
    rhs = rng.normal(size=(n, m))
    exact = np.linalg.solve(_dense_cyclic(diags, lengths), rhs)
    got = po.solve_cyclic_banded(diags, rhs, lengths)
    assert got.shape == rhs.shape
    assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))
    flat = po.solve_cyclic_banded(diags, rhs[:, 0], lengths)
    assert np.max(np.abs(flat - exact[:, 0])) <= 1e-12 * np.max(np.abs(exact[:, 0]))


def test_cyclic_banded_alternating_layouts():
    # two layouts in turn through the layout cache: every call matches its
    # dense solve, and a repeated layout gives bit-identical answers
    rng = np.random.default_rng(7)
    cases = []
    for p, lengths in ((2, [128, 24, 24, 5]), (1, [37, 4])):
        diags = _dominant_diags(rng, p, sum(lengths))
        rhs = rng.normal(size=sum(lengths))
        cases.append((diags, rhs, lengths, np.linalg.solve(_dense_cyclic(diags, lengths), rhs)))
    first = [po.solve_cyclic_banded(d, b, lengths) for d, b, lengths, _ in cases]
    for _ in range(3):
        for (diags, rhs, lengths, exact), was in zip(cases, first):
            got = po.solve_cyclic_banded(diags, rhs, lengths)
            assert np.array_equal(got, was)
            assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))


@pytest.mark.parametrize("where", ["diag", "rhs"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cyclic_banded_rejects_non_finite(where, bad):
    rng = np.random.default_rng(3)
    diags = _dominant_diags(rng, 2, 40)
    rhs = rng.normal(size=40)
    if where == "diag":
        diags[1, 17] = bad
    else:
        rhs[17] = bad
    with pytest.raises(SingularSystem, match="non-finite"):
        po.solve_cyclic_banded(diags, rhs, [30, 10])


def test_cyclic_banded_rejects_zero_pivot():
    # the second cycle's block is zero: exactly singular
    diags = _dominant_diags(np.random.default_rng(5), 1, 20)
    diags[:, 12:] = 0.0
    with pytest.raises(SingularSystem, match="zero pivot"):
        po.solve_cyclic_banded(diags, np.ones(20), [12, 8])


def test_cyclic_banded_rejects_short_cycle():
    with pytest.raises(ValueError, match="more than 4"):
        po.solve_cyclic_banded(np.ones((5, 12)), np.ones(12), [8, 4])


@ORACLE
@given(st.lists(st.integers(8, 200), min_size=1, max_size=4), st.integers(0, 2**32 - 1))
def test_stacked_poisson_matches_rank_one_shift(sizes, seed):
    # the grounded stacked solve against the dense rank-one-shift solve of
    # each component alone
    rng = np.random.default_rng(seed)
    caches = geo.build_geometry(geo.PolyCurve(
        [jittered_loop(rng, n, (12.0 * k, 0.0), 1.0 + 0.5 * k) for k, n in enumerate(sizes)]))
    fields = [geo.VertexField(c.component_index, rng.normal(size=c.n)
                              + np.cos(2 * np.pi * c.arc_positions / c.length))
              for c in caches]
    sols = po.solve_zero_average(caches, fields)
    for cache, f, sol in zip(caches, fields, sols):
        want = poisson_oracle.zero_average_potential(cache, f.values)
        got = sol.solution.values
        assert sol.solution.component_id == f.component_id
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@ORACLE
@given(st.lists(st.tuples(st.integers(8, 200), st.floats(0.1, 10.0), st.floats(0.0, 0.4)),
                min_size=1, max_size=4),
       st.integers(0, 2**32 - 1))
def test_periodic_spline_matches_cubic_spline(cycles, seed):
    # jittered knots per cycle, two data columns, values and first and
    # second derivatives at random points (some at knots and past the period)
    rng = np.random.default_rng(seed)
    arcs, periods, values, queries = [], [], [], []
    for k, (n, period, jitter) in enumerate(cycles):
        knots = period * (np.arange(n) + rng.uniform(-jitter, jitter, n)) / n
        knots -= knots[0]
        arcs.append(knots)
        periods.append(period)
        values.append(rng.normal(size=(n, 2)))
        s = np.concatenate([rng.uniform(-period, 2 * period, 50), knots[::7]])
        queries.append((np.full(len(s), k), s))
    spline = po.PeriodicSpline(np.concatenate(arcs), np.array(periods),
                               [len(a) for a in arcs], np.vstack(values))
    for (comp, s), knots, period, y in zip(queries, arcs, periods, values):
        ref = CubicSpline(np.r_[knots, period], np.vstack([y, y[:1]]), bc_type="periodic")
        for nu in (0, 1, 2):
            exact = ref(np.mod(s, period), nu)
            got = spline(comp, s, nu)
            assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact))
