import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from surfdiff import geometry as geo
from surfdiff import poisson as po
from surfdiff.errors import NonZeroMean, SingularSystem

from conftest import vertex_angles


def _graded_circle(n, jitter=0.3):
    u = 2 * np.pi * np.arange(n) / n
    th = u + jitter * np.sin(u)
    return geo.build_geometry(geo.PolyCurve([
        geo.Component(np.column_stack([np.cos(th), np.sin(th)]), 1)]))[0]


def test_manufactured_cos3(unit_circle_256):
    _, caches = unit_circle_256
    cache = caches[0]
    theta = vertex_angles(cache)
    sol = po.solve_zero_average(cache, geo.VertexField(0, np.cos(3 * theta)))
    err = np.sqrt(geo.integrate(cache, (sol.solution.values + np.cos(3 * theta) / 9) ** 2))
    assert err <= 1e-3
    assert abs(geo.field_mean(cache, sol.solution.values)) <= 1e-10 * max(
        1.0, np.abs(sol.solution.values).max())


def test_zero_rhs_gives_zero(unit_circle_256):
    _, caches = unit_circle_256
    sol = po.solve_zero_average(caches[0], geo.VertexField(0, np.zeros(caches[0].n)))
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
    sol = po.solve_zero_average(cache, geo.VertexField(0, np.cos(k * theta)))
    exact = -radius**2 / k**2 * np.cos(k * theta)
    err = np.sqrt(geo.integrate(cache, (sol.solution.values - exact) ** 2))
    assert err <= 5e-3 * radius**2 / k**2 * np.sqrt(cache.length)


def test_residual_contract(unit_circle_256):
    _, caches = unit_circle_256
    cache = caches[0]
    rng = np.random.default_rng(0)
    sol = po.solve_zero_average(cache, geo.VertexField(0, rng.normal(size=cache.n)))
    assert sol.residual_norm <= 1e-9 * np.sqrt(geo.integrate(
        cache, sol.rhs.values**2))


def test_velocity_potential_double_solve_identity():
    # V = d^2 kappa/ds^2 on a wavy curve: phi_V recovers kappa - <kappa>,
    # verified through the discrete second-derivative oracle
    cache = geo.build_geometry(
        geo.PolyCurve([geo.make_wavy_circle(1.0, 0.03, 3, 256)]))[0]
    v_vals = geo.d2ds2(cache, cache.kappa)
    phi = po.velocity_potential(cache, geo.VertexField(0, v_vals))
    expected = cache.kappa - geo.field_mean(cache, cache.kappa)
    err = np.sqrt(geo.integrate(cache, (phi.values - expected) ** 2))
    assert err <= 1e-8 * max(1.0, np.abs(expected).max())
    # oracle direction: applying d2ds2 to phi returns the mean-free rhs
    residual = geo.d2ds2(cache, phi.values) - (v_vals - geo.field_mean(cache, v_vals))
    assert np.max(np.abs(residual)) <= 1e-8 * max(1.0, np.abs(v_vals).max())


def test_velocity_potential_zero(unit_circle_256):
    _, caches = unit_circle_256
    phi = po.velocity_potential(caches[0], geo.VertexField(0, np.zeros(caches[0].n)))
    assert np.max(np.abs(phi.values)) <= 1e-14


def test_velocity_potential_cos1(unit_circle_256):
    _, caches = unit_circle_256
    cache = caches[0]
    theta = vertex_angles(cache)
    phi = po.velocity_potential(cache, geo.VertexField(0, np.cos(theta)))
    assert np.max(np.abs(phi.values + np.cos(theta))) <= 1e-3


def test_velocity_potential_rejects_nonzero_mean(unit_circle_256):
    _, caches = unit_circle_256
    with pytest.raises(NonZeroMean):
        po.velocity_potential(caches[0], geo.VertexField(0, np.ones(caches[0].n)))


def test_singular_below_vertex_floor():
    cache = geo.build_geometry(geo.PolyCurve([geo.make_circle((0, 0), 1.0, 8)]))[0]
    cache.n  # 8 vertices is the floor; fabricate a smaller cache
    import dataclasses

    small = dataclasses.replace(cache)
    small.vertices = cache.vertices[:6]
    small.edge_lengths = cache.edge_lengths[:6]
    small.weights = cache.weights[:6]
    with pytest.raises(SingularSystem):
        po.solve_zero_average(small, geo.VertexField(0, np.zeros(6)))


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
    phi = po.nu_dot_B_potential(caches[0], np.tile([1.0, 0.0], (caches[0].n, 1)))
    assert np.max(np.abs(phi.values + np.cos(theta))) <= 1e-3


def test_nu_dot_b_potential_identity_field(unit_circle_256):
    # B(x) = x gives nu . B = 1 on the unit circle: mean removal leaves zero
    _, caches = unit_circle_256
    phi = po.nu_dot_B_potential(caches[0], caches[0].vertices)
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
        sol = po.solve_zero_average(cache, geo.VertexField(0, np.cos(3 * theta)))
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
    sol = po.solve_zero_average(cache, geo.VertexField(0, f))
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
    a = po.solve_zero_average(cache, geo.VertexField(0, f))
    b = po.solve_zero_average(cache, geo.VertexField(0, f + 11.0))
    np.testing.assert_allclose(a.solution.values, b.solution.values,
                               rtol=0, atol=1e-11)
    assert b.mean_removed == pytest.approx(11.0, rel=1e-12)


# ---------------------------------------------------------------------------
# stacked cyclic banded solver and periodic spline against dense references
# ---------------------------------------------------------------------------

ORACLE = settings(max_examples=40, deadline=None, database=None)


@ORACLE
@given(st.sampled_from([1, 2]), st.lists(st.sampled_from([8, 512]), min_size=1, max_size=4),
       st.integers(0, 2), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_stacked_cyclic_banded_matches_dense(p, lengths, n_extra, m, seed):
    # each cycle is a diagonally dominant cyclic band block; the extra
    # rank-one terms couple the blocks
    rng = np.random.default_rng(seed)
    n = sum(lengths)
    diags = rng.uniform(-1.0, 1.0, (2 * p + 1, n))
    diags[p] += 2.0 * p + 1.0 + rng.uniform(0.0, 1.0, n)
    dense = np.zeros((n, n))
    start = 0
    for size in lengths:
        for i in range(size):
            for k in range(2 * p + 1):
                dense[start + i, start + (i + k - p) % size] += diags[k, start + i]
        start += size
    extra = [(rng.uniform(-1.0, 1.0, n) / np.sqrt(n), rng.uniform(-1.0, 1.0, n) / np.sqrt(n))
             for _ in range(n_extra)]
    for u, v in extra:
        dense += np.outer(u, v)
    rhs = rng.normal(size=(n, m))
    exact = np.linalg.solve(dense, rhs)
    got = po.solve_cyclic_banded(diags, rhs, lengths, extra=extra)
    assert got.shape == rhs.shape
    assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))
    flat = po.solve_cyclic_banded(diags, rhs[:, 0], lengths, extra=extra)
    assert np.max(np.abs(flat - exact[:, 0])) <= 1e-12 * np.max(np.abs(exact[:, 0]))


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
