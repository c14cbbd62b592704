import importlib.machinery

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.linalg import lapack as scipy_lapack

from surfdiff import flow as fl
from surfdiff import geometry as geo
from surfdiff import poisson as po
from surfdiff.errors import NonZeroMean, SingularSystem

import poisson_oracle
from geometry_oracle import parts
from conftest import jittered_loop, vertex_angles


def _graded_circle(n, jitter=0.3):
    u = 2 * np.pi * np.arange(n) / n
    th = u + jitter * np.sin(u)
    return geo.build_geometry(geo.PolyCurve([np.column_stack([np.cos(th), np.sin(th)])]))


def test_manufactured_cos3(unit_circle_256):
    _, geom = unit_circle_256
    theta = vertex_angles(geom)
    phi = po.solve_zero_average(geom, np.cos(3 * theta))
    err = np.sqrt(geo.integrate(geom, (phi + np.cos(3 * theta) / 9) ** 2))[0]
    assert err <= 1e-3
    assert abs(geo.field_mean(geom, phi)[0]) <= 1e-10 * max(1.0, np.abs(phi).max())


def test_zero_rhs_gives_zero(unit_circle_256):
    _, geom = unit_circle_256
    assert np.max(np.abs(po.solve_zero_average(geom, np.zeros(256)))) <= 1e-14


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
    geom = geo.build_geometry(curve)
    theta = vertex_angles(geom)
    phi = po.solve_zero_average(geom, np.cos(k * theta))
    exact = -radius**2 / k**2 * np.cos(k * theta)
    err = np.sqrt(geo.integrate(geom, (phi - exact) ** 2))[0]
    assert err <= 5e-3 * radius**2 / k**2 * np.sqrt(geom.length[0])


def test_residual_contract(unit_circle_256):
    _, geom = unit_circle_256
    rng = np.random.default_rng(0)
    f = rng.normal(size=256)
    residual = geo.d2ds2(geom, po.solve_zero_average(geom, f)) - (f - geo.field_mean(geom, f))
    assert np.sqrt(geo.integrate(geom, residual**2)) <= 1e-9 * np.sqrt(geo.integrate(geom, f**2))


def test_velocity_potential_double_solve_identity():
    # V = d^2 kappa/ds^2 on a wavy curve: phi_V recovers kappa - <kappa>,
    # verified through the discrete second-derivative oracle
    geom = geo.build_geometry(geo.PolyCurve([geo.make_wavy_circle(1.0, 0.03, 3, 256)]))
    v_vals = geo.d2ds2(geom, geom.kappa)
    phi = po.velocity_potential(geom, v_vals)
    expected = geom.kappa - geo.field_mean(geom, geom.kappa)
    err = np.sqrt(geo.integrate(geom, (phi - expected) ** 2))[0]
    assert err <= 1e-8 * max(1.0, np.abs(expected).max())
    # oracle direction: applying d2ds2 to phi returns the mean-free rhs
    residual = geo.d2ds2(geom, phi) - (v_vals - geo.field_mean(geom, v_vals))
    assert np.max(np.abs(residual)) <= 1e-8 * max(1.0, np.abs(v_vals).max())


def test_velocity_potential_zero(unit_circle_256):
    _, geom = unit_circle_256
    assert np.max(np.abs(po.velocity_potential(geom, np.zeros(256)))) <= 1e-14


def test_velocity_potential_cos1(unit_circle_256):
    _, geom = unit_circle_256
    theta = vertex_angles(geom)
    phi = po.velocity_potential(geom, np.cos(theta))
    assert np.max(np.abs(phi + np.cos(theta))) <= 1e-3


def test_velocity_potential_rejects_nonzero_mean(unit_circle_256):
    _, geom = unit_circle_256
    with pytest.raises(NonZeroMean):
        po.velocity_potential(geom, np.ones(256))


def test_singular_below_vertex_floor():
    geom = geo.build_geometry(geo.PolyCurve([geo.make_circle((0, 0), 1.0, 8)]))
    # 8 vertices is the floor; fabricate a smaller geometry
    import dataclasses

    small = dataclasses.replace(geom, layout=geo.cycle_layout((6,)),
                                vertices=geom.vertices[:6], edge_lengths=geom.edge_lengths[:6],
                                weights=geom.weights[:6])
    with pytest.raises(SingularSystem):
        po.solve_zero_average(small, np.zeros(6))


@pytest.mark.parametrize("k", [1, 2, 5])
def test_h_minus1_norm_eigenvalues(unit_circle_256, k):
    # quadrature oracle: d phi/ds = sin(k theta)/k, integral = pi/k^2
    _, geom = unit_circle_256
    value = po.h_minus1_norm_sq(geom, np.cos(k * vertex_angles(geom)))
    assert value == pytest.approx(np.pi / k**2, rel=5e-3)


def test_h_minus1_norm_zero_and_scaling(unit_circle_256):
    _, geom = unit_circle_256
    theta = vertex_angles(geom)
    assert po.h_minus1_norm_sq(geom, np.zeros(256)) == 0.0
    v1 = po.h_minus1_norm_sq(geom, np.cos(2 * theta))
    v2 = po.h_minus1_norm_sq(geom, 2 * np.cos(2 * theta))
    assert v2 == pytest.approx(4.0 * v1, rel=1e-12)


def test_nu_dot_b_potential_constant_field(unit_circle_256):
    _, geom = unit_circle_256
    phi = po.nu_dot_B_potential(geom, np.tile([1.0, 0.0], (256, 1)))
    assert np.max(np.abs(phi + np.cos(vertex_angles(geom)))) <= 1e-3


def test_nu_dot_b_potential_identity_field(unit_circle_256):
    # B(x) = x gives nu . B = 1 on the unit circle: mean removal leaves zero
    _, geom = unit_circle_256
    assert np.max(np.abs(po.nu_dot_B_potential(geom, geom.vertices))) <= 1e-12


def test_self_adjointness(unit_circle_256):
    _, geom = unit_circle_256
    rng = np.random.default_rng(4)
    for _ in range(5):
        u = rng.normal(size=256)
        v = rng.normal(size=256)
        lhs = geo.integrate(geom, geo.d2ds2(geom, u) * v)[0]
        rhs = geo.integrate(geom, u * geo.d2ds2(geom, v))[0]
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_convergence_order_two():
    errs = []
    for n in (64, 128, 256):
        geom = _graded_circle(n)
        theta = vertex_angles(geom)
        phi = po.solve_zero_average(geom, np.cos(3 * theta))
        errs.append(np.sqrt(geo.integrate(geom, (phi + np.cos(3 * theta) / 9) ** 2))[0])
    assert 3.2 <= errs[0] / errs[1] <= 4.8
    assert 3.2 <= errs[1] / errs[2] <= 4.8


def test_energy_identity(unit_circle_256):
    # int (d phi/ds)^2 = int phi (<f> - f) up to quadrature consistency
    _, geom = unit_circle_256
    theta = vertex_angles(geom)
    f = np.cos(2 * theta) + 0.3 * np.sin(5 * theta)
    phi = po.solve_zero_average(geom, f)
    lhs = geo.integrate(geom, geo.dds(geom, phi) ** 2)[0]
    rhs = geo.integrate(geom, phi * (geo.field_mean(geom, f) - f))[0]
    assert lhs == pytest.approx(rhs, rel=2e-3)
    assert lhs > 0


def test_uniqueness_up_to_rhs_constant(unit_circle_256):
    _, geom = unit_circle_256
    f = np.cos(4 * vertex_angles(geom))
    np.testing.assert_allclose(po.solve_zero_average(geom, f),
                               po.solve_zero_average(geom, f + 11.0), rtol=0, atol=1e-11)


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
    geom = geo.build_geometry(geo.PolyCurve(
        [jittered_loop(rng, n, (12.0 * k, 0.0), 1.0 + 0.5 * k) for k, n in enumerate(sizes)]))
    f = (rng.normal(size=len(geom.weights))
         + np.cos(2 * np.pi * geom.arc_positions / geom.length[geom.layout.comp]))
    got = po.solve_zero_average(geom, f)
    for part in parts(geom):
        want = poisson_oracle.zero_average_potential(geom.edge_lengths[part],
                                                     geom.weights[part], f[part])
        assert np.max(np.abs(got[part] - want)) <= 1e-12 * np.max(np.abs(want))


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


def _lapack_solves(monkeypatch, lapack):
    """The two kinds of LAPACK solve a run makes, through ``lapack``'s
    ``dgbsv``: a p = 2 flow step and a p = 1 spline fit of two data columns
    (B's density system is solved by GMRES)."""
    monkeypatch.setattr(po, "dgbsv", lapack.dgbsv)
    rng = np.random.default_rng(21)
    curve = geo.PolyCurve([jittered_loop(rng, 96, (0.0, 0.0), 1.0),
                           jittered_loop(rng, 24, (4.0, 0.0), 0.3)])
    geom = geo.build_geometry(curve)
    flow = fl._normal_velocity(curve.vertices, geom.nu, geom.edge_lengths, geom.weights,
                               curve.counts, 1e-4)
    spline = po.PeriodicSpline(geom.arc_positions, geom.length, curve.counts,
                               curve.vertices).coef
    return flow, spline


@pytest.mark.parametrize("path", ["extension file", "fallback"])
def test_lapack_loader_paths_solve_bit_identically(path, monkeypatch):
    # the run's routines come from scipy's _flapack file, not from the
    # scipy.linalg package import: a silent fall back fails the first branch
    if path == "fallback":
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
    lapack = po.load_lapack()
    if path == "fallback":
        assert lapack is scipy_lapack
    else:
        assert lapack is not scipy_lapack and po.lapack is not scipy_lapack
        assert lapack.__spec__.name == po.lapack.__spec__.name == "_flapack"
        assert lapack.__spec__.origin == po.lapack.__spec__.origin == po._flapack_file()
    expected = _lapack_solves(monkeypatch, scipy_lapack)
    for got, want in zip(_lapack_solves(monkeypatch, lapack), expected):
        assert got.tobytes() == want.tobytes()


def test_lapack_lookup_failure_other_than_import_error_propagates(monkeypatch):
    def unreadable():
        raise PermissionError("scipy's directory cannot be listed")

    monkeypatch.setattr(po, "_flapack_file", unreadable)
    with pytest.raises(PermissionError):
        po.load_lapack()
