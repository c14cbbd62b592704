import numpy as np
import pytest

from surfdiff import calibration as cb
from surfdiff import extension as ex
from surfdiff import geometry as geo


@pytest.fixture(scope="session")
def unit_circle_256():
    curve = geo.PolyCurve([geo.make_circle((0.0, 0.0), 1.0, 256)])
    return curve, geo.build_geometry(curve)


@pytest.fixture(scope="session")
def circle_calibration():
    ref = cb.AnalyticCircles([cb.CircleSpec((0.0, 0.0), 1.0)])
    return cb.Calibration(ref, 0.25)


def vertex_angles(geom):
    return np.arctan2(geom.vertices[:, 1], geom.vertices[:, 0])


def jittered_loop(rng, n, center, scale):
    """A 2:1 mode-3 loop with nodes jittered by up to 0.3 of a parameter step."""
    t = 2 * np.pi * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n
    r = scale * (1.0 + 0.2 * np.cos(3 * t + rng.uniform(0, 2 * np.pi)))
    return center + np.column_stack([2 * r * np.cos(t), r * np.sin(t)])


def gmres_steps(monkeypatch):
    """The step count of every density solve made after the call, in order."""
    steps = []
    gmres = ex._gmres

    def counting(a, b):
        x, k = gmres(a, b)
        steps.append(k)
        return x, k

    monkeypatch.setattr(ex, "_gmres", counting)
    return steps
