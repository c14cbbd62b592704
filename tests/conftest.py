import numpy as np
import pytest

from surfdiff import calibration as cb
from surfdiff import geometry as geo


@pytest.fixture(scope="session")
def unit_circle_256():
    curve = geo.PolyCurve([geo.make_circle((0.0, 0.0), 1.0, 256)])
    caches = geo.build_geometry(curve)
    return curve, caches


@pytest.fixture(scope="session")
def circle_calibration():
    ref = cb.AnalyticCircles([cb.CircleSpec((0.0, 0.0), 1.0)])
    return cb.Calibration(ref, 0.25)


def vertex_angles(cache):
    return np.arctan2(cache.vertices[:, 1], cache.vertices[:, 0])


def jittered_loop(rng, n, center, scale):
    """A 2:1 mode-3 loop with nodes jittered by up to 0.3 of a parameter step."""
    t = 2 * np.pi * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n
    r = scale * (1.0 + 0.2 * np.cos(3 * t + rng.uniform(0, 2 * np.pi)))
    return geo.Component(center + np.column_stack([2 * r * np.cos(t), r * np.sin(t)]), 1)
