"""Single-point signed distance with the medial-axis ambiguity probe.

The tube evaluators query the reference in batches and never need to know
whether a foot point is ambiguous; the tests check that a strict single
query far outside the tube detects it.  Only the tests import this module.
"""

import numpy as np


class MedialAxisProximity(Exception):
    """Two closest-point candidates are equidistant; the foot point is ambiguous."""


def signed_distance(calib, point, t=0.0, strict=False):
    """Signed distance, gradient and foot point of a single query.

    With ``strict`` the query raises MedialAxisProximity when two foot
    candidates are equidistant within 1e-10 (possible only outside the
    admissible tube); otherwise the first minimizer is returned, which
    is all the tube evaluators ever need.
    """
    point = np.asarray(point, dtype=float)
    s, grad, foot, _ = calib.reference.query(point[None, :], t)
    if strict and abs(s[0]) > calib.delta:
        _ambiguity_probe(calib, point, abs(s[0]), t)
    return float(s[0]), grad[0], foot[0]


def _ambiguity_probe(calib, point, d0, t):
    probe = point[None, :] + d0 * 1e-3 * np.array(
        [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    _, _, feet, _ = calib.reference.query(probe, t)
    spread = np.linalg.norm(feet - feet[0], axis=1).max()
    if spread > 10.0 * d0 * 1e-3 and spread > 1e-8:
        raise MedialAxisProximity(
            f"foot point ambiguous near {point}: candidates {spread:.2e} apart"
        )
