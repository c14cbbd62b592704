"""Per-component discrete calculus: the reference of ``geometry``'s stacked calculus.

Each function is the ``np.roll`` / ``np.dot`` definition on one component's
arrays that the package used while it kept one geometry object per
component; ``parts`` slices a stacked ``CurveGeometry`` into its
components.  ``intrinsic_distance`` and ``translated`` are checked or used
by the tests only.  Only the tests import this module.
"""

import numpy as np


def parts(geom):
    """One slice of the stacked per-vertex arrays per component, in order."""
    return [slice(a, a + n) for a, n in zip(geom.layout.first, geom.layout.counts)]


def integrate(weights, values):
    return float(np.dot(weights, values))


def field_mean(weights, length, values):
    return integrate(weights, values) / length


def dds(weights, values):
    return (np.roll(values, -1, axis=0) - np.roll(values, 1, axis=0)) / (2.0 * weights)


def d2ds2(edge_lengths, weights, values):
    fwd = (np.roll(values, -1, axis=0) - values) / edge_lengths
    bwd = (values - np.roll(values, 1, axis=0)) / np.roll(edge_lengths, 1)
    return (fwd - bwd) / weights


def intrinsic_distance(geom, i, j):
    """Shorter arc between stacked vertices i and j; inf across distinct components."""
    k = geom.layout.comp[i]
    if geom.layout.comp[j] != k:
        return float("inf")
    d = abs(geom.arc_positions[i] - geom.arc_positions[j])
    return float(min(d, geom.length[k] - d))


def translated(curve, shift):
    """The curve moved by ``shift``, its components' orientations kept."""
    return curve.with_vertices(curve.segments[0] + np.asarray(shift, dtype=float))
