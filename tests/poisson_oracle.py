"""Per-component rank-one-shift Poisson solve: the reference for the stacked grounded solve.

On one component, with K the cyclic stiffness matrix (rows -1/h_{i-1},
1/h_{i-1} + 1/h_i, -1/h_i) and w the vertex weights, the dense system
(K + w w^T) phi = -w (f - <f>) is regular, and because w sums against the
constants to the length its solution is the zero-average solution of
d^2 phi/ds^2 = f - <f>.  Only the tests import this module.
"""

import numpy as np


def zero_average_potential(cache, f):
    """Zero-average phi with d^2 phi/ds^2 = f - <f> on one component, densely."""
    n, w = cache.n, cache.weights
    inv_h = 1.0 / cache.edge_lengths
    inv_hm = np.roll(inv_h, 1)
    i = np.arange(n)
    stiffness = np.zeros((n, n))
    stiffness[i, i] = inv_h + inv_hm
    stiffness[i, (i + 1) % n] = -inv_h
    stiffness[i, i - 1] = -inv_hm
    g = f - np.dot(w, f) / cache.length
    return np.linalg.solve(stiffness + np.outer(w, w), -w * g)
