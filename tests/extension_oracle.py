"""Real-arithmetic, per-component kernels: the references of ``extension``'s
complex-form kernels and of ``energy``'s stacked B checkers.

Each function is the loop the package ran before its kernels moved to complex
arithmetic and before the checkers evaluated B once per sample.  Only the
tests import this module.
"""

import numpy as np

from surfdiff.poisson import nu_dot_B_potential

# 4-point Gauss-Legendre on [0, 1]
_G4X = 0.5 + 0.5 * np.array([-0.8611363115940526, -0.3399810435848563,
                             0.3399810435848563, 0.8611363115940526])
_G4W = 0.5 * np.array([0.3478548451374538, 0.6521451548625461,
                       0.6521451548625461, 0.3478548451374538])


def neumann_system(caches):
    """Nystrom matrix from (m, m, 2) node differences and real dot products."""
    nodes = np.vstack([c.vertices for c in caches])
    normals = np.vstack([c.nu for c in caches])
    weights = np.concatenate([c.weights for c in caches])
    kappas = np.concatenate([c.kappa for c in caches])
    rel = nodes[:, None, :] - nodes[None, :, :]
    r2 = np.sum(rel * rel, axis=2)
    np.fill_diagonal(r2, 1.0)
    kern = -np.sum(normals[:, None, :] * rel, axis=2) / (2.0 * np.pi * r2)
    a = kern * weights[None, :]
    np.fill_diagonal(a, 0.5 - weights * kappas / (4.0 * np.pi))
    return a, weights


def surface_potential(caches, q):
    """Single-layer potential at every node, one component at a time.

    Same-component nodes take log(chord / arc) + log(arc), other components
    log(chord); the diagonal panel is integrated analytically.
    """
    offsets = np.cumsum([0] + [c.n for c in caches])
    out = []
    for comp, cache in enumerate(caches):
        qk = q[offsets[comp]:offsets[comp + 1]]
        v = cache.vertices
        rel = v[:, None, :] - v[None, :, :]
        chord = np.sqrt(np.maximum(np.sum(rel * rel, axis=2), 1e-300))
        s = cache.arc_positions
        darc = np.abs(s[:, None] - s[None, :])
        darc = np.minimum(darc, cache.length - darc)
        eye = np.eye(cache.n, dtype=bool)
        chord_safe = np.where(eye, 1.0, chord)
        darc_safe = np.where(eye, 1.0, darc)
        log_kernel = np.where(eye, 0.0, np.log(chord_safe / darc_safe) + np.log(darc_safe))
        phi = (log_kernel * cache.weights[None, :]) @ qk
        half = 0.5 * cache.weights
        phi += 2.0 * half * (np.log(half) - 1.0) * qk
        for j, cj in enumerate(caches):
            if j == comp:
                continue
            qj = q[offsets[j]:offsets[j + 1]]
            relx = v[:, None, :] - cj.vertices[None, :, :]
            r = np.sqrt(np.maximum(np.sum(relx * relx, axis=2), 1e-300))
            phi += (np.log(r) * cj.weights[None, :]) @ qj
        out.append(-phi / (2.0 * np.pi))
    return np.concatenate(out)


def midpoint_bc_residual(field, v_star):
    """sup over spline midpoints of |nu . B_trace - V*|, one component at a time."""
    nodes = np.vstack([c.vertices for c in field.caches])
    weights = np.concatenate([c.weights for c in field.caches])
    q = field.density
    offsets = np.cumsum([0] + [c.n for c in field.caches])
    up = field.upsample
    worst = 0.0
    fine_off = 0
    for k, cache in enumerate(field.caches):
        nf = cache.n * up
        fine = field.fine_points[fine_off:fine_off + nf]
        fine_off += nf
        mids = fine[up // 2::up]
        tang = fine[(up // 2 + 1) % nf::up] - fine[up // 2 - 1::up]
        tang /= np.linalg.norm(tang, axis=1)[:, None]
        nmid = np.column_stack([tang[:, 1], -tang[:, 0]])
        rel = mids[:, None, :] - nodes[None, :, :]
        r2 = np.maximum(np.sum(rel * rel, axis=2), 1e-300)
        kern = -np.sum(nmid[:, None, :] * rel, axis=2) / (2.0 * np.pi * r2)
        qk = q[offsets[k]:offsets[k + 1]]
        q_mid = 0.5 * (qk + np.roll(qk, -1))
        flux = (kern * weights[None, :]) @ q + 0.5 * q_mid + field.mu[k]
        v_mid = 0.5 * (v_star[k].values + np.roll(v_star[k].values, -1))
        worst = max(worst, float(np.max(np.abs(flux - v_mid))))
    return worst


def edge_flux(vector_field, cache):
    """int nu . B over one component, one field call per Gauss point."""
    v = cache.vertices
    e = np.roll(v, -1, axis=0) - v
    elen = np.linalg.norm(e, axis=1)
    nu_e = np.column_stack([e[:, 1], -e[:, 0]]) / elen[:, None]
    total = 0.0
    for x, w in zip(_G4X, _G4W):
        vals = np.asarray(vector_field(v + x * e))
        total += w * np.sum(elen * np.sum(nu_e * vals, axis=1))
    return float(total)


def nu_dot_B_potentials(caches, b_field):
    """Zero-average potential of nu . B per component, B evaluated per component."""
    return [nu_dot_B_potential(cache, b_field.at(cache.vertices)) for cache in caches]
