"""Shared oracles and scenario builders for the test suite.

The finite-difference helpers perturb direction parameters along their unit
tangent circles (great-circle steps measured in radians of arc), matching
the arc-length convention of the analytic derivatives. Gain parameters are
perturbed directly.
"""

import math

import numpy as np
import pytest

from mimolab.channel import PathParams, PathSet, synthesize
from mimolab.geometry import (ArrayGeometry, Direction, direction_from_unit,
                              tangent_basis, unit_vector)


def random_direction(rng, el_max=1.3):
    return Direction(rng.uniform(-math.pi, math.pi), rng.uniform(-el_max, el_max))


def random_geometry(rng, n, scale=1.0):
    """Generic centroid-centered array: Gaussian positions in wavelengths."""
    return ArrayGeometry.from_positions(rng.normal(0.0, scale, (3, n)))


def per_antenna_steering(A, U):
    """exp(-j a.u) / sqrt(n), one antenna a (a column of A) at a time: the
    steering oracle that never calls steering_matrix."""
    return np.stack([np.exp(-1j * (a @ U)) for a in A.T]) / math.sqrt(A.shape[1])


def random_path(rng, el_max=1.3):
    return PathParams(rng.uniform(0.5, 2.0), rng.uniform(0.0, 2 * math.pi),
                      random_direction(rng, el_max), random_direction(rng, el_max))


def separated_directions(rng, count, min_separation, el_max=1.2):
    """Rejection-sample directions with pairwise angular separation."""
    out = []
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 10000:
            raise RuntimeError("could not place separated directions")
        d = random_direction(rng, el_max)
        u = unit_vector(d)
        if all(unit_vector(o) @ u < math.cos(min_separation) for o in out):
            out.append(d)
    return out


def shift_direction(d, axis, arc):
    """Move d by `arc` radians along the azimuth or elevation unit tangent."""
    u = unit_vector(d)
    v_az, v_el = tangent_basis(d)
    v = v_az if axis == "azimuth" else v_el
    return direction_from_unit(math.cos(arc) * u + math.sin(arc) * v)


def perturbed_paths(ps, path_idx, param_idx, delta):
    """Copy of ps with one scalar parameter of one path shifted by delta."""
    paths = list(ps)
    p = paths[path_idx]
    if param_idx == 0:
        q = PathParams(p.rho + delta, p.phi, p.doa, p.dod)
    elif param_idx == 1:
        q = PathParams(p.rho, p.phi + delta, p.doa, p.dod)
    elif param_idx == 2:
        q = PathParams(p.rho, p.phi, shift_direction(p.doa, "azimuth", delta), p.dod)
    elif param_idx == 3:
        q = PathParams(p.rho, p.phi, shift_direction(p.doa, "elevation", delta), p.dod)
    elif param_idx == 4:
        q = PathParams(p.rho, p.phi, p.doa, shift_direction(p.dod, "azimuth", delta))
    elif param_idx == 5:
        q = PathParams(p.rho, p.phi, p.doa, shift_direction(p.dod, "elevation", delta))
    else:
        raise ValueError(param_idx)
    paths[path_idx] = q
    return PathSet(paths)


def fd_jacobian(ps, g_r, g_t, step=1e-6):
    """Central finite differences of the vectorized channel, column per parameter."""
    n = g_r.n_antennas * g_t.n_antennas
    cols = []
    for i in range(len(ps)):
        for k in range(6):
            h_plus = synthesize(perturbed_paths(ps, i, k, step), g_r, g_t).vector
            h_minus = synthesize(perturbed_paths(ps, i, k, -step), g_r, g_t).vector
            cols.append((h_plus - h_minus) / (2.0 * step))
    return np.stack(cols, axis=1).reshape(n, 6 * len(ps))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
