"""Reference computations the benchmark checks the program against.

Nothing here imports mimolab: steering vectors, channel synthesis, the
relative channel error and the grid scores are rebuilt from the array
positions and the path parameters, so a fault in the package's own
steering, synthesis or selection code cannot hide behind itself.
"""

from __future__ import annotations

import math

import numpy as np

SCORE_BLOCK_ROWS = 500


def upa_positions(nx: int, ny: int, spacing: float = 0.5) -> np.ndarray:
    """3 x (nx*ny) positions in wavelengths of a yz-plane planar array.

    Columns run over (ix, iy) with ix the slow index, centred on the
    centroid: the layout the package documents for `upa(..., plane="yz")`.
    """
    off_x = (np.arange(1, nx + 1) - (nx + 1) / 2.0) * spacing
    off_y = (np.arange(1, ny + 1) - (ny + 1) / 2.0) * spacing
    pos = np.zeros((3, nx * ny))
    pos[1] = np.repeat(off_x, ny)
    pos[2] = np.tile(off_y, nx)
    return pos - pos.mean(axis=1, keepdims=True)


def square_upa_positions(n_antennas: int) -> np.ndarray:
    side = math.isqrt(n_antennas)
    if side * side != n_antennas:
        raise ValueError(f"{n_antennas} antennas do not form a square array")
    return upa_positions(side, side)


def steering(positions: np.ndarray, az, el) -> np.ndarray:
    """Columns exp(-j 2 pi p . u) / sqrt(n), one per (az, el) direction."""
    az = np.atleast_1d(np.asarray(az, dtype=float))
    el = np.atleast_1d(np.asarray(el, dtype=float))
    u = np.stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)])
    return np.exp(-2j * math.pi * (positions.T @ u)) / math.sqrt(positions.shape[1])


def synthesize(paths, pos_r: np.ndarray, pos_t: np.ndarray) -> np.ndarray:
    """Channel matrix sum_p rho e^{j phi} e_r(doa) e_t(dod)^H.

    `paths` holds the JSON form the package reads and writes:
    {"rho", "phi", "doa": {"az", "el"}, "dod": {"az", "el"}}.
    """
    rho = np.array([p["rho"] for p in paths], dtype=float)
    phi = np.array([p["phi"] for p in paths], dtype=float)
    E_r = steering(pos_r, [p["doa"]["az"] for p in paths], [p["doa"]["el"] for p in paths])
    E_t = steering(pos_t, [p["dod"]["az"] for p in paths], [p["dod"]["el"] for p in paths])
    return (E_r * (rho * np.exp(1j * phi))) @ E_t.conj().T


def _tangent_derivatives(positions: np.ndarray, az, el):
    """d/d(arc) of the steering columns along the azimuth and elevation
    unit tangents: -j 2 pi (p . v) e."""
    az, el = np.asarray(az, dtype=float), np.asarray(el, dtype=float)
    v_az = np.stack([-np.sin(az), np.cos(az), np.zeros_like(az)])
    v_el = np.stack([-np.sin(el) * np.cos(az), -np.sin(el) * np.sin(az), np.cos(el)])
    E = steering(positions, az, el)
    return (-2j * math.pi * (positions.T @ v_az)) * E, (-2j * math.pi * (positions.T @ v_el)) * E


def lossless_fisher_condition(paths, pos_r: np.ndarray, pos_t: np.ndarray) -> float:
    """Condition number of the Fisher matrix under lossless observation,
    after scaling it to unit diagonal.

    Up to a positive factor that matrix is Re(D^H D), D holding the
    derivatives of the channel by (rho, phi, doa_az, doa_el, dod_az, dod_el)
    of every path. Scaling removes the dependence on the gains' magnitude,
    so the result says how accurately any solver can invert it.
    """
    doa_az, doa_el = [p["doa"]["az"] for p in paths], [p["doa"]["el"] for p in paths]
    dod_az, dod_el = [p["dod"]["az"] for p in paths], [p["dod"]["el"] for p in paths]
    rho = np.array([p["rho"] for p in paths], dtype=float)
    c = rho * np.exp(1j * np.array([p["phi"] for p in paths], dtype=float))
    E_r, E_t = steering(pos_r, doa_az, doa_el), steering(pos_t, dod_az, dod_el)
    dR_az, dR_el = _tangent_derivatives(pos_r, doa_az, doa_el)
    dT_az, dT_el = _tangent_derivatives(pos_t, dod_az, dod_el)

    def outer(a, b, scale):   # per path k: scale_k a_k b_k^H, flattened
        return (np.einsum("ik,jk->kij", a, b.conj()) * scale[:, None, None]).reshape(len(paths), -1)

    cols = [outer(E_r, E_t, c / rho), outer(E_r, E_t, 1j * c), outer(dR_az, E_t, c),
            outer(dR_el, E_t, c), outer(E_r, dT_az, c), outer(E_r, dT_el, c)]
    D = np.stack(cols, axis=1).reshape(6 * len(paths), -1).T
    F = (D.conj().T @ D).real
    d = 1.0 / np.sqrt(np.diag(F))
    return float(np.linalg.cond(F * d[:, None] * d[None, :]))


def attainable_accuracy(condition: float) -> float:
    """Relative accuracy a double-precision solve can promise: 1e-8, or
    condition * unit roundoff where that is larger."""
    return max(1e-8, condition * np.finfo(float).eps / 2)


def relative_error(H: np.ndarray, H_hat: np.ndarray) -> float:
    """||H - H_hat||_F^2 / ||H||_F^2, the rMSE the package reports."""
    return float(np.linalg.norm(H - H_hat) ** 2 / np.linalg.norm(H) ** 2)


def grid_atoms(positions: np.ndarray, directions) -> np.ndarray:
    """Steering columns for a sequence of objects with azimuth/elevation."""
    az = [d.azimuth for d in directions]
    el = [d.elevation for d in directions]
    return steering(positions, az, el)


def joint_scores_max(R: np.ndarray, A_r: np.ndarray, A_t: np.ndarray) -> float:
    """max over all pairs (i, j) of |a_r_i^H R a_t_j|^2, by brute force."""
    M = A_r.conj().T @ R
    best = 0.0
    for i0 in range(0, M.shape[0], SCORE_BLOCK_ROWS):
        C = M[i0:i0 + SCORE_BLOCK_ROWS] @ A_t
        best = max(best, float(np.max(np.abs(C) ** 2)))
    return best


def pair_score(R: np.ndarray, a_r: np.ndarray, a_t: np.ndarray) -> float:
    return float(abs(a_r.conj() @ R @ a_t) ** 2)


def marginal_energies(R: np.ndarray, A_r: np.ndarray) -> np.ndarray:
    """||a_r_i^H R||^2 for every receive atom: the sequential stage-1 score."""
    return np.sum(np.abs(A_r.conj().T @ R) ** 2, axis=1)


def attains(value: float, best: float, rel: float) -> bool:
    """True when value reaches best within a relative tolerance."""
    return value >= best * (1.0 - rel)
