"""Fisher information and Cramer-Rao limits for the sparse channel model.

Each path contributes six real parameters, ordered (rho, phi, doa_az,
doa_el, dod_az, dod_el); a P-path model therefore has 6P parameters. The
Fisher matrix follows from the Gaussian observation model as
(2 alpha2 / sigma2) Re{D^H P D}, with D the channel Jacobian and P the
observation projection. Direction entries are per radian of arc along the
unit tangents, which keeps the bound shape-independent for isotropic
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve

from .blas import one_blas_thread
from .channel import PathParams, PathSet, steering_derivatives, synthesize
from .geometry import ArrayGeometry, Direction, tangent_basis
from .observation import ObservationSetup, channel_energy, projection_apply, snr

PARAMS_PER_PATH = 6
PARAM_NAMES = ("rho", "phi", "doa_az", "doa_el", "dod_az", "dod_el")
DEFAULT_COND_THRESHOLD = 1e12


def paths_to_vector(ps: PathSet) -> np.ndarray:
    """Flatten a path set into the 6P real parameter vector."""
    out = np.empty(PARAMS_PER_PATH * len(ps))
    for i, p in enumerate(ps):
        out[6 * i: 6 * i + 6] = (p.rho, p.phi, p.doa.azimuth, p.doa.elevation,
                                 p.dod.azimuth, p.dod.elevation)
    return out


def paths_from_vector(theta) -> PathSet:
    """Inverse of paths_to_vector."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.size % PARAMS_PER_PATH != 0 or theta.size == 0:
        raise ValueError("parameter vector length must be a positive multiple of 6")
    paths = []
    for i in range(theta.size // PARAMS_PER_PATH):
        rho, phi, ra, re, ta, te = theta[6 * i: 6 * i + 6]
        paths.append(PathParams(rho, phi, Direction(ra, re), Direction(ta, te)))
    return PathSet(paths)


def channel_jacobian(ps: PathSet, g_r: ArrayGeometry, g_t: ArrayGeometry) -> np.ndarray:
    """Derivatives of the vectorized channel, one column per parameter.

    For path p with gain c and vectorized atom h_p = c (e_t^* kron e_r):
    the rho column is h_p / rho, the phi column j h_p, and the four
    direction columns replace e_r (resp. e_t) by its tangent derivative.
    """
    E_r, dE_r_az, dE_r_el = steering_derivatives(g_r, [p.doa for p in ps])
    E_t, dE_t_az, dE_t_el = steering_derivatives(g_t, [p.dod for p in ps])
    c = np.array([p.gain for p in ps])
    n_r, n_t, P = E_r.shape[0], E_t.shape[0], len(ps)

    def atoms(F_t, F_r):
        # c_p (f_t^* kron f_r) of every path p, indexed [tx antenna, rx antenna, p]
        return c * (F_t.conj()[:, None] * F_r)

    D = np.empty((n_r * n_t, PARAMS_PER_PATH * P), dtype=complex)
    cols = D.reshape(n_t, n_r, P, PARAMS_PER_PATH)   # cols[j, i, p, k] = D[i + n_r j, 6p + k]
    h = atoms(E_t, E_r)
    cols[..., 0] = h / np.array([p.rho for p in ps])
    cols[..., 1] = 1j * h
    cols[..., 2] = atoms(E_t, dE_r_az)
    cols[..., 3] = atoms(E_t, dE_r_el)
    cols[..., 4] = atoms(dE_t_az, E_r)
    cols[..., 5] = atoms(dE_t_el, E_r)
    return D


def fisher_matrix(D: np.ndarray, s: ObservationSetup) -> np.ndarray:
    """Fisher information (2 alpha2 / sigma2) Re{D^H P D}, symmetrized."""
    if s.sigma2 <= 0:
        raise ValueError("Fisher information diverges for a noiseless setup")
    PD = projection_apply(s, D)
    M = (2.0 * s.alpha2 / s.sigma2) * (D.conj().T @ PD).real
    return (M + M.T) / 2.0


def fim_block(I: np.ndarray, p: int, q: int) -> np.ndarray:
    """6x6 coupling block between the parameters of paths p and q."""
    return I[6 * p: 6 * p + 6, 6 * q: 6 * q + 6]


def _direction_info(g: ArrayGeometry, d: Direction) -> np.ndarray:
    """2x2 angular information factor of one array: quadratic forms of the
    scaled positions against the two unit tangents, divided by n."""
    v_az, v_el = tangent_basis(d)
    m_az = g.scaled_positions.T @ v_az
    m_el = g.scaled_positions.T @ v_el
    return np.array([
        [m_az @ m_az, m_az @ m_el],
        [m_el @ m_az, m_el @ m_el],
    ]) / g.n_antennas


def intra_path_block(p: PathParams, g_r: ArrayGeometry, g_t: ArrayGeometry,
                     alpha2: float, sigma2: float) -> np.ndarray:
    """Closed-form single-path information block under lossless observation.

    Block-diagonal: the gain pair, the arrival pair and the departure pair
    are mutually uncoupled (a consequence of centroid-centered arrays), so
    the block is (2 rho^2 alpha2 / sigma2) * diag(1/rho^2, 1, B_rx, B_tx)
    with B the per-array 2x2 angular factors.
    """
    block = np.zeros((6, 6))
    block[0, 0] = 1.0 / p.rho ** 2
    block[1, 1] = 1.0
    block[2:4, 2:4] = _direction_info(g_r, p.doa)
    block[4:6, 4:6] = _direction_info(g_t, p.dod)
    return (2.0 * p.rho ** 2 * alpha2 / sigma2) * block


@dataclass(frozen=True)
class CrbResult:
    """Relative variance bound plus the conditioning diagnostics.

    condition_number is that of the Fisher matrix equilibrated by its
    diagonal (see crb_trace), so it does not depend on units or gain scale.
    When it exceeds the threshold the value is computed through an
    eigen-truncated pseudo-inverse, which keeps it non-negative, and
    ill_conditioned is set: the model is not
    (practically) identifiable at this parameter point, which typically
    means two paths share nearly identical directions and should be merged
    into one virtual path.
    """

    value: float
    condition_number: float
    ill_conditioned: bool


def crb_trace(D: np.ndarray, I: np.ndarray, h,
              cond_threshold: float = DEFAULT_COND_THRESHOLD) -> CrbResult:
    """Lower bound trace(D I^-1 D^H) / ||h||^2 on the relative variance.

    I is equilibrated by its diagonal, Ie = S I S with S = diag(I)^-1/2
    (1 where a diagonal entry is not positive), and the bound is solved in
    those coordinates: trace(I^-1 D^H D) = trace(Ie^-1 S D^H D S). The
    condition number is w_max / w_min over the eigenvalues w of the
    symmetric Ie, and inf when w_min <= 0 or a diagonal entry is not
    positive. Up to the threshold the bound is a symmetric solve. Above it
    the result is flagged, and Ie^-1 becomes the pseudo-inverse that keeps
    only the eigenvalues above k eps w_max (k the parameter count, eps the
    float64 epsilon): the bound is then ||D S V w^-1/2||_F^2 / ||h||^2 over
    those eigenpairs (V, w), a sum of squares and never negative.
    """
    energy = channel_energy(h)
    diag = np.diag(I)
    scaled = diag > 0
    S = np.ones_like(diag)
    S[scaled] = 1.0 / np.sqrt(diag[scaled])
    Ie = S[:, None] * I * S
    w = np.linalg.eigvalsh(Ie)
    cond = float(w[-1] / w[0]) if w[0] > 0 and scaled.all() else math.inf
    if math.isfinite(cond) and cond <= cond_threshold:
        Ge = S[:, None] * (D.conj().T @ D) * S
        value = float(np.trace(solve(Ie, Ge, assume_a="sym")).real) / energy
        return CrbResult(value, cond, False)
    w, V = np.linalg.eigh(Ie)
    keep = w > len(w) * np.finfo(float).eps * w[-1]
    Z = D @ (S[:, None] * V[:, keep] / np.sqrt(w[keep]))
    return CrbResult(float(np.vdot(Z, Z).real) / energy, cond, True)


def optimal_bound(n_paths: int, snr_linear: float) -> float:
    """Floor 3P/SNR of the relative variance under lossless observation."""
    if n_paths < 1:
        raise ValueError("need at least one path")
    if snr_linear <= 0:
        raise ValueError("SNR must be positive")
    return 3.0 * n_paths / snr_linear


def check_optimal_observation(D: np.ndarray, s: ObservationSetup) -> float:
    """Relative residual ||(Id - P) D||_F / ||D||_F.

    Zero (below ~1e-10) certifies that the observation projection leaves the
    Jacobian range untouched, the condition under which the bound reaches
    its 3P/SNR floor.
    """
    PD = projection_apply(s, D)
    return float(np.linalg.norm(D - PD) / np.linalg.norm(D))


def inter_path_coupling_mass(I: np.ndarray) -> float:
    """Relative Frobenius mass of the cross-path coupling blocks."""
    P = I.shape[0] // PARAMS_PER_PATH
    off = I.copy()
    for p in range(P):
        off[6 * p: 6 * p + 6, 6 * p: 6 * p + 6] = 0.0
    total = np.linalg.norm(I)
    return float(np.linalg.norm(off) / total) if total > 0 else 0.0


@one_blas_thread
def crb_report(ps: PathSet, g_r: ArrayGeometry, g_t: ArrayGeometry,
               s: ObservationSetup, include_blocks: bool = False,
               cond_threshold: float = DEFAULT_COND_THRESHOLD) -> dict:
    """Bundle the bound, its floor, and the identifiability diagnostics.

    Runs on one BLAS thread (see blas.one_blas_thread): its solves are too
    small to gain from more, and the bound's digits then do not depend on
    the environment's thread count.
    """
    D = channel_jacobian(ps, g_r, g_t)
    I = fisher_matrix(D, s)
    h = synthesize(ps, g_r, g_t).vector
    result = crb_trace(D, I, h, cond_threshold=cond_threshold)
    snr_linear = snr(s, h)
    report = {
        "n_p": int(I.shape[0]),
        "snr": snr_linear,
        "crb_relative": result.value,
        "floor_3p_over_snr": optimal_bound(len(ps), snr_linear),
        "condition_number": result.condition_number,
        "optimal_observation_residual": check_optimal_observation(D, s),
        "ill_conditioned": result.ill_conditioned,
        "inter_path_coupling_mass": inter_path_coupling_mass(I),
    }
    if include_blocks:
        report["per_path_blocks"] = [fim_block(I, p, p).tolist() for p in range(len(ps))]
    return report
