"""Fisher information and Cramer-Rao limits for the sparse channel model.

Each path contributes six real parameters, ordered (rho, phi, doa_az,
doa_el, dod_az, dod_el); a P-path model therefore has 6P parameters. The
Fisher matrix follows from the Gaussian observation model as I = A^T A,
where column k of the real matrix A is the derivative of the whitened
observation: sqrt(2 / sigma2) times the real and imaginary parts of
vec(Q_w^H D_k X), with D_k column k of the channel Jacobian D as an
n_r x n_t matrix and Q_w an orthonormal basis of the combiner range. One
QR of A gives the triangular factor R with I = R^T R, and the bound, the
per-path blocks and the coupling mass are all read off R. The bound is
never computed from I, so its digits do not suffer the squared
conditioning of I. Direction entries are per radian of arc along
the unit tangents, which keeps the bound shape-independent for isotropic
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blas import one_blas_thread
from .channel import PathParams, PathSet, steering_derivatives, synthesize
from .geometry import ArrayGeometry, Direction, is_finite_real, tangent_basis
from .observation import ObservationSetup, channel_energy, exact_scale, projection_apply, snr

PARAMS_PER_PATH = 6
DEFAULT_COND_THRESHOLD = 1e12


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


def fisher_factor(D: np.ndarray, s: ObservationSetup) -> np.ndarray:
    """Upper-triangular factor R of the Fisher information I = R^T R.

    R is that of one QR of the real 2 n_c n_s x k matrix A whose column k
    stacks the real and imaginary parts of sqrt(2 / sigma2) vec(Q_w^H D_k X),
    so I = A^T A too; R is k x k, with fewer rows only when A has fewer than
    k. A is not kept. A sigma2 of 0, or so small that 2 / sigma2 overflows,
    raises ValueError.
    """
    if s.sigma2 <= 0 or 2.0 / s.sigma2 == math.inf:
        raise ValueError("Fisher information diverges: 2 / sigma2 overflows for a noiseless "
                         f"or nearly noiseless setup, sigma2 = {s.sigma2} (given or set by "
                         "target_snr_db)")
    k = D.shape[1]
    Qh = math.sqrt(2.0 / s.sigma2) * s.Q_w.conj().T
    Z = np.empty((k, s.n_s, s.n_c), dtype=complex)
    # DX[j, i, k] = (D_k X)[i, j]; D's rows are i + n_r j, so the reshape is free
    DX = (s.X.T @ D.reshape(s.n_t, s.n_r * k)).reshape(s.n_s, s.n_r, k)
    np.matmul(Qh, DX, out=Z.transpose(1, 2, 0))
    del DX   # before the QR copies A: 3 MB of peak memory on a 64x16 report
    return np.linalg.qr(Z.view(float).reshape(k, -1).T, mode="r")


def fisher_matrix(D: np.ndarray, s: ObservationSetup) -> np.ndarray:
    """Fisher information R^T R of the Jacobian D (see fisher_factor)."""
    R = fisher_factor(D, s)
    return R.T @ R


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
    When it exceeds the threshold the value keeps only the singular values
    of the factor above a round-off cutoff, a truncated pseudo-inverse that
    is never negative, and ill_conditioned is set: the model is not
    (practically) identifiable at this parameter point, which typically
    means two paths share nearly identical directions and should be merged
    into one virtual path.
    """

    value: float
    condition_number: float
    ill_conditioned: bool


def crb_trace(D: np.ndarray, R: np.ndarray, h,
              cond_threshold: float = DEFAULT_COND_THRESHOLD) -> CrbResult:
    """Lower bound trace(D I^-1 D^H) / ||h||^2 on the relative variance, I = R^T R.

    R is any real factor of I with one column per parameter, such as that
    of fisher_factor. Its columns are equilibrated to unit norm, R S with
    S = diag(I)^-1/2 (1 for a zero column), and the SVD R S = U Sigma V^T
    is taken. Then
    I^-1 = S V Sigma^-2 V^T S, and the bound is
    ||[Re D; Im D] S V Sigma^-1||_F^2 / ||h||^2, a sum of squares. The
    condition number is (sigma_max / sigma_min)^2, the eigenvalue ratio of
    S I S, and inf for a zero column or sigma_min = 0. The threshold decides
    only which singular values are kept: all of them up to it; above it the
    result is flagged and only those with sigma^2 > k eps sigma_max^2 are
    kept (k the parameter count, eps the float64 epsilon). cond_threshold
    must be a finite number of at least 1 (ValueError otherwise).

    R is divided by 2^e (see exact_scale) first and the bound multiplied by
    4^e last, both exactly, so that no norm of R overflows and no term of the
    sum underflows at extreme noise levels; elsewhere the digits are those
    of the unscaled computation. A bound above the largest float raises
    ValueError.
    """
    if not (is_finite_real(cond_threshold) and cond_threshold >= 1.0):
        raise ValueError("cond_threshold must be a finite number of at least 1, "
                         f"got {cond_threshold!r}")
    energy = channel_energy(h)
    k = R.shape[1]
    R, e = exact_scale(R)
    norms = np.linalg.norm(R, axis=0)
    S = 1.0 / np.where(norms > 0, norms, 1.0)
    _, sigma, Vt = np.linalg.svd(R * S, full_matrices=False)
    full_rank = sigma.size == k and sigma[-1] > 0 and norms.all()
    cond = float(sigma[0] / sigma[-1]) ** 2 if full_rank else math.inf
    flagged = not cond <= cond_threshold
    keep = sigma ** 2 > k * np.finfo(float).eps * sigma[0] ** 2 if flagged else slice(None)
    B = S[:, None] * Vt[keep].T / sigma[keep]
    # the halves of [Re D; Im D] B one at a time, to hold one in memory
    value = sum(np.linalg.norm(part @ B) ** 2 for part in (D.real, D.imag))
    try:
        bound = math.ldexp(float(value) / energy, -2 * e)
    except OverflowError:
        raise ValueError("the bound exceeds the largest float: the information is too "
                         "weak for the noise variance sigma2") from None
    return CrbResult(bound, cond, flagged)


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

    Runs on one BLAS thread (see blas.one_blas_thread): its factorizations
    are too small to gain from more, and the bound's digits then do not
    depend on the environment's thread count.
    """
    D = channel_jacobian(ps, g_r, g_t)
    R = fisher_factor(D, s)
    h = synthesize(ps, g_r, g_t).vector
    result = crb_trace(D, R, h, cond_threshold=cond_threshold)
    # I = 4^e F exactly (see exact_scale), and F does not overflow at any noise level
    F, e = exact_scale(R)
    F = F.T @ F
    snr_linear = snr(s, h)
    report = {
        "n_p": int(F.shape[0]),
        "snr": snr_linear,
        "crb_relative": result.value,
        "floor_3p_over_snr": optimal_bound(len(ps), snr_linear),
        "condition_number": result.condition_number,
        "optimal_observation_residual": check_optimal_observation(D, s),
        "ill_conditioned": result.ill_conditioned,
        "inter_path_coupling_mass": inter_path_coupling_mass(F),
    }
    if include_blocks:
        if math.frexp(float(np.abs(F).max()))[1] + 2 * e > 1024:
            raise ValueError("per-path blocks exceed the largest float at the noise variance "
                             f"sigma2 = {s.sigma2}; raise it or leave out include_blocks")
        I = np.ldexp(F, 2 * e)
        report["per_path_blocks"] = [fim_block(I, p, p).tolist() for p in range(len(ps))]
    return report
