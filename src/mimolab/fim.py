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

The optimal-observation residual ||(Id - P) D||_F / ||D||_F is read off the
Jacobian's Kronecker factors, never off D: column k is w_k (f_t^* kron f_r),
one steering vector or tangent derivative per array, and with P_r = Q_w Q_w^H
and M_t = X X^H / alpha2, ||(Id - P) D_k||^2 is |w_k|^2 (||(I - M_t) f_t||^2
||P_r f_r||^2 + ||f_t||^2 ||(I - P_r) f_r||^2), the squared norms of two
mutually orthogonal parts. Every term is non-negative, so nothing cancels and
the residual keeps its digits down to the 1e-10 the lossless checks read;
subtracting ||P D||^2 from ||D||^2 would not (see check_optimal_observation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blas import one_blas_thread
from .channel import PathParams, PathSet, steering_derivatives, synthesize
from .geometry import ArrayGeometry, Direction, is_finite_real, tangent_basis
from .observation import ATOM_NORM_TOL, ObservationSetup, channel_energy, exact_scale, overflows, snr

PARAMS_PER_PATH = 6
COND_THRESHOLD = 1e12


def _jacobian_factors(ps: PathSet, g_r: ArrayGeometry, g_t: ArrayGeometry):
    """The per-array factors of channel_jacobian's columns: (E_r, dE_r_az, dE_r_el)
    of the arrivals, (E_t, dE_t_az, dE_t_el) of the departures (see
    steering_derivatives), the gains c and their magnitudes rho."""
    return (steering_derivatives(g_r, [p.doa for p in ps]),
            steering_derivatives(g_t, [p.dod for p in ps]),
            np.array([p.gain for p in ps]), np.array([p.rho for p in ps]))


def channel_jacobian(ps: PathSet, g_r: ArrayGeometry, g_t: ArrayGeometry) -> np.ndarray:
    """Derivatives of the vectorized channel, one column per parameter.

    For path p with gain c and vectorized atom h_p = c (e_t^* kron e_r):
    the rho column is h_p / rho, the phi column j h_p, and the four
    direction columns replace e_r (resp. e_t) by its tangent derivative.
    """
    (E_r, dE_r_az, dE_r_el), (E_t, dE_t_az, dE_t_el), c, rho = _jacobian_factors(ps, g_r, g_t)
    n_r, n_t, P = E_r.shape[0], E_t.shape[0], len(ps)

    def atoms(F_t, F_r):
        # c_p (f_t^* kron f_r) of every path p, indexed [tx antenna, rx antenna, p]
        return c * (F_t.conj()[:, None] * F_r)

    D = np.empty((n_r * n_t, PARAMS_PER_PATH * P), dtype=complex)
    cols = D.reshape(n_t, n_r, P, PARAMS_PER_PATH)   # cols[j, i, p, k] = D[i + n_r j, 6p + k]
    h = atoms(E_t, E_r)
    cols[..., 0] = h / rho
    cols[..., 1] = 1j * h
    cols[..., 2] = atoms(E_t, dE_r_az)
    cols[..., 3] = atoms(E_t, dE_r_el)
    cols[..., 4] = atoms(dE_t_az, E_r)
    cols[..., 5] = atoms(dE_t_el, E_r)
    return D


def _log2_norms(M: np.ndarray) -> np.ndarray:
    """log2 of M's column norms, each on its own power of two (see exact_scale); -inf for 0."""
    A, f = exact_scale(np.abs(M), axis=0)
    with np.errstate(divide="ignore"):
        return np.log2(np.linalg.norm(A, axis=0)) + f


def fisher_factor(D: np.ndarray, s: ObservationSetup) -> np.ndarray:
    """Upper-triangular factor R of the Fisher information I = R^T R.

    R is that of one QR of the real 2 n_c n_s x k matrix A whose column k
    stacks the real and imaginary parts of sqrt(2 / sigma2) vec(Q_w^H D_k X),
    so I = A^T A too; R is k x k, with fewer rows only when A has fewer than
    k. A is not kept. A sigma2 of 0, or so small that 2 / sigma2 overflows,
    raises ValueError, as does an R that is not finite: A, or its column
    norms, beyond the largest float at this pilot power and sigma2. Column k
    of R has norm ||A_k|| <= sqrt(2 / sigma2) ||D_k||_F ||X||_F, and is zeroed
    as rounding noise at ATOM_NORM_TOL times that; if all are, ValueError names X, W.
    A D without n_r n_t rows raises ValueError too.
    """
    if s.sigma2 <= 0 or 2.0 / s.sigma2 == math.inf:
        raise ValueError("Fisher information diverges: 2 / sigma2 overflows for a noiseless "
                         f"or nearly noiseless setup, sigma2 = {s.sigma2} (given or set by "
                         "target_snr_db)")
    if D.ndim != 2 or D.shape[0] != s.n_r * s.n_t:
        raise ValueError(f"the Jacobian D is {' x '.join(map(str, D.shape))}, but the setup "
                         f"needs n_r * n_t = {s.n_r} * {s.n_t} rows")
    k = D.shape[1]
    Qh = math.sqrt(2.0 / s.sigma2) * s.Q_w.conj().T
    Z = np.empty((k, s.n_s, s.n_c), dtype=complex)
    # DX[j, i, k] = (D_k X)[i, j]; D's rows are i + n_r j, so the reshape is free
    DX = (s.X.T @ D.reshape(s.n_t, s.n_r * k)).reshape(s.n_s, s.n_r, k)
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow is caught in R below
        np.matmul(Qh, DX, out=Z.transpose(1, 2, 0))
    del DX   # before the QR copies A: 3 MB of peak memory on a 64x16 report
    R = np.linalg.qr(Z.view(float).reshape(k, -1).T, mode="r")
    if not np.isfinite(R).all():
        raise ValueError("Fisher information overflows at pilot power alpha2 = "
                         f"{s.alpha2} and noise variance sigma2 = {s.sigma2}")
    noise = _log2_norms(R) <= _log2_norms(D) + math.log2(ATOM_NORM_TOL) + 0.5 * (
        math.log2(2 * s.n_s) + math.log2(s.alpha2) - math.log2(s.sigma2))
    if noise.all():
        raise ValueError("the pilot matrix X and the combiner matrix W annihilate every parameter")
    R[:, noise] = 0.0
    return R


def fisher_matrix(D: np.ndarray, s: ObservationSetup) -> np.ndarray:
    """Fisher information R^T R of the Jacobian D (see fisher_factor)."""
    R = fisher_factor(D, s)
    return R.T @ R


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

    condition_number, of the Fisher matrix equilibrated by its diagonal (see
    crb_trace), is free of units and gain scale. Above COND_THRESHOLD
    ill_conditioned is set: the model is not (practically) identifiable here,
    typically two nearly coincident paths, to be merged into one virtual path.
    """

    value: float
    condition_number: float
    ill_conditioned: bool


def crb_trace(D: np.ndarray, R: np.ndarray, h) -> CrbResult:
    """Lower bound trace(D I^-1 D^H) / ||h||^2 on the relative variance, I = R^T R.

    R is any real factor of I with one column per parameter, such as that
    of fisher_factor; the parameter of a zero column drops out, and an R of
    zero columns only raises ValueError. With
    R S = U Sigma V^T, S = diag(I)^-1/2 equilibrating R's columns,
    I^-1 = S V Sigma^-2 V^T S and the bound is the sum of squares
    ||[Re D; Im D] S V Sigma^-1||_F^2 / ||h||^2 over the sigma with
    sigma^2 > k eps sigma_max^2 (k parameters, eps the float64 epsilon):
    all of them for k < 4500 up to a condition number (sigma_max /
    sigma_min)^2 of COND_THRESHOLD, above which the result is flagged. That
    number, the eigenvalue ratio of S I S, is inf where a column drops out
    or sigma_min = 0.

    Column j of R is taken on its own power of two 2^f_j (exact_scale with
    axis=0), column j of D on 2^(f_j + g), g the one power that brings D
    below 1, and ||h||^2 on channel_energy's scale, all exactly; the bound
    takes 2^2g back last, so no square overflows or underflows and the digits
    are the unscaled ones. A bound above the largest float raises ValueError.
    """
    E, k_h = channel_energy(h)
    k = R.shape[1]
    R, f = exact_scale(R, axis=0)
    live = R.any(axis=0)
    if not live.any():
        raise ValueError("no column of the factor R is nonzero: every parameter drops out")
    if not live.all():   # a zero column's parameter drops out, of the bound and of g
        R, D, f = R[:, live], D[:, live], f[live]
    S = 1.0 / np.linalg.norm(R, axis=0)
    _, sigma, Vt = np.linalg.svd(R * S, full_matrices=False)
    cond = float(sigma[0] / sigma[-1]) ** 2 if sigma.size == k and sigma[-1] > 0 else math.inf
    keep = sigma ** 2 > k * np.finfo(float).eps * sigma[0] ** 2
    B = S[:, None] * Vt[keep].T / sigma[keep]
    g = int((np.frexp(np.abs(D).max(axis=0))[1] - f).max())
    # the halves of [Re D; Im D] one at a time, to hold one in memory
    value = sum(np.linalg.norm(np.ldexp(part, -(f + g)) @ B) ** 2 for part in (D.real, D.imag))
    ratio, e = float(value / E), 2 * g - k_h
    if overflows(ratio, e):
        raise ValueError("the bound exceeds the largest float: the information is too "
                         "weak for the noise variance sigma2")
    return CrbResult(math.ldexp(ratio, e), cond, cond > COND_THRESHOLD)


def optimal_bound(n_paths: int, snr_linear: float) -> float:
    """Floor 3P/SNR of the relative variance under lossless observation; an SNR
    that is not a positive finite number raises ValueError."""
    if n_paths < 1:
        raise ValueError("need at least one path")
    if not (is_finite_real(snr_linear) and snr_linear > 0):
        raise ValueError(f"SNR must be a positive finite number, got {snr_linear!r}")
    return 3.0 * n_paths / snr_linear


# the (transmit, receive) factors of a path's six columns: 0 = E, 1 = dE_az, 2 = dE_el
_FACTORS_T = np.array([0, 0, 0, 0, 1, 2])
_FACTORS_R = np.array([0, 0, 1, 2, 0, 0])


def _scaled_sum(m: np.ndarray, f: np.ndarray) -> tuple[float, int]:
    """(M, F) with sum m 4^f = M 4^F over all entries, summed on the largest f of a nonzero m."""
    F = int(f[m > 0].max(initial=0))
    return float(np.ldexp(m, 2 * (f - F)).sum()), F


def check_optimal_observation(ps: PathSet, g_r: ArrayGeometry, g_t: ArrayGeometry,
                              s: ObservationSetup) -> float:
    """Relative residual ||(Id - P) D||_F / ||D||_F of the Jacobian D = channel_jacobian(...).

    Zero (below ~1e-10) certifies that the observation projection P leaves the
    Jacobian range untouched, the condition under which the bound reaches
    its 3P/SNR floor. D is never formed: column k is w_k (f_t^* kron f_r),
    f_t one of e_t, de_t_az, de_t_el and f_r one of e_r, de_r_az, de_r_el,
    with w_k = c / rho, j c or c (|w_k| = 1 or rho), and P D_k is
    w_k ((M_t f_t)^* kron P_r f_r) for the projector P_r = Q_w Q_w^H and
    M_t = X X^H / alpha2 (a projector only for orthogonal pilots). Splitting
    f_r = P_r f_r + (I - P_r) f_r leaves two mutually orthogonal parts for
    any X, so ||(Id - P) D_k||^2 = |w_k|^2 (||(I - M_t) f_t||^2 ||P_r f_r||^2
    + ||f_t||^2 ||(I - P_r) f_r||^2) and ||D_k||^2 = |w_k|^2 ||f_t||^2 ||f_r||^2:
    sums of non-negative terms that cannot cancel, from the 3P factor columns
    of each array. Identity observation reads exactly 0.0. Each |w_k| and each
    factor norm is taken on its own power of two (see exact_scale) and the
    two sums on their largest, so no square overflows or underflows at any rho.
    """
    s.check_fits(g_r.n_antennas, g_t.n_antennas)
    F_r, F_t, _, rho = _jacobian_factors(ps, g_r, g_t)
    F_r, F_t = np.concatenate(F_r, axis=1), np.concatenate(F_t, axis=1)   # 3P columns each
    w, e = np.frexp(np.stack([np.ones_like(rho)] + [rho] * 5))   # |w_k| = w 2^e, 6 x P

    def norms(M, factors):
        # squared norm of each column's factor among M's 3P columns, as (m, f), m 4^f, 6 x P
        A, f = exact_scale(np.abs(M), axis=0)
        m = np.einsum("ij,ij->j", A, A)
        return m.reshape(3, -1)[factors], f.reshape(3, -1)[factors]

    def terms(a, b):
        # |w_k|^2 times the product of two such norms, as (m, f)
        return w * w * a[0] * b[0], e + a[1] + b[1]

    in_r = s.Q_w @ (s.Q_w.conj().T @ F_r)
    r, r_in, r_out = (norms(M, _FACTORS_R) for M in (F_r, in_r, F_r - in_r))
    t, t_out = (norms(M, _FACTORS_T) for M in (F_t, F_t - s.X @ (s.X.conj().T @ F_t) / s.alpha2))
    (m_in, f_in), (m_out, f_out) = terms(t_out, r_in), terms(t, r_out)
    num = _scaled_sum(np.stack([m_in, m_out]), np.stack([f_in, f_out]))
    den = _scaled_sum(*terms(t, r))
    return math.ldexp(math.sqrt(num[0] / den[0]), num[1] - den[1])


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
               s: ObservationSetup, include_blocks: bool = False) -> dict:
    """Bundle the bound, its floor, and the identifiability diagnostics.

    Runs on one BLAS thread (see blas.one_blas_thread): its factorizations
    are too small to gain from more, and the bound's digits then do not
    depend on the environment's thread count. A setup whose X and W do not
    have one row per transmit and per receive antenna raises ValueError.
    """
    s.check_fits(g_r.n_antennas, g_t.n_antennas)
    D = channel_jacobian(ps, g_r, g_t)
    R = fisher_factor(D, s)
    h = synthesize(ps, g_r, g_t).vector
    result = crb_trace(D, R, h)
    # I = 4^e F exactly (see exact_scale), and F does not overflow at any noise level
    F, e = exact_scale(R)
    F = F.T @ F
    snr_linear = snr(s, h)
    report = {
        "n_p": int(F.shape[0]),
        "snr": snr_linear,
        "crb_relative": result.value,
        "floor_3p_over_snr": optimal_bound(len(ps), snr_linear),
        # strict JSON has no inf: a condition number without a finite value is null
        "condition_number": result.condition_number if result.condition_number < math.inf else None,
        "optimal_observation_residual": check_optimal_observation(ps, g_r, g_t, s),
        "ill_conditioned": result.ill_conditioned,
        "inter_path_coupling_mass": inter_path_coupling_mass(F),
    }
    if include_blocks:
        if overflows(float(np.abs(F).max()), 2 * e):
            raise ValueError("per-path blocks exceed the largest float at the noise variance "
                             f"sigma2 = {s.sigma2}; raise it or leave out include_blocks")
        I = np.ldexp(F, 2 * e)
        report["per_path_blocks"] = [I[i:i + 6, i:i + 6].tolist() for i in range(0, len(I), 6)]
    return report
