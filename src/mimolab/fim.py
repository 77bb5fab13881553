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
never computed from I: it takes the singular values of R with its columns
equilibrated and, where none is cut, the inverse of that triangular factor
(see crb_trace), so its digits do not suffer the squared conditioning of
I. Direction entries are per radian of arc along
the unit tangents, which keeps the bound shape-independent for isotropic
arrays.

The Jacobian is kept in its Kronecker form (see Jacobian): column k of D is
w_k (f_t^* kron f_r), one steering vector or tangent derivative per array,
so D_k as a matrix is w_k f_r f_t^H and Q_w^H D_k X is the outer product
w_k (Q_w^H f_r) (X^T f_t^*)^T. A is assembled from the 3P projected factor
columns of each array, never from the projection of D, and the column norms
||D_k|| are read off the factors as well. The dense D is formed once per
bound, for crb_trace's products.

The optimal-observation residual ||(Id - P) D||_F / ||D||_F is read off the
factors too: with P_r = Q_w Q_w^H and M_t = X X^H / alpha2,
||(Id - P) D_k||^2 is |w_k|^2 (||(I - M_t) f_t||^2 ||P_r f_r||^2 +
||f_t||^2 ||(I - P_r) f_r||^2), the squared norms of two mutually orthogonal
parts. Every term is non-negative, so nothing cancels and the residual keeps
its digits down to the 1e-10 the lossless checks read; subtracting ||P D||^2
from ||D||^2 would not (see check_optimal_observation).
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
# rows of [Re D; Im D] per product in crb_trace
_TRACE_BLOCK_ROWS = 256
# the largest diagonal block _triangular_inverse hands to np.linalg.inv
_INVERSE_LEAF = 64

# the (transmit, receive) factors of a path's six columns: 0 = E, 1 = dE_az, 2 = dE_el
_FACTORS_T = np.array([0, 0, 0, 0, 1, 2])
_FACTORS_R = np.array([0, 0, 1, 2, 0, 0])


def _log2_norms(M: np.ndarray) -> np.ndarray:
    """log2 of M's column norms, each on its own power of two (see exact_scale); -inf for 0."""
    A, f = exact_scale(np.abs(M), axis=0)
    with np.errstate(divide="ignore"):
        return np.log2(np.linalg.norm(A, axis=0)) + f


@dataclass(frozen=True, eq=False)
class Jacobian:
    """Derivatives of the vectorized channel, one column per parameter, in
    Kronecker form.

    For path p with gain c, magnitude rho and vectorized atom
    h_p = c (e_t^* kron e_r), the rho column is h_p / rho, the phi column
    j h_p, and the four direction columns replace e_r (resp. e_t) by its
    tangent derivative: column 6p + m is w (f_t^* kron f_r) with w = c / rho,
    j c, c, c, c, c and the factors _FACTORS_T[m], _FACTORS_R[m] of the path
    (0 = e, 1 = de_az, 2 = de_el). F_r (n_r x 3P) and F_t_conj (n_t x 3P)
    hold them as [E, dE_az, dE_el] of all paths (see steering_derivatives),
    the transmit factors conjugated, as they enter D; c holds the gains and
    rho their magnitudes; |w| is exactly 1 or rho.
    """

    F_r: np.ndarray
    F_t_conj: np.ndarray
    c: np.ndarray
    rho: np.ndarray

    @property
    def n_r(self) -> int:
        return self.F_r.shape[0]

    @property
    def n_t(self) -> int:
        return self.F_t_conj.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        """That of the dense D: n_r n_t rows, 6P columns."""
        return self.n_r * self.n_t, PARAMS_PER_PATH * len(self.c)

    def per_parameter(self, M: np.ndarray, factors: np.ndarray) -> np.ndarray:
        """Column 6p + m is column factors[m] P + p of M, whose last axis runs over
        the 3P factor columns of an array (as F_r's and F_t_conj's do)."""
        P = len(self.c)
        return M[..., (factors * P + np.arange(P)[:, None]).ravel()]

    def weights(self) -> np.ndarray:
        """w of every column: c / rho, j c, c, c, c, c per path."""
        c = self.c
        return np.stack([c / self.rho, 1j * c, c, c, c, c], axis=1).ravel()

    def abs_weights(self) -> np.ndarray:
        """|w| of every column, exactly: 1 and five times rho per path, P x 6."""
        return np.stack([np.ones_like(self.rho)] + [self.rho] * 5, axis=1)

    def log2_column_norms(self) -> np.ndarray:
        """log2 ||D_k|| = log2 |w_k| + log2 ||f_t|| + log2 ||f_r|| of every column,
        each factor norm on its own power of two (see _log2_norms), so no rho
        overflows or underflows; -inf for a zero column."""
        return (np.log2(self.abs_weights()).ravel()
                + self.per_parameter(_log2_norms(self.F_t_conj), _FACTORS_T)
                + self.per_parameter(_log2_norms(self.F_r), _FACTORS_R))

    def dense(self) -> np.ndarray:
        """The n_r n_t x 6P matrix D, row i + n_r j for receive antenna i and
        transmit antenna j, formed through no temporary of D's size."""
        P = len(self.c)
        D = np.empty(self.shape, dtype=complex)
        # cols[j, i, p, k] = D[i + n_r j, 6p + k]
        cols = D.reshape(self.n_t, self.n_r, P, PARAMS_PER_PATH)
        F_r = self.F_r.reshape(self.n_r, 3, P)
        F_t = self.F_t_conj.reshape(self.n_t, 3, P)
        for k, (t, r) in enumerate(zip(_FACTORS_T, _FACTORS_R)):
            if k != 1:   # column 1 is j times column 0's c_p (f_t^* kron f_r)
                # c_p (f_t^* kron f_r) of every path p, indexed [tx antenna, rx antenna, p]
                np.multiply(F_t[:, None, t], F_r[:, r], out=cols[..., k])
                np.multiply(self.c, cols[..., k], out=cols[..., k])   # c first: x c may round apart
        np.multiply(1j, cols[..., 0], out=cols[..., 1])
        cols[..., 0] /= self.rho
        return D


def channel_jacobian(ps: PathSet, g_r: ArrayGeometry, g_t: ArrayGeometry) -> Jacobian:
    """The Jacobian of the vectorized channel at the paths ps, in Kronecker form:
    the steering vectors and tangent derivatives of each array (see Jacobian)."""
    return Jacobian(np.concatenate(steering_derivatives(g_r, [p.doa for p in ps]), axis=1),
                    np.concatenate(steering_derivatives(g_t, [p.dod for p in ps]), axis=1).conj(),
                    np.array([p.gain for p in ps]), np.array([p.rho for p in ps]))


def fisher_factor(J: Jacobian, s: ObservationSetup) -> np.ndarray:
    """Upper-triangular factor R of the Fisher information I = R^T R.

    R is that of one QR of the real 2 n_c n_s x k matrix A whose column k
    stacks the real and imaginary parts of sqrt(2 / sigma2) vec(Q_w^H D_k X),
    so I = A^T A too; R is k x k, with fewer rows only when A has fewer than
    k. A is assembled from the factors of J: its column k is the outer
    product of w_k X^T f_t^* and sqrt(2 / sigma2) Q_w^H f_r, of the n_s x 3P
    and n_c x 3P projections of each array's factor columns, and is not kept.
    A sigma2 of 0, or so small that 2 / sigma2 overflows, raises ValueError,
    as does an R that is not finite: A, or its column norms, beyond the
    largest float at this pilot power and sigma2. Column k of R has norm
    ||A_k|| <= sqrt(2 / sigma2) ||D_k||_F ||X||_F, with ||D_k||_F read off the
    factors (see Jacobian.log2_column_norms), and is zeroed as rounding noise
    at ATOM_NORM_TOL times that; if all are, ValueError names X, W. A setup
    whose X and W do not fit J's arrays raises ValueError too.
    """
    if s.sigma2 <= 0 or 2.0 / s.sigma2 == math.inf:
        raise ValueError("Fisher information diverges: 2 / sigma2 overflows for a noiseless "
                         f"or nearly noiseless setup, sigma2 = {s.sigma2} (given or set by "
                         "target_snr_db)")
    s.check_fits(J.n_r, J.n_t)
    k = J.shape[1]
    Z = np.empty((k, s.n_s, s.n_c), dtype=complex)   # Z[k, j, i] = (Q_w^H D_k X)[i, j], scaled
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow is caught in R below
        b = J.per_parameter(s.X.T @ J.F_t_conj, _FACTORS_T) * J.weights()
        a = J.per_parameter(math.sqrt(2.0 / s.sigma2) * s.Q_w.conj().T @ J.F_r, _FACTORS_R)
        np.multiply(b.T[:, :, None], a.T[:, None, :], out=Z)
    R = np.linalg.qr(Z.view(float).reshape(k, -1).T, mode="r")
    if not np.isfinite(R).all():
        raise ValueError("Fisher information overflows at pilot power alpha2 = "
                         f"{s.alpha2} and noise variance sigma2 = {s.sigma2}")
    noise = _log2_norms(R) <= J.log2_column_norms() + math.log2(ATOM_NORM_TOL) + 0.5 * (
        math.log2(2 * s.n_s) + math.log2(s.alpha2) - math.log2(s.sigma2))
    if noise.all():
        raise ValueError("the pilot matrix X and the combiner matrix W annihilate every parameter")
    R[:, noise] = 0.0
    return R


def fisher_matrix(J: Jacobian, s: ObservationSetup) -> np.ndarray:
    """Fisher information R^T R of the Jacobian J (see fisher_factor)."""
    R = fisher_factor(J, s)
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


def _triangular_inverse(T: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular upper-triangular T, by halves:
    [[A, B], [0, C]]^-1 = [[A^-1, -A^-1 B C^-1], [0, C^-1]], down to diagonal
    blocks of at most _INVERSE_LEAF, which np.linalg.inv takes. The LU of a
    nonsingular triangular block never pivots (every entry below a pivot is
    0), so L = I and U is the block: each leaf is a triangular solve, and the
    entries below the diagonal of the result are exactly 0. Each diagonal
    block of T is at least as well conditioned as T: its inverse is a block
    of T^-1."""
    n = T.shape[0]
    if n <= _INVERSE_LEAF:
        return np.linalg.inv(T)
    h = n // 2
    X = np.zeros_like(T)
    X[:h, :h] = _triangular_inverse(T[:h, :h])
    X[h:, h:] = _triangular_inverse(T[h:, h:])
    X[:h, h:] = -(X[:h, :h] @ T[:h, h:]) @ X[h:, h:]
    return X


def _spectrum(sigma: np.ndarray, k: int) -> tuple[float, np.ndarray]:
    """(cond, keep) of the singular values sigma of an equilibrated factor of
    k parameters: cond = (sigma_max / sigma_min)^2, inf unless there are k of
    them and sigma_min > 0, and keep the mask sigma^2 > k eps sigma_max^2."""
    cond = float(sigma[0] / sigma[-1]) ** 2 if sigma.size == k and sigma[-1] > 0 else math.inf
    return cond, sigma ** 2 > k * np.finfo(float).eps * sigma[0] ** 2


def _inverse_factor(R: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """(B, cond) of the live columns R of a factor of k parameters (see crb_trace).

    With S = diag(R^T R)^-1/2 and R S = U Sigma V^T, B = S V Sigma^-1 over the
    kept sigma and cond is (sigma_max / sigma_min)^2 (see _spectrum). Where
    R S is square and upper-triangular and keeps every sigma, only the sigma
    are computed, and B = S (R S)^-1 = S V Sigma^-1 U^T: the same sum of
    squares, from a triangular inverse that does not square the conditioning
    either. Elsewhere (a cut sigma, a dropped column, a factor that is not
    square) one full SVD gives cond, keep and B.
    """
    S = 1.0 / np.linalg.norm(R, axis=0)
    RS = R * S
    if RS.shape == (k, k) and not np.tril(RS, -1).any():
        sigma = np.linalg.svd(RS, compute_uv=False)
        cond, keep = _spectrum(sigma, k)
        if keep.all():
            return S[:, None] * _triangular_inverse(RS), cond
    _, sigma, Vt = np.linalg.svd(RS, full_matrices=False)
    cond, keep = _spectrum(sigma, k)
    return S[:, None] * Vt[keep].T / sigma[keep], cond


def crb_trace(D: np.ndarray, R: np.ndarray, h) -> CrbResult:
    """Lower bound trace(D I^-1 D^H) / ||h||^2 on the relative variance, I = R^T R.

    D is the dense Jacobian (see Jacobian.dense) and R any real factor of I
    with one column per parameter, such as that of fisher_factor; the
    parameter of a zero column drops out, and an R of zero columns only
    raises ValueError. With
    R S = U Sigma V^T, S = diag(I)^-1/2 equilibrating R's columns,
    I^-1 = S V Sigma^-2 V^T S and the bound is the sum of squares
    ||[Re D; Im D] S V Sigma^-1||_F^2 / ||h||^2 over the sigma with
    sigma^2 > k eps sigma_max^2 (k parameters, eps the float64 epsilon):
    all of them for k < 4500 up to a condition number (sigma_max /
    sigma_min)^2 of COND_THRESHOLD, above which the result is flagged. That
    number, the eigenvalue ratio of S I S, is inf where a column drops out
    or sigma_min = 0. Where R S is square and upper-triangular, as
    fisher_factor's is, and every sigma is kept, only the sigma are computed
    and S V Sigma^-1 is read as S (R S)^-1 = R^-1: the two differ by the
    orthogonal factor U^T, which leaves the sum of squares of every row of
    the product as it is (see _inverse_factor).

    Column j of R is taken on its own power of two 2^f_j (exact_scale with
    axis=0), column j of D on 2^(f_j + g), g the one power that brings D
    below 1, and ||h||^2 on channel_energy's scale, all exactly; the bound
    takes 2^2g back last, so no square overflows or underflows and the digits
    are the unscaled ones. A bound above the largest float raises ValueError.

    The sum of squares is taken over blocks of _TRACE_BLOCK_ROWS rows of
    [Re D; Im D], one product at a time through two buffers of a block's
    size, and the block sums are added last.
    """
    E, k_h = channel_energy(h)
    k = R.shape[1]
    R, f = exact_scale(R, axis=0)
    live = R.any(axis=0)
    if not live.any():
        raise ValueError("no column of the factor R is nonzero: every parameter drops out")
    if not live.all():   # a zero column's parameter drops out, of the bound and of g
        R, D, f = R[:, live], D[:, live], f[live]
    B, cond = _inverse_factor(R, k)
    g = int((np.frexp(np.abs(D).max(axis=0))[1] - f).max())
    shift = -(f + g)
    n, block = D.shape[0], min(_TRACE_BLOCK_ROWS, D.shape[0])
    blocks = [(part, lo) for part in (D.real, D.imag) for lo in range(0, n, block)]
    scaled, product = np.empty((block, B.shape[0])), np.empty((block, B.shape[1]))
    sums = np.empty(len(blocks))
    for b, (part, lo) in enumerate(blocks):
        rows = min(block, n - lo)
        np.ldexp(part[lo:lo + rows], shift, out=scaled[:rows])
        np.matmul(scaled[:rows], B, out=product[:rows])
        sums[b] = np.vdot(product[:rows], product[:rows])
    ratio, e = float(sums.sum() / E), 2 * g - k_h
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


def _scaled_sum(m: np.ndarray, f: np.ndarray) -> tuple[float, int]:
    """(M, F) with sum m 4^f = M 4^F over all entries, summed on the largest f of a nonzero m."""
    F = int(f[m > 0].max(initial=0))
    return float(np.ldexp(m, 2 * (f - F)).sum()), F


def check_optimal_observation(J: Jacobian, s: ObservationSetup) -> float:
    """Relative residual ||(Id - P) D||_F / ||D||_F of the Jacobian D of J.

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
    A setup whose X and W do not fit J's arrays raises ValueError.
    """
    s.check_fits(J.n_r, J.n_t)
    F_r, T = J.F_r, J.F_t_conj
    w, e = np.frexp(J.abs_weights().T)   # |w_k| = w 2^e, 6 x P

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
    # the conjugates of f_t and (I - M_t) f_t, of the same norms
    t, t_out = (norms(M, _FACTORS_T) for M in (T, T - s.X.conj() @ (s.X.T @ T) / s.alpha2))
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


def bound(J: Jacobian, s: ObservationSetup, h) -> tuple[np.ndarray, CrbResult]:
    """(R, crb_trace(D, R, h)) of R = fisher_factor(J, s) and the dense D of J,
    formed after R, so that D and the factor's workspace are not held at once."""
    R = fisher_factor(J, s)
    return R, crb_trace(J.dense(), R, h)


@one_blas_thread
def crb_report(ps: PathSet, g_r: ArrayGeometry, g_t: ArrayGeometry,
               s: ObservationSetup, include_blocks: bool = False) -> dict:
    """Bundle the bound, its floor, and the identifiability diagnostics.

    Runs on one BLAS thread (see blas.one_blas_thread): its factorizations
    are too small to gain from more, and the bound's digits then do not
    depend on the environment's thread count. A setup
    whose X and W do not have one row per transmit and per receive antenna
    raises ValueError.
    """
    J = channel_jacobian(ps, g_r, g_t)
    h = synthesize(ps, g_r, g_t).vector
    R, result = bound(J, s, h)
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
        "optimal_observation_residual": check_optimal_observation(J, s),
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
