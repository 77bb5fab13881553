"""Hybrid-architecture training: pilots, combiners, noise, and the channel-space projection.

The receiver sees Y = W^H H X + W^H N, where X stacks pilot vectors sent
over n_s time steps, W stacks the analog combiners, and N is white complex
Gaussian noise of per-entry variance sigma2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelMatrix, PathSet, steering_derivatives
from .geometry import ArrayGeometry, is_finite_real, real_array

ORTHO_PILOT_TOL = 1e-10
DENSE_PROJECTION_LIMIT = 4096


def range_basis(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the range of M: the left singular vectors above
    matrix_rank's cutoff s_max * max(M.shape) * eps (also scipy.linalg.orth's)."""
    U, sv, _ = np.linalg.svd(M, full_matrices=False)
    tol = sv.max(initial=0.0) * max(M.shape) * np.finfo(float).eps
    return U[:, :np.count_nonzero(sv > tol)]


@dataclass(eq=False)
class ObservationSetup:
    """Training matrix X (n_t x n_s), combiners W (n_r x n_c), noise level.

    X and W must have at least one column and finite entries, and W full
    column rank; Q_w, an orthonormal basis of the combiner range, is derived
    from W once at construction. sigma2 must be a finite non-negative
    number; sigma2 = 0 describes a noiseless observation, valid for observing
    and estimating but rejected by the information-matrix and SNR
    operations, which divide by it.
    """

    X: np.ndarray
    W: np.ndarray
    sigma2: float
    Q_w: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.X = np.array(self.X, dtype=complex)
        self.W = np.array(self.W, dtype=complex)
        if self.X.ndim != 2 or self.W.ndim != 2:
            raise ValueError("X and W must be matrices")
        for name, M in (("pilot matrix X", self.X), ("combiner matrix W", self.W)):
            if M.shape[1] == 0:
                raise ValueError(f"{name} has no columns")
            if not np.isfinite(M).all():
                raise ValueError(f"{name} has a NaN or inf entry")
        if not (is_finite_real(self.sigma2) and self.sigma2 >= 0):
            raise ValueError("sigma2 must be a non-negative number, not NaN or inf, "
                             f"got {self.sigma2!r}")
        self.Q_w = range_basis(self.W)
        if self.Q_w.shape[1] < self.n_c:
            raise ValueError("W must have full column rank")
        if self.alpha2 <= 0:
            raise ValueError("X must carry nonzero transmit power")
        for M in (self.X, self.W, self.Q_w):
            M.setflags(write=False)

    @property
    def n_t(self) -> int:
        return self.X.shape[0]

    @property
    def n_s(self) -> int:
        return self.X.shape[1]

    @property
    def n_r(self) -> int:
        return self.W.shape[0]

    @property
    def n_c(self) -> int:
        return self.W.shape[1]

    @property
    def alpha2(self) -> float:
        """Average transmit power per training step, trace(X^H X)/n_s."""
        return pilot_power(self.X)

    @property
    def has_orthogonal_pilots(self) -> bool:
        """True when X^H X = alpha2 * Id within ORTHO_PILOT_TOL."""
        G = self.X.conj().T @ self.X
        dev = np.linalg.norm(G - self.alpha2 * np.eye(self.n_s))
        return dev <= ORTHO_PILOT_TOL * self.alpha2 * self.n_s


def exact_scale(M: np.ndarray) -> tuple[np.ndarray, int | None]:
    """(M / 2^e, e) with 1/2 <= max|M / 2^e| < 1, or (M, None) for a zero M or
    one with NaN or inf. The scaling is exact, so sums of squares of M / 2^e
    are those of M scaled by 4^-e, without overflow or underflow."""
    a = float(np.abs(M).max())
    if not 0.0 < a < math.inf:
        return M, None
    e = math.frexp(a)[1]
    Ms = M * math.ldexp(1.0, -e // 2)
    Ms *= math.ldexp(1.0, -(e // 2))   # 2^-e alone may overflow
    return Ms, e


def pilot_power(X: np.ndarray) -> float:
    """alpha2 of training matrix X, trace(X^H X)/n_s, summed on X / 2^e (see
    exact_scale); a nonzero finite X whose power is not a normal float raises
    ValueError. A zero, NaN or inf X is left for ObservationSetup to reject."""
    Xs, e = exact_scale(X)
    p = float(np.sum(np.abs(Xs) ** 2)) / X.shape[1]
    if e is not None and not -1021 <= 2 * e + math.frexp(p)[1] <= 1024:
        raise ValueError("pilot matrix X has a transmit power trace(X^H X)/n_s outside "
                         "the range of normal floats")
    return p if e is None else math.ldexp(p, 2 * e)


def complex_from_json(obj, name: str) -> np.ndarray:
    """Complex matrix from nested lists of [re, im] entries; a part that is
    not a number raises ValueError naming the matrix as name."""
    arr = real_array(obj, name)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError("expected a nested [re, im] matrix encoding")
    return arr[..., 0] + 1j * arr[..., 1]


def identity_setup(n_t: int, n_r: int, sigma2: float) -> ObservationSetup:
    """Full observation: identity pilots and combiners (n_s = n_t, n_c = n_r)."""
    return ObservationSetup(np.eye(n_t), np.eye(n_r), sigma2)


def orthogonal_pilots(n_t: int, n_s: int, alpha: float = 1.0,
                      basis: str = "identity") -> np.ndarray:
    """Training matrix with mutually orthogonal, equal-power pilot columns.

    Columns are alpha times the first n_s columns of a unitary basis, so
    X^H X = alpha^2 * Id. n_s may not exceed n_t (orthogonality would be
    impossible).
    """
    if n_s > n_t:
        raise ValueError(f"cannot fit {n_s} orthogonal pilots in dimension {n_t}")
    if n_s < 1 or not (is_finite_real(alpha) and alpha > 0):
        raise ValueError(f"need n_s >= 1 and a finite alpha > 0, got {n_s} and {alpha!r}")
    if basis == "identity":
        U = np.eye(n_t, dtype=complex)
    elif basis == "dft":
        U = np.fft.fft(np.eye(n_t)) / math.sqrt(n_t)
    else:
        raise ValueError("basis must be 'identity' or 'dft'")
    return alpha * U[:, :n_s]


def observe(H, s: ObservationSetup, seed) -> np.ndarray:
    """Combined received pilots Y = W^H (H X + N), an n_c x n_s matrix.

    The noise matrix has i.i.d. complex Gaussian entries of variance sigma2
    (independent real/imaginary parts of variance sigma2/2 each); the same
    seed always reproduces the same draw.
    """
    Hm = H.matrix if isinstance(H, ChannelMatrix) else np.asarray(H, dtype=complex)
    if Hm.shape != (s.n_r, s.n_t):
        raise ValueError(f"channel shape {Hm.shape} does not match setup "
                         f"({s.n_r}, {s.n_t})")
    Wh = s.W.conj().T
    signal = Wh @ Hm @ s.X
    if s.sigma2 == 0.0:
        return signal
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    scale = math.sqrt(s.sigma2 / 2.0)
    N = scale * (rng.standard_normal((s.n_r, s.n_s))
                 + 1j * rng.standard_normal((s.n_r, s.n_s)))
    return signal + Wh @ N


def projection_apply(s: ObservationSetup, M: np.ndarray) -> np.ndarray:
    """Apply the observation projection to columns of M (length n_r*n_t).

    Works factor-by-factor, never materializing the n_r*n_t square matrix:
    each column, as an n_r x n_t matrix, is hit with the combiner-range
    projector Q_w Q_w^H on the left and with X X^H / alpha2 on the right.
    """
    M = np.asarray(M, dtype=complex)
    single = M.ndim == 1
    cols = M[:, None] if single else M
    n_r, n_t, k = s.n_r, s.n_t, cols.shape[1]
    if cols.shape[0] != n_r * n_t:
        raise ValueError("column length must be n_r * n_t")
    M_t = (s.X @ s.X.conj().T) / s.alpha2
    # rows are i + n_r j, so [j, (i, k)] is a free reshape of a C-ordered M
    right = (M_t.T @ cols.reshape(n_t, n_r * k)).reshape(n_t, n_r, k)
    out = np.matmul(s.Q_w @ s.Q_w.conj().T, right).reshape(n_r * n_t, k)
    return out[:, 0] if single else out


def projection_matrix(s: ObservationSetup) -> np.ndarray:
    """Dense observation projection (X^* X^T) kron (Q_w Q_w^H) / alpha2.

    Only a true orthogonal projection when the pilots are orthogonal; a
    warning is emitted (and the matrix still returned) otherwise. Refuses to
    materialize beyond DENSE_PROJECTION_LIMIT rows; use projection_apply there.
    """
    dim = s.n_r * s.n_t
    if dim > DENSE_PROJECTION_LIMIT:
        raise ValueError(f"dense projection of size {dim} exceeds limit "
                         f"{DENSE_PROJECTION_LIMIT}; use projection_apply")
    if not s.has_orthogonal_pilots:
        warnings.warn("pilots are not orthogonal: the returned matrix is not a projection",
                      stacklevel=2)
    return np.kron(s.X.conj() @ s.X.T, s.Q_w @ s.Q_w.conj().T) / s.alpha2


def snr(s: ObservationSetup, h) -> float:
    """Linear signal-to-noise ratio alpha2 * ||h||^2 / sigma2."""
    if s.sigma2 <= 0:
        raise ValueError("SNR is undefined for a noiseless setup")
    value = s.alpha2 * channel_energy(h) / s.sigma2
    if value == math.inf:
        raise ValueError(f"SNR exceeds the largest float at sigma2 = {s.sigma2}")
    return value


def noise_for_snr(target_snr: float, alpha2: float, h) -> float:
    """Noise variance that realizes the target linear SNR for channel h."""
    if target_snr <= 0:
        raise ValueError("target SNR must be positive")
    return alpha2 * channel_energy(h) / target_snr


def channel_energy(h) -> float:
    """Energy ||h||^2 of a vectorized channel; a zero channel raises ValueError."""
    h = np.asarray(h)
    energy = float(np.vdot(h, h).real)
    if energy == 0.0:
        raise ValueError("zero channel: its SNR and relative errors are undefined")
    return energy


def _direction_span(g: ArrayGeometry, directions) -> np.ndarray:
    # columns e, de_az, de_el of each direction in turn
    return np.stack(steering_derivatives(g, directions), axis=2).reshape(g.n_antennas, -1)


def span_pilots(ps: PathSet, g_t: ArrayGeometry, alpha: float = 1.0) -> np.ndarray:
    """Orthogonal pilots whose range spans every transmit steering vector
    and its two direction derivatives, the transmit-side condition for the
    observation to be lossless for these paths."""
    return alpha * range_basis(_direction_span(g_t, (p.dod for p in ps)))


def span_combiners(ps: PathSet, g_r: ArrayGeometry) -> np.ndarray:
    """Combiners spanning every receive steering vector and its derivatives,
    the receive-side counterpart of span_pilots."""
    return range_basis(_direction_span(g_r, (p.doa for p in ps)))
