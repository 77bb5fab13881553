"""Greedy direction estimation on a grid, wrapped in Matching Pursuit.

Two support-selection strategies are provided: the classical joint scan of
all DoA/DoD pairs (m*n scores per path) and a decoupled sequential scan
that picks the DoA from a marginal criterion first and the DoD from the
joint criterion afterwards (m+n scores per path). Both are inserted into
plain Matching Pursuit: select a direction pair, fit the complex gain by
least squares, subtract, repeat.
"""

from __future__ import annotations

import cmath
import math
import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import PathParams, PathSet, steering_matrix, synthesize
from .geometry import (HALF_PI, TWO_PI, ArrayGeometry, Direction, unit_vectors_from_angles,
                       wrap_azimuth)
from .observation import ObservationSetup, exact_scale
from .workers import Helpers, shared_map

ATOM_NORM_TOL = 1e-12
_SCORE_BLOCK_ROWS = 64   # rows per block in both joint-scan passes; 32-256 time alike, 512 is slower
_SCREEN_SAFETY = 4.0     # c in the joint screen's rounding bound (see joint_select)
_U32 = 2.0 ** -24        # unit roundoff of float32
_U64 = 2.0 ** -53        # unit roundoff of float64
_TINY32 = 2.0 ** -122    # 16 x float32's smallest normal: the screen's underflow allowance
_PRUNE_SAFETY = 16.0     # c in the joint prune's rounding margin (see joint_select)


def _cell_centres(n_az: int, n_el: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only 2 x (n_az * n_el) azimuths and elevations of hemisphere_directions,
    and the 3 x (n_az * n_el) unit vectors of the wrapped directions."""
    if n_az < 1 or n_el < 1:
        raise ValueError("grid dimensions must be positive")
    azs = -HALF_PI + (np.arange(n_az) + 0.5) * math.pi / n_az
    els = -HALF_PI + (np.arange(n_el) + 0.5) * math.pi / n_el
    angles = np.stack([np.repeat(azs, n_el), np.tile(els, n_az)])
    units = unit_vectors_from_angles(wrap_azimuth(angles[0]), angles[1])
    angles.setflags(write=False)
    units.setflags(write=False)
    return angles, units


def hemisphere_directions(n_az: int, n_el: int) -> tuple[Direction, ...]:
    """Cell-centered product grid of directions over the front hemisphere.

    The azimuth/elevation box [-pi/2, pi/2]^2 covers the front hemisphere
    of a yz-plane array (boresight +x). Cell centers keep every point
    strictly inside the box, in particular away from the poles where
    azimuth degenerates. Azimuth is the slow index.
    """
    return _directions(_cell_centres(n_az, n_el)[0])


def _directions(angles: np.ndarray) -> tuple[Direction, ...]:
    return tuple(Direction(a, e) for a, e in zip(*angles.tolist()))


class DirectionGrid:
    """Candidate DoAs and DoDs to test: the cell centres of two hemisphere layouts.

    The DoAs are hemisphere_directions(m_az, m_el) and the DoDs
    hemisphere_directions(n_az, n_el). Each side is held as two read-only
    arrays: doa_angles / dod_angles, the 2 x k azimuths and elevations, and
    doa_units / dod_units, the 3 x k unit vectors of the wrapped
    directions. test_doas and test_dods are built from the angles on first
    use.

    Distinct centres of an n_az x n_el side lie at least 2 / (n_az n_el)
    apart as unit vectors: with cos(el) >= sin(pi / (2 n_el)) > 0 inside the
    box, elevations d_el >= pi / n_el apart give at least 2 sin(d_el / 2),
    azimuths d_az >= pi / n_az apart at one elevation el give
    2 cos(el) sin(d_az / 2), and sin x >= 2x / pi on [0, pi/2]. Rounding
    (about 1e-16) cannot make two of them coincide below 2e12 directions.
    """

    def __init__(self, m_az: int, m_el: int, n_az: int, n_el: int):
        self.doa_angles, self.doa_units = _cell_centres(m_az, m_el)
        self.dod_angles, self.dod_units = _cell_centres(n_az, n_el)

    @cached_property
    def test_doas(self) -> tuple[Direction, ...]:
        return _directions(self.doa_angles)

    @cached_property
    def test_dods(self) -> tuple[Direction, ...]:
        return _directions(self.dod_angles)

    @property
    def m(self) -> int:
        return self.doa_angles.shape[1]

    @property
    def n(self) -> int:
        return self.dod_angles.shape[1]

    @classmethod
    def product(cls, m: int, n: int) -> "DirectionGrid":
        """Square layouts of m DoAs and n DoDs (m, n perfect squares)."""
        ka, kd = math.isqrt(m), math.isqrt(n)
        if ka * ka != m or kd * kd != n:
            raise ValueError("product grid sizes must be perfect squares; "
                             "use DirectionGrid(m_az, m_el, n_az, n_el) for other layouts")
        return cls(ka, ka, kd, kd)


@dataclass(frozen=True, eq=False)
class Dictionary:
    """Observed atoms, the one model of a path that Matching Pursuit scores and fits.

    Column i of K_r is W^H e_r(doa_i) / doa_norms[i], doa_norms[i] =
    ||W^H e_r(doa_i)||, and doa_angles[:, i] holds doa_i's azimuth and
    elevation; likewise K_t, dod_norms and dod_angles for X^H e_t(dod_j).
    Grid directions annihilated by W or X are dropped. K_r_H, the
    C-contiguous conjugate transpose of K_r, is built once here for the
    selectors.

    The constructor enforces what the selectors' proofs and the gain fit
    assume, raising ValueError that names the field: K_r and K_t are 2-D
    with at least one column, every column of a d-row K has a computed
    squared norm within 8 d u of 1 (u = 2^-53, so a norm within about
    5 d u of 1, which a normalized column meets), doa_norms / dod_norms
    hold one finite norm per column above ATOM_NORM_TOL times their
    largest, and doa_angles / dod_angles are 2 x columns. Every array is
    then read-only; the atoms are not copied.
    """

    K_r: np.ndarray
    K_t: np.ndarray
    doa_norms: np.ndarray
    dod_norms: np.ndarray
    doa_angles: np.ndarray
    dod_angles: np.ndarray
    K_r_H: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for atoms, norms, angles in (("K_r", "doa_norms", "doa_angles"),
                                     ("K_t", "dod_norms", "dod_angles")):
            K, nv, av = getattr(self, atoms), getattr(self, norms), getattr(self, angles)
            if K.ndim != 2 or K.shape[1] == 0:
                raise ValueError(f"{atoms} must be a 2-D array of at least one column, "
                                 f"got shape {K.shape}")
            d, k = K.shape
            v = np.ascontiguousarray(K, dtype=complex).view(np.float64)
            sq = np.einsum("ij,ij->j", v, v)
            off = np.flatnonzero(~(np.abs(sq[0::2] + sq[1::2] - 1.0) <= 8 * d * _U64))
            if off.size:
                raise ValueError(f"{atoms} column {off[0]} does not have unit norm")
            if nv.shape != (k,) or not np.all(np.isfinite(nv) & (nv > ATOM_NORM_TOL * nv.max())):
                raise ValueError(f"{norms} must hold {k} finite norms above {ATOM_NORM_TOL} "
                                 "times the largest")
            if av.shape != (2, k):
                raise ValueError(f"{angles} must be a 2 x {k} array, got shape {av.shape}")
        object.__setattr__(self, "K_r_H", np.conjugate(self.K_r.T, order="C"))
        for name in ("K_r", "K_t", "K_r_H", "doa_norms", "dod_norms", "doa_angles",
                     "dod_angles"):
            getattr(self, name).setflags(write=False)

    @property
    def m(self) -> int:
        return self.K_r.shape[1]

    @property
    def n(self) -> int:
        return self.K_t.shape[1]

    def doa_of(self, col: int) -> Direction:
        return Direction(*self.doa_angles[:, col].tolist())

    def dod_of(self, col: int) -> Direction:
        return Direction(*self.dod_angles[:, col].tolist())


def _observed_side(M: np.ndarray, E: np.ndarray, angles: np.ndarray, label: str, name: str):
    """The kept columns of M^H E normalized in place, their norms and their angles.

    M, here W or X, is finite and nonzero; M^H E is formed as (M / 2^e)^H E
    (see exact_scale), a largest norm outside the normal floats raises
    ValueError naming M as name, and a column whose norm is at most
    ATOM_NORM_TOL times the largest is dropped as annihilated.
    """
    Ms, e = exact_scale(M)
    raw = Ms.conj().T @ E
    del E   # before the norms' temporaries: 2.5 MB of peak memory for 64 x 2500 atoms
    norms = np.linalg.norm(raw, axis=0)
    top = float(norms.max())
    if not -1021 <= e + math.frexp(top)[1] <= 1024:
        raise ValueError(f"{name} gives the {label} atoms norms outside the range of "
                         "normal floats")
    keep = norms > ATOM_NORM_TOL * top
    if not np.all(keep):
        warnings.warn(f"dropping {int((~keep).sum())} {label} grid directions "
                      "annihilated by the observation matrices", stacklevel=3)
        if not np.any(keep):
            raise ValueError(f"every {label} grid direction is annihilated")
        raw, norms, angles = raw[:, keep], norms[keep], angles[:, keep]
    raw /= norms
    return raw, np.ldexp(norms, e), angles


def _norm(M: np.ndarray) -> float:
    """||M||_F, formed on M / 2^e (see exact_scale) so that no square overflows."""
    Ms, e = exact_scale(M)
    return math.ldexp(float(np.linalg.norm(Ms)), e or 0)


def build_dictionaries(grid: DirectionGrid, s: ObservationSetup,
                       g_r: ArrayGeometry, g_t: ArrayGeometry) -> Dictionary:
    """Project the grid's steering vectors through W and X and normalize."""
    K_r, doa_norms, doa_angles = _observed_side(
        s.W, steering_matrix(g_r, grid.doa_units), grid.doa_angles, "DoA", "combiner matrix W")
    K_t, dod_norms, dod_angles = _observed_side(
        s.X, steering_matrix(g_t, grid.dod_units), grid.dod_angles, "DoD", "pilot matrix X")
    return Dictionary(K_r, K_t, doa_norms, dod_norms, doa_angles, dod_angles)


@dataclass(frozen=True)
class Selection:
    """Chosen dictionary columns and the number of candidate scores evaluated."""

    doa_index: int
    dod_index: int
    score_evaluations: int


def _scaled(Y: np.ndarray) -> tuple[np.ndarray, float | None]:
    """exact_scale's Ys = Y / 2^e and the margin of marginals read from Ys (see
    joint_select), or (Y, None) when Y is zero or holds NaN or inf."""
    Ys, e = exact_scale(Y)
    if e is None:
        return Y, None
    n_c, n_s = Y.shape
    return Ys, _PRUNE_SAFETY * (n_c + 1) * (n_s + 1) * _U64 * float(np.linalg.norm(Ys))


def _marginal_norms(K_H: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """||k^H Y|| for every row k^H of K_H, from the triangular factor of Y^H.

    With Y^H = Q S (Q with orthonormal columns, S min(n_c, n_s) x n_c),
    Y = S^H Q^H and so ||k^H Y|| = ||k^H S^H||: the sums of squares run over
    the real view of K_H S^H, of min(n_c, n_s) columns instead of n_s.
    """
    S = np.linalg.qr(Y.conj().T, mode="r")
    T = K_H @ S.conj().T
    v = T.view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", v, v))


def _candidates(K_H: np.ndarray, Ys: np.ndarray, YK: np.ndarray,
                margin: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Increasing rows of K_H and columns of YK = Ys K that may hold max |(K_H Ys K)_ij|.

    These are the rows and columns whose marginal norm ||k_i^H Ys|| or
    ||Ys k_j|| is at least the score of the better of two feasible pairs,
    less the rounding margin; (Ys, margin) is _scaled's (see joint_select).
    The largest norm of a kept column of YK is returned third.
    """
    row_norms = _marginal_norms(K_H, Ys)
    col_norms = np.linalg.norm(YK, axis=0)
    i0, j1 = int(np.argmax(row_norms)), int(np.argmax(col_norms))
    floor = max(float(np.abs(K_H[i0] @ YK).max()),
                float(np.abs(K_H @ YK[:, j1]).max())) - margin
    cols = np.flatnonzero(col_norms >= floor)
    return np.flatnonzero(row_norms >= floor), cols, float(col_norms[cols].max())


def _best_in_rows(left: np.ndarray, right: np.ndarray, rows: np.ndarray) -> tuple[int, int]:
    """First-occurrence argmax of |C_ij|^2 over the given rows of C = left @ right.

    rows must be non-empty and increasing; left and right are formed from
    _scaled's Ys, whose largest squared scores neither overflow nor underflow.
    Scores are computed in complex128, _SCORE_BLOCK_ROWS rows at a time into
    buffers reused from block to block; within a block np.argmax takes the
    first maximum, and across blocks only a strictly larger score replaces
    the best, so ties break to the smallest row, then the smallest column.
    """
    n = right.shape[1]
    block = min(_SCORE_BLOCK_ROWS, len(rows))
    C = np.empty((block, n), dtype=complex)
    S, S_imag = np.empty((block, n)), np.empty((block, n))
    best_v, best_i, best_j = -1.0, 0, 0
    for b0 in range(0, len(rows), block):
        idx = rows[b0:b0 + block]
        c, s, s_imag = C[:len(idx)], S[:len(idx)], S_imag[:len(idx)]
        np.matmul(left[idx], right, out=c)
        np.multiply(c.real, c.real, out=s)
        np.multiply(c.imag, c.imag, out=s_imag)
        s += s_imag
        flat = int(np.argmax(s))
        v = float(s.flat[flat])
        if v > best_v:
            best_v, best_i, best_j = v, int(idx[flat // n]), flat % n
    return best_i, best_j


def _screen_range(left32: np.ndarray, right32: np.ndarray, row_max: np.ndarray,
                  C: np.ndarray, A: np.ndarray, starts: range) -> None:
    """Write max_j |C_ij| of the rows of the blocks at `starts` into row_max.

    C = left32 @ right32 is computed in complex64 one block of C.shape[0]
    rows at a time into the buffers C and A, which no other range uses.
    """
    block, m = C.shape[0], len(row_max)
    for i0 in starts:
        k = min(block, m - i0)
        np.matmul(left32[i0:i0 + k], right32, out=C[:k])
        np.abs(C[:k], out=A[:k])
        np.max(A[:k], axis=1, out=row_max[i0:i0 + k])


def _screened_rows(left: np.ndarray, right: np.ndarray, norm: float,
                   pool: Helpers | None = None) -> np.ndarray:
    """Increasing indices of the rows of C = left @ right that may hold max |C_ij|.

    One factor holds unit atoms and the other, whose largest row or column
    norm is norm, is formed from _scaled's Ys; both are screened in
    complex64 as they are, and a row survives when its screened maximum is
    within 2 delta of the largest (see joint_select).

    The _SCORE_BLOCK_ROWS-row blocks are split into contiguous ranges, one
    for the calling thread and one for each of pool's helpers, at most one
    per block. Every block is the same product whatever the split, so the
    screened values, and the rows returned, do not depend on pool.
    """
    m, r = left.shape
    n = right.shape[1]
    left32, right32 = left.astype(np.complex64), right.astype(np.complex64)
    block = min(_SCORE_BLOCK_ROWS, m)
    starts = range(0, m, block)
    parts = min(1 + (pool.count if pool is not None else 0), len(starts))
    cuts = [len(starts) * p // parts for p in range(parts + 1)]
    # Every buffer is allocated here, on the calling thread, and helpers only
    # write into them: buffers allocated on helper threads grow glibc's
    # per-thread malloc arenas and with them the peak RSS.
    jobs = [(np.empty((block, n), dtype=np.complex64), np.empty((block, n), dtype=np.float32),
             starts[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
    row_max = np.empty(m, dtype=np.float32)
    shared_map(lambda job: _screen_range(left32, right32, row_max, *job), jobs, pool)
    top = float(row_max.max())
    delta = _SCREEN_SAFETY * (r + 4) * (_U32 * norm + _TINY32 * (1.0 + norm)) + 2.0 * _U32 * top
    return np.flatnonzero(row_max >= np.float64(top - 2.0 * delta))


def joint_select(Y: np.ndarray, dictionary: Dictionary,
                 pool: Helpers | None = None) -> Selection:
    """Exhaustive scan: argmax over all pairs of |k_r_i^H Y k_t_j|.

    Ties are broken by the smallest DoA index, then the smallest DoD index.
    The product C = K_r^H Ys K_t = left @ right of Ys = Y / 2^e (see
    _scaled), which scales every score exactly, is contracted over the
    smaller side of Y: left = K_r^H, right = Ys K_t when n_c <= n_s, and
    left = K_r^H Ys, right = K_t otherwise; r is that inner dimension. The
    scan prunes the grid, screens what is left in complex64 and returns the
    exact complex128 argmax.

    Prune. The atoms have unit norm, so by Cauchy-Schwarz a pair's score
    |C_ij| is at most both of its marginals, ||k_r_i^H Y|| and ||Y k_t_j||.
    L is the better score of two feasible pairs, computed in complex128: the
    DoA of largest marginal with its best DoD, and the DoD of largest
    marginal with its best DoA. Every maximizing pair scores at least L, so
    both its marginals are at least L, and only the DoAs and DoDs whose
    marginal is at least L - margin are kept (see _candidates). The
    marginals and L are read from Ys, so no scale of Y overflows or
    underflows them, and

        margin = c (n_c + 1) (n_s + 1) u ||Ys||_F,

    with u = 2^-53 and c = _PRUNE_SAFETY = 16. The marginals of the side
    whose atoms are not multiplied into Y come from the triangular factor
    of a Householder QR (see _marginal_norms), which is exact for a matrix
    within a small multiple of n_c n_s u ||Y||_F of the one factored
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., sec.
    19.3); the other side's are the norms of the factor holding Y. The
    products, the sums of squares, the scaling and the unit norms of the
    stored atoms add a small multiple of (n_c + n_s) u ||Y||_F to a marginal
    or to L, so the margin covers them all. On paper-scale residuals (16 x
    64 observations, 2500 x 2500 grids) the prune keeps under 1% of the m*n
    pairs while strong paths remain, and most of them once the residual is
    mostly noise.

    Screen. One factor holds unit atoms and the other is formed from Ys
    (entries below 1 in modulus), so no complex64 value can overflow: the
    kept rows of left and columns of right are rounded to complex64 (unit
    roundoff u = 2^-24) as they are, every kept |C_ij| is computed in
    complex64, and each kept row keeps its largest value. A screened value
    s_ij differs from the scaled |C_ij| by at most

        delta = c (r + 4) (u N + t (1 + N)) + 2 u top,

    where N is the largest norm of a kept row or column of the factor
    formed from Ys (see _candidates), t = _TINY32 = 2^-122, top is the
    largest screened value and c = _SCREEN_SAFETY = 4. With unit atoms,
    S_ij = sum_k |left_ik| |right_kj| <= ||left_i|| ||right_j|| <= N:
    - rounding the factors to complex64 moves each entry by at most u
      relatively, and so the product by at most (2u + u^2) S_ij;
    - the complex64 inner product of length r adds at most
      sqrt(2) gamma_{r+2} S_ij, gamma_k = k u / (1 - k u) (Higham, Accuracy
      and Stability of Numerical Algorithms, 2nd ed., sec. 3.6), in any
      summation order, with or without fused multiply-adds;
    - the float32 modulus of a computed value z adds at most 2u |z|, and
      |z| <= top (1 + 3u).
    As sqrt(2) (r + 2) + 2 <= sqrt(2) (r + 4), c = sqrt(2) would do up to
    second-order terms; c = 4 also covers the gamma denominator, the atoms'
    norms (1 within 5 d u, see Dictionary) and the complex128 rounding of
    the exact pass. Flushing every value below 2^-126 to zero adds at most
    sqrt(2) 2^-126 sqrt(r) (1 + N) through the factors' entries and 2^-126
    through each of the 8r + 1 real operations, below c (r + 4) t (1 + N).
    Every maximizing pair is kept, so if the pick lies in row i with value
    v, then s_i >= v - delta and top <= v + delta: a row survives when its
    screened maximum is at least top - 2 delta, as every maximum's row does.

    Rescore. The surviving rows, in increasing order, are scored exactly in
    complex128 over all n columns by _best_in_rows. All rows are when the
    scores lie within 2 delta of each other, or when _scaled gives no
    margin (a zero or non-finite Y), which skips the prune and the screen.
    Usually one or two rows survive. score_evaluations counts all m*n
    candidate scores either way, the paper's cost model.

    pool, when given, shares the screen's blocks between the calling thread
    and its helpers (see _screened_rows); the pick does not depend on it.
    """
    K_r_H, K_t = dictionary.K_r_H, dictionary.K_t
    Ys, margin = _scaled(Y)
    contract_combiners = K_r_H.shape[1] <= K_t.shape[0]
    left, right = (K_r_H, Ys @ K_t) if contract_combiners else (K_r_H @ Ys, K_t)
    rows = np.arange(dictionary.m)
    if margin is not None:
        if contract_combiners:
            rows, cols, norm = _candidates(K_r_H, Ys, right, margin)
        else:
            cols, rows, norm = _candidates(K_t.T, Ys.T, left.T, margin)
        rows = rows[_screened_rows(left[rows], right[:, cols], norm, pool)]
    i, j = _best_in_rows(left, right, rows)
    return Selection(i, j, dictionary.m * dictionary.n)


def sequential_select(Y: np.ndarray, dictionary: Dictionary,
                      pool: Helpers | None = None) -> Selection:
    """Decoupled scan: DoA from the marginal energy criterion, then DoD.

    Stage 1 maximizes the received energy along each combined receive atom,
    ||k_r_i^H Y||^2 = diag(K_r^H Y Y^H K_r), over m candidates; stage 2 fixes
    that atom and maximizes |k_r^H Y K_t| over n candidates. Ties break to
    the smallest index. Stage 2 uses the normalized combined atom, which
    selects the same index as the raw steering vector whenever combining is
    lossless.

    Both stages read Ys = Y / 2^e (see _scaled). Stage 1 screens, then
    rescores. The marginal norms come from the triangular factor of Ys^H
    (see _marginal_norms), in m n_c min(n_c, n_s) multiply-adds instead of
    the m n_c n_s of K_r^H Ys, and each lies within joint_select's margin of
    ||k_r_i^H Ys||. The DoAs whose norm is within twice the margin of the
    largest, usually one, hold every maximum; their rows of T = K_r^H Ys are
    formed, and their energies are the sums of squares over the real view
    of those rows, as if T were formed whole. Stage 2 scores the picked row
    of T against K_t with _best_in_rows, as joint_select does. A zero or
    non-finite Y forms every row. pool is accepted for a common selector
    signature and not used.
    """
    K_r_H = dictionary.K_r_H
    rows = np.arange(dictionary.m)
    Ys, margin = _scaled(Y)
    if margin is not None:
        norms = _marginal_norms(K_r_H, Ys)
        rows = np.flatnonzero(norms >= norms.max() - 2.0 * margin)
    T = K_r_H[rows] @ Ys
    v = T.view(np.float64)
    k = int(np.argmax(np.einsum("ij,ij->i", v, v)))
    _, j_hat = _best_in_rows(T, dictionary.K_t, np.array([k]))
    return Selection(int(rows[k]), j_hat, dictionary.m + dictionary.n)


@dataclass(frozen=True)
class Reading:
    """A pursuit read after its first P iterations: what the paper's table reports.

    rmse is ||H - H_hat||_F^2 / ||H||_F^2 for the channel H_hat of the
    paths kept by then, wall_time_s the pursuit time and score_evals the
    candidate scores evaluated through iteration P.
    """

    P: int
    rmse: float
    wall_time_s: float
    score_evals: int


@dataclass(frozen=True)
class EstimationReport:
    """Outcome of one Matching Pursuit run.

    score_evaluations is exactly m*n*P for the joint strategy and (m+n)*P
    for the sequential one. estimated is empty only in the degenerate case
    where every fitted gain was exactly zero. residual_norms tracks ||R||_F
    from the initial observation through every subtraction; least-squares
    fitting makes it non-increasing. cumulative_times[k] and paths_kept[k]
    are the pursuit time and the number of paths in estimated after
    iteration k + 1, so P is their length. Greedy pursuit is deterministic,
    so its first p iterations are the whole run at budget p, and
    reading(p, ...) reads it there.
    """

    strategy: str
    estimated: tuple[PathParams, ...]
    score_evaluations: int
    residual_norms: tuple[float, ...]
    cumulative_times: tuple[float, ...]
    paths_kept: tuple[int, ...]

    @property
    def P(self) -> int:
        return len(self.cumulative_times)

    def reading(self, P: int, true_channel, g_r: ArrayGeometry,
                g_t: ArrayGeometry) -> Reading:
        """The run at budget P, 1 <= P <= self.P, scored against the ChannelMatrix
        true_channel on the arrays g_r and g_t; no paths kept means H_hat = 0."""
        if not 1 <= P <= self.P:
            raise ValueError(f"budget P must lie in [1, {self.P}], got {P}")
        paths = self.estimated[:self.paths_kept[P - 1]]
        H = true_channel.matrix
        H_hat = synthesize(PathSet(paths), g_r, g_t).matrix if paths else 0.0
        rmse = float(np.linalg.norm(H - H_hat) ** 2 / np.linalg.norm(H) ** 2)
        # every iteration scores the same number of candidates
        return Reading(P, rmse, self.cumulative_times[P - 1],
                       self.score_evaluations * P // self.P)


_SELECTORS = {"joint": joint_select, "sequential": sequential_select}


def matching_pursuit(Y: np.ndarray, dictionary: Dictionary, P_budget: int,
                     strategy: str, pool: Helpers | None = None) -> EstimationReport:
    """Greedy P_budget-path estimate of the channel behind Y.

    Each iteration selects dictionary columns (k_r, k_t) with the requested
    strategy, fits c = k_r^H R k_t on the residual R (the least-squares gain
    of unit atoms), subtracts c k_r k_t^H and records the path with gain c
    divided by the columns' norms before normalization, the least-squares
    gain of its observed contribution. Repeated selection of the same pair
    is allowed; the gains accumulate as separate paths. The wall time covers
    the pursuit loop only. A Y that is not K_r.shape[0] x K_t.shape[0] or
    holds NaN or inf raises ValueError. pool goes to the selector.
    """
    K_r, K_t = dictionary.K_r, dictionary.K_t
    if np.shape(Y) != (K_r.shape[0], K_t.shape[0]):
        raise ValueError(f"observation Y has shape {np.shape(Y)}, but the dictionary's "
                         f"atoms need {(K_r.shape[0], K_t.shape[0])}")
    if P_budget < 1:
        raise ValueError("P_budget must be at least 1")
    if not np.all(np.isfinite(Y)):
        raise ValueError("observation Y holds NaN or inf entries")
    try:
        select = _SELECTORS[strategy]
    except KeyError:
        raise ValueError(f"unknown strategy {strategy!r}") from None
    R = np.array(Y, dtype=complex)
    paths: list[PathParams] = []
    evaluations = 0
    residual_norms = [_norm(R)]
    cumulative_times, paths_kept = [], []
    start = time.perf_counter()
    for _ in range(P_budget):
        sel = select(R, dictionary, pool)
        evaluations += sel.score_evaluations
        i, j = sel.doa_index, sel.dod_index
        c = complex(dictionary.K_r_H[i] @ R @ K_t[:, j])
        if c != 0:
            gain = c / (dictionary.doa_norms[i] * dictionary.dod_norms[j])
            paths.append(PathParams(abs(gain), cmath.phase(gain) % TWO_PI,
                                    dictionary.doa_of(i), dictionary.dod_of(j)))
            R -= c * np.outer(K_r[:, i], K_t[:, j].conj())
        residual_norms.append(_norm(R))
        cumulative_times.append(time.perf_counter() - start)
        paths_kept.append(len(paths))
    return EstimationReport(strategy, tuple(paths), evaluations, tuple(residual_norms),
                            tuple(cumulative_times), tuple(paths_kept))

