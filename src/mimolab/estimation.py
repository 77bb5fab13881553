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
import csv
import math
import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import PathParams, PathSet, steering_matrix, synthesize
from .geometry import (HALF_PI, TWO_PI, ArrayGeometry, Direction, direction_angles,
                       unit_vectors_from_angles, wrap_azimuth)
from .observation import ObservationSetup
from .workers import Helpers, shared_map

ATOM_NORM_TOL = 1e-12
_SCORE_BLOCK_ROWS = 64   # rows per block in both joint-scan passes; 32-256 time alike, 512 is slower
_SCREEN_SAFETY = 4.0     # c in the joint screen's rounding bound (see joint_select)
_U32 = 2.0 ** -24        # unit roundoff of float32
_U64 = 2.0 ** -53        # unit roundoff of float64
_PRUNE_SAFETY = 16.0     # c in the joint prune's rounding margin (see joint_select)


def _cell_centres(n_az: int, n_el: int) -> np.ndarray:
    """2 x (n_az * n_el) azimuths and elevations of hemisphere_directions."""
    if n_az < 1 or n_el < 1:
        raise ValueError("grid dimensions must be positive")
    azs = -HALF_PI + (np.arange(n_az) + 0.5) * math.pi / n_az
    els = -HALF_PI + (np.arange(n_el) + 0.5) * math.pi / n_el
    return np.stack([np.repeat(azs, n_el), np.tile(els, n_az)])


def hemisphere_directions(n_az: int, n_el: int) -> tuple[Direction, ...]:
    """Cell-centered product grid of directions over the front hemisphere.

    The azimuth/elevation box [-pi/2, pi/2]^2 covers the front hemisphere
    of a yz-plane array (boresight +x). Cell centers keep every point
    strictly inside the box, in particular away from the poles where
    azimuth degenerates. Azimuth is the slow index.
    """
    return _directions(_cell_centres(n_az, n_el))


def _directions(angles: np.ndarray) -> tuple[Direction, ...]:
    return tuple(Direction(a, e) for a, e in zip(*angles.tolist()))


# Unit axis for the duplicate sweep. Its unequal irrational components keep
# mirror images in a symmetric grid from sharing a projection.
_SWEEP_AXIS = np.array([1.0, math.sqrt(2.0), math.sqrt(3.0)]) / math.sqrt(6.0)
# Above the rounding error of a computed projection difference (about 1e-15).
_SWEEP_SLACK = 1e-14


def _check_no_duplicates(units: np.ndarray, label: str, tol: float = 1e-12):
    """Raise for the smallest index pair (a, b), a < b, with ||u_a - u_b|| <= tol.

    units holds the unit vectors u as the columns of a 3 x k array.
    Sort-sweep in O(k log k) for spread-out directions: projecting on a unit
    axis shrinks distances, so every close pair is a pair of neighbours in
    projection order whose projections differ by at most tol. The sweep
    tries neighbours s = 1, 2, ... places apart and stops at the first s with
    no such pair, as none can then exist further apart. Each candidate pair
    gets the exact test sum((u_a - u_b)**2) <= tol**2.
    """
    U = units.T
    proj = U @ _SWEEP_AXIS
    order = np.argsort(proj)
    proj = proj[order]
    reach = tol + _SWEEP_SLACK
    k = len(proj)
    first = k * k   # smallest a * k + b over close pairs (a, b), a < b
    for s in range(1, k):
        near = np.nonzero(proj[s:] - proj[:-s] <= reach)[0]
        if near.size == 0:
            break
        a, b = order[near], order[near + s]
        hit = ((U[a] - U[b]) ** 2).sum(axis=1) <= tol * tol
        if hit.any():
            keys = np.minimum(a, b) * k + np.maximum(a, b)
            first = min(first, int(keys[hit].min()))
    if first < k * k:
        a, b = divmod(first, k)
        raise ValueError(f"duplicate {label} directions at indices {a} and {b}")


def _grid_side(side, label: str) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (angles, units) of one grid side, checked as Direction checks.

    side is a sequence of Directions or a 2 x k array of azimuths (row 0)
    and elevations (row 1).
    """
    if isinstance(side, np.ndarray):
        angles = np.array(side, dtype=float)
    else:
        angles = direction_angles(side)
    if angles.ndim != 2 or angles.shape[0] != 2:
        raise ValueError(f"{label} angles must be a 2 x k array")
    if angles.shape[1] == 0:
        raise ValueError("grid must test at least one DoA and one DoD")
    az, el = angles
    bad = np.flatnonzero(~((el >= -HALF_PI) & (el <= HALF_PI)))
    if bad.size:
        raise ValueError(f"elevation {el[bad[0]]} outside [-pi/2, pi/2]")
    bad = np.flatnonzero(~np.isfinite(az))
    if bad.size:
        raise ValueError(f"azimuth {az[bad[0]]} is not finite")
    units = unit_vectors_from_angles(wrap_azimuth(az), el)
    _check_no_duplicates(units, label)
    angles.setflags(write=False)
    units.setflags(write=False)
    return angles, units


class DirectionGrid:
    """Candidate DoAs and DoDs to test; directions must be pairwise distinct.

    Each side is given as a sequence of Directions or as a 2 x k array of
    azimuths and elevations, checked as Direction checks them. It is held
    as two read-only arrays: doa_angles / dod_angles, the angles as given,
    and doa_units / dod_units, the 3 x k unit vectors of the wrapped
    directions. test_doas and test_dods are built from the angles on first
    use.
    """

    def __init__(self, test_doas, test_dods):
        self.doa_angles, self.doa_units = _grid_side(test_doas, "DoA")
        self.dod_angles, self.dod_units = _grid_side(test_dods, "DoD")

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
    def hemisphere(cls, m_az: int, m_el: int, n_az: int, n_el: int) -> "DirectionGrid":
        """DoAs on hemisphere_directions(m_az, m_el), DoDs on (n_az, n_el)."""
        return cls(_cell_centres(m_az, m_el), _cell_centres(n_az, n_el))

    @classmethod
    def product(cls, m: int, n: int) -> "DirectionGrid":
        """Square product grids of m DoAs and n DoDs (m, n perfect squares)."""
        ka, kd = math.isqrt(m), math.isqrt(n)
        if ka * ka != m or kd * kd != n:
            raise ValueError("product grid sizes must be perfect squares; "
                             "use DirectionGrid.hemisphere for other layouts")
        return cls.hemisphere(ka, ka, kd, kd)


@dataclass(frozen=True, eq=False)
class Dictionary:
    """Observed atoms, the one model of a path that Matching Pursuit scores and fits.

    Column i of K_r is W^H e_r(doa_i) / doa_norms[i], doa_norms[i] =
    ||W^H e_r(doa_i)||, and doa_angles[:, i] holds doa_i's azimuth and
    elevation; likewise K_t, dod_norms and dod_angles for X^H e_t(dod_j).
    Grid directions annihilated by W or X are dropped. g_r and g_t are the
    arrays. K_r_H, the C-contiguous conjugate transpose of K_r, is built
    once here for the selectors.
    """

    K_r: np.ndarray
    K_t: np.ndarray
    doa_norms: np.ndarray
    dod_norms: np.ndarray
    doa_angles: np.ndarray
    dod_angles: np.ndarray
    g_r: ArrayGeometry
    g_t: ArrayGeometry
    K_r_H: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "K_r_H", np.conjugate(self.K_r.T, order="C"))

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


def _observed_side(raw: np.ndarray, angles: np.ndarray, label: str):
    """raw's kept columns normalized, in place when none is dropped, their norms and angles."""
    norms = np.linalg.norm(raw, axis=0)
    keep = norms > ATOM_NORM_TOL
    if not np.all(keep):
        warnings.warn(f"dropping {int((~keep).sum())} {label} grid directions "
                      "annihilated by the observation matrices", stacklevel=3)
        if not np.any(keep):
            raise ValueError(f"every {label} grid direction is annihilated")
        raw, norms, angles = raw[:, keep], norms[keep], angles[:, keep]
    raw /= norms
    return raw, norms, angles


def build_dictionaries(grid: DirectionGrid, s: ObservationSetup,
                       g_r: ArrayGeometry, g_t: ArrayGeometry) -> Dictionary:
    """Project the grid's steering vectors through W and X and normalize."""
    K_r, doa_norms, doa_angles = _observed_side(
        s.W.conj().T @ steering_matrix(g_r, grid.doa_units), grid.doa_angles, "DoA")
    K_t, dod_norms, dod_angles = _observed_side(
        s.X.conj().T @ steering_matrix(g_t, grid.dod_units), grid.dod_angles, "DoD")
    return Dictionary(K_r, K_t, doa_norms, dod_norms, doa_angles, dod_angles, g_r, g_t)


@dataclass(frozen=True)
class Selection:
    """Chosen dictionary columns and the number of candidate scores evaluated."""

    doa_index: int
    dod_index: int
    score_evaluations: int


def _scaled(Y: np.ndarray) -> tuple[np.ndarray, float | None]:
    """Ys = Y / 2^e with 1/2 <= max|Ys| < 1, and the margin of marginals read from Ys.

    The scaling is exact, so products of Ys are those of Y exactly scaled
    and no squared score overflows or underflows. (Y, None) when Y is zero
    or holds NaN or inf. See joint_select for the margin.
    """
    a = float(np.abs(Y).max())
    if not 0.0 < a < math.inf:
        return Y, None
    e = math.frexp(a)[1]
    Ys = Y * math.ldexp(1.0, -e // 2) * math.ldexp(1.0, -(e // 2))  # 2^-e alone may overflow
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
                margin: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Increasing rows of K_H and columns of YK = Ys K that may hold max |(K_H Ys K)_ij|.

    These are the rows and columns whose marginal norm ||k_i^H Ys|| or
    ||Ys k_j|| is at least the score of the better of two feasible pairs,
    less the rounding margin; (Ys, margin) is _scaled's (see joint_select).
    A None margin, for a zero or non-finite Y, keeps every row and column.
    """
    if margin is None:
        return np.arange(K_H.shape[0]), np.arange(YK.shape[1])
    row_norms = _marginal_norms(K_H, Ys)
    col_norms = np.linalg.norm(YK, axis=0)
    i0, j1 = int(np.argmax(row_norms)), int(np.argmax(col_norms))
    floor = max(float(np.abs(K_H[i0] @ YK).max()),
                float(np.abs(K_H @ YK[:, j1]).max())) - margin
    return np.flatnonzero(row_norms >= floor), np.flatnonzero(col_norms >= floor)


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


def _screened_rows(left: np.ndarray, right: np.ndarray,
                   pool: Helpers | None = None) -> np.ndarray:
    """Increasing indices of the rows of C = left @ right that may hold max |C_ij|.

    Each factor is scaled by its largest entry modulus, which keeps every
    complex64 product and partial sum at most r in modulus (no overflow) and
    the bound below far above float32's underflow level; positive scaling
    moves no argmax. A zero or non-finite factor returns every row.

    The _SCORE_BLOCK_ROWS-row blocks are split into contiguous ranges, one
    for the calling thread and one for each of pool's helpers, at most one
    per block. Every block is the same product whatever the split, so the
    screened values, and the rows returned, do not depend on pool.
    """
    m, r = left.shape
    n = right.shape[1]
    abs_left, abs_right = np.abs(left), np.abs(right)
    a, b = float(abs_left.max()), float(abs_right.max())
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        return np.arange(m)
    abs_left /= a
    abs_right /= b
    norms = math.sqrt(float(np.square(abs_left).sum(axis=1).max())
                      * float(np.square(abs_right).sum(axis=0).max()))
    left32 = np.empty(left.shape, dtype=np.complex64)
    right32 = np.empty(right.shape, dtype=np.complex64)
    np.divide(left, a, out=left32, casting="same_kind")
    np.divide(right, b, out=right32, casting="same_kind")
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
    delta = _SCREEN_SAFETY * (r + 4) * _U32 * norms + 2.0 * _U32 * top
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
    or to L, so the margin covers them all. A zero or non-finite Y keeps
    every pair. On paper-scale residuals (16 x 64 observations, 2500 x 2500
    grids) the prune keeps under 1% of the m*n pairs while strong paths
    remain, and most of them once the residual is mostly noise.

    Screen. The kept rows of left and columns of right are scaled (see
    _screened_rows) so that float32 cannot overflow and its underflow stays
    far below the bound, every kept |C_ij| is computed in complex64 (unit
    roundoff u = 2^-24), and each kept row keeps its largest value. A
    screened value s_ij differs from the scaled |C_ij| by at most

        delta = c (r + 4) u max_i ||left_i|| max_j ||right_j|| + 2 u top,

    where top is the largest screened value, the maxima over the kept rows
    and columns, and c = _SCREEN_SAFETY = 4.
    With S_ij = sum_k |left_ik| |right_kj| <= ||left_i|| ||right_j||
    (Cauchy-Schwarz):
    - rounding the factors to complex64 moves each entry by at most u
      relatively, and so the product by at most (2u + u^2) S_ij;
    - the complex64 inner product of length r adds at most
      sqrt(2) gamma_{r+2} S_ij, gamma_k = k u / (1 - k u) (Higham, Accuracy
      and Stability of Numerical Algorithms, 2nd ed., sec. 3.6), in any
      summation order, with or without fused multiply-adds;
    - the float32 modulus of a computed value z adds at most 2u |z|, and
      |z| <= top (1 + 3u).
    As sqrt(2) (r + 2) + 2 <= sqrt(2) (r + 4), c = sqrt(2) would do up to
    second-order terms. c = 4 also covers the gamma denominator, the float64
    scaling, the underflow of scaled entries (about r 2^-126 in absolute
    terms even with subnormals flushed to zero, while delta >= c (r + 4) u
    because both largest norms are at least 1) and the complex128 rounding
    of the exact pass, all far below u. Every maximizing pair is kept, so if
    the pick lies in row i with scaled value v, then s_i >= v - delta and
    top <= v + delta: a row survives when its screened maximum is at least
    top - 2 delta, and every row holding the maximum does.

    Rescore. The surviving rows, in increasing order, are scored exactly in
    complex128 over all n columns by _best_in_rows, the same code that
    scores the whole grid when every row survives (a zero residual, or one
    whose scores all lie within 2 delta of each other). Usually one or two
    rows survive. score_evaluations counts all m*n candidate scores either
    way, the paper's cost model.

    pool, when given, shares the screen's blocks between the calling thread
    and its helpers (see _screened_rows); the pick does not depend on it.
    """
    K_r_H, K_t = dictionary.K_r_H, dictionary.K_t
    Ys, margin = _scaled(Y)
    if K_r_H.shape[1] <= K_t.shape[0]:
        left, right = K_r_H, Ys @ K_t
        rows, cols = _candidates(K_r_H, Ys, right, margin)
    else:
        left, right = K_r_H @ Ys, K_t
        cols, rows = _candidates(K_t.T, Ys.T, left.T, margin)
    screened = rows[_screened_rows(left[rows], right[:, cols], pool)]
    i, j = _best_in_rows(left, right, screened)
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


def _least_squares_gain(Y: np.ndarray, a_r: np.ndarray, a_t: np.ndarray) -> complex:
    """argmin_c ||Y - c a_r a_t^H||_F = a_r^H Y a_t / (||a_r||^2 ||a_t||^2)."""
    denom = float(np.vdot(a_r, a_r).real * np.vdot(a_t, a_t).real)
    if denom <= ATOM_NORM_TOL ** 2:
        raise ValueError("direction pair is annihilated by the observation matrices")
    return complex(a_r.conj() @ Y @ a_t) / denom


def relative_error(true_channel, paths, g_r: ArrayGeometry, g_t: ArrayGeometry) -> float:
    """||H - H_hat||_F^2 / ||H||_F^2 for the ChannelMatrix true_channel and the
    channel synthesized from paths; no paths means H_hat = 0."""
    H = true_channel.matrix
    H_hat = synthesize(PathSet(paths), g_r, g_t).matrix if paths else 0.0
    return float(np.linalg.norm(H - H_hat) ** 2 / np.linalg.norm(H) ** 2)


@dataclass(frozen=True)
class EstimationReport:
    """Outcome of one Matching Pursuit run.

    score_evaluations is exactly m*n*P for the joint strategy and (m+n)*P
    for the sequential one. rmse is ||H - H_hat||_F^2 / ||H||_F^2 and is
    None when the true channel was not supplied. estimated is empty only in
    the degenerate case where every fitted gain was exactly zero.
    residual_norms tracks ||R||_F from the initial observation through every
    subtraction; least-squares fitting makes it non-increasing.
    cumulative_times[k] and paths_kept[k] are the pursuit time and the number
    of paths in estimated after iteration k + 1, so P is their length and the
    wall time their last entry. Greedy pursuit is deterministic, so its first
    p iterations are the whole run at budget p.
    """

    strategy: str
    estimated: tuple[PathParams, ...]
    rmse: float | None
    score_evaluations: int
    residual_norms: tuple[float, ...]
    cumulative_times: tuple[float, ...]
    paths_kept: tuple[int, ...]

    @property
    def P(self) -> int:
        return len(self.cumulative_times)

    @property
    def wall_time_seconds(self) -> float:
        return self.cumulative_times[-1]

    def to_json_row(self) -> dict:
        return {"strategy": self.strategy, "P": self.P, "rmse": self.rmse,
                "wall_time_s": self.wall_time_seconds,
                "score_evals": self.score_evaluations}


REPORT_COLUMNS = ("strategy", "P", "rmse", "wall_time_s", "score_evals")

_SELECTORS = {"joint": joint_select, "sequential": sequential_select}


def matching_pursuit(Y: np.ndarray, dictionary: Dictionary, P_budget: int,
                     strategy: str, true_channel=None,
                     pool: Helpers | None = None) -> EstimationReport:
    """Greedy P_budget-path estimate of the channel behind Y.

    Each iteration selects dictionary columns (k_r, k_t) with the requested
    strategy, fits c = k_r^H R k_t on the residual R, subtracts c k_r k_t^H
    and records the path with gain c divided by the columns' norms before
    normalization, the least-squares gain of its observed contribution.
    Repeated selection of the same pair is allowed; the gains accumulate as
    separate paths. The wall time covers the pursuit loop only, not
    dictionary construction. An observation holding NaN or inf raises
    ValueError. pool is passed to the selector (see joint_select).
    """
    if P_budget < 1:
        raise ValueError("P_budget must be at least 1")
    if not np.all(np.isfinite(Y)):
        raise ValueError("observation Y holds NaN or inf entries")
    try:
        select = _SELECTORS[strategy]
    except KeyError:
        raise ValueError(f"unknown strategy {strategy!r}") from None
    K_r, K_t = dictionary.K_r, dictionary.K_t
    R = np.array(Y, dtype=complex)
    paths: list[PathParams] = []
    evaluations = 0
    residual_norms = [float(np.linalg.norm(R))]
    cumulative_times, paths_kept = [], []
    start = time.perf_counter()
    for _ in range(P_budget):
        sel = select(R, dictionary, pool)
        evaluations += sel.score_evaluations
        i, j = sel.doa_index, sel.dod_index
        c = _least_squares_gain(R, K_r[:, i], K_t[:, j])
        if c != 0:
            gain = c / (dictionary.doa_norms[i] * dictionary.dod_norms[j])
            paths.append(PathParams(abs(gain), cmath.phase(gain) % TWO_PI,
                                    dictionary.doa_of(i), dictionary.dod_of(j)))
            R -= c * np.outer(K_r[:, i], K_t[:, j].conj())
        residual_norms.append(float(np.linalg.norm(R)))
        cumulative_times.append(time.perf_counter() - start)
        paths_kept.append(len(paths))
    rmse = None
    if true_channel is not None:
        rmse = relative_error(true_channel, paths, dictionary.g_r, dictionary.g_t)
    return EstimationReport(strategy, tuple(paths), rmse, evaluations, tuple(residual_norms),
                            tuple(cumulative_times), tuple(paths_kept))


def write_csv(columns, rows, fh_or_path) -> None:
    """Write rows (objects with to_json_row()) as CSV under a header of columns.

    fh_or_path is an open text file or a path, which is created or replaced.
    """
    if not hasattr(fh_or_path, "write"):
        with open(fh_or_path, "w", newline="") as fh:
            write_csv(columns, rows, fh)
        return
    writer = csv.DictWriter(fh_or_path, fieldnames=columns)
    writer.writeheader()
    for row in rows:
        writer.writerow(row.to_json_row())


def reports_to_csv(reports, fh_or_path):
    """Write report rows ({strategy, P, rmse, wall_time_s, score_evals}) as CSV."""
    write_csv(REPORT_COLUMNS, reports, fh_or_path)
