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
from .geometry import (HALF_PI, TWO_PI, ArrayGeometry, Direction, as_int,
                       unit_vectors_from_angles, wrap_azimuth)
from .observation import ATOM_NORM_TOL, ObservationSetup, exact_scale, frobenius_norm, overflows

_SCORE_BLOCK_ROWS = 64   # rows per block of the joint scan's rescore; 32-256 time alike, 512 is slower
_SCREEN_SAFETY = 4.0     # c in the joint screen's rounding bound (see joint_select)
_U32 = 2.0 ** -24        # unit roundoff of float32
_U64 = 2.0 ** -53        # unit roundoff of float64
_TINY32 = 2.0 ** -122    # 16 x float32's smallest normal: the screen's underflow allowance
_PRUNE_SAFETY = 16.0     # c in the joint prune's rounding margin (see joint_select)
_CELL_SIDE = 5           # DoA ranks per side of a cell of the joint scan's cone bound
_CELL_MIN_PAIRS = 2 ** 16  # pruned pairs up to which the joint scan screens without its cell bound


def _cell_centres(n_az: int, n_el: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only 2 x (n_az * n_el) azimuths and elevations of hemisphere_directions,
    and the 3 x (n_az * n_el) unit vectors of the wrapped directions."""
    n_az, n_el = as_int(n_az, "grid dimension"), as_int(n_el, "grid dimension")
    if n_az < 1 or n_el < 1:
        raise ValueError("grid dimensions must be positive")
    try:
        azs = -HALF_PI + (np.arange(n_az) + 0.5) * math.pi / n_az
        els = -HALF_PI + (np.arange(n_el) + 0.5) * math.pi / n_el
        angles = np.stack([np.repeat(azs, n_el), np.tile(els, n_az)])
        units = unit_vectors_from_angles(wrap_azimuth(angles[0]), angles[1])
    except (MemoryError, ValueError):   # ValueError: a size beyond numpy's largest array
        raise ValueError(f"a {n_az} x {n_el} grid of directions is too large to "
                         "allocate") from None
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
    az, el = _cell_centres(n_az, n_el)[0].tolist()
    return tuple(map(Direction, az, el))


class DirectionGrid:
    """Candidate DoAs and DoDs to test: the cell centres of two hemisphere layouts.

    The DoAs are hemisphere_directions(m_az, m_el) and the DoDs
    hemisphere_directions(n_az, n_el). Each side is held as two read-only
    arrays: doa_angles / dod_angles, the 2 x k azimuths and elevations, and
    doa_units / dod_units, the 3 x k unit vectors of the wrapped
    directions.

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

    @property
    def m(self) -> int:
        return self.doa_angles.shape[1]

    @property
    def n(self) -> int:
        return self.dod_angles.shape[1]

    @classmethod
    def product(cls, m: int, n: int) -> "DirectionGrid":
        """Square layouts of m DoAs and n DoDs (m, n positive perfect squares)."""
        m, n = as_int(m, "m"), as_int(n, "n")
        for name, k in (("m", m), ("n", n)):
            if k < 1:
                raise ValueError(f"{name} must be positive, got {k}")
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
    selectors, and so are K_r_H32 and K_t32, K_r_H and K_t rounded entry by
    entry to C-contiguous complex64 for the selectors' screens (see
    joint_select and sequential_select): a row or column of a copy is bit for
    bit the rounded row or column of the atoms.

    The constructor enforces what the selectors' proofs and the gain fit
    assume, raising ValueError that names the field: K_r and K_t are 2-D
    with at least one column, every column of a d-row K has a computed
    squared norm within 8 d u of 1 (u = 2^-53, so a norm within about
    5 d u of 1, which a normalized column meets), doa_norms / dod_norms
    hold one finite norm per column above ATOM_NORM_TOL times their
    largest, and doa_angles / dod_angles are 2 x columns. Every array is
    then read-only, so the copies cannot go stale; the atoms themselves are
    not copied.
    """

    K_r: np.ndarray
    K_t: np.ndarray
    doa_norms: np.ndarray
    dod_norms: np.ndarray
    doa_angles: np.ndarray
    dod_angles: np.ndarray
    K_r_H: np.ndarray = field(init=False, repr=False)
    K_r_H32: np.ndarray = field(init=False, repr=False)
    K_t32: np.ndarray = field(init=False, repr=False)

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
        object.__setattr__(self, "K_r_H32", self.K_r_H.astype(np.complex64))
        object.__setattr__(self, "K_t32", self.K_t.astype(np.complex64, order="C"))
        for name in ("K_r", "K_t", "K_r_H", "K_r_H32", "K_t32", "doa_norms", "dod_norms",
                     "doa_angles", "dod_angles"):
            getattr(self, name).setflags(write=False)

    @property
    def m(self) -> int:
        return self.K_r.shape[1]

    @property
    def n(self) -> int:
        return self.K_t.shape[1]

    @cached_property
    def cells(self) -> "DoaCells":
        """The DoAs grouped into cells for joint_select's cone bound, formed on first use
        (see DoaCells), so a dictionary that only the sequential scan reads never forms them."""
        return DoaCells.of(self)

    def doa_of(self, col: int) -> Direction:
        return Direction(*self.doa_angles[:, col].tolist())

    def dod_of(self, col: int) -> Direction:
        return Direction(*self.dod_angles[:, col].tolist())


def _block_ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's block of _CELL_SIDE ranks among the distinct values, and its rank's
    offset from the middle of that block (see DoaCells). The distinct values are sorted
    in Python, and each rank found by binary search."""
    levels = np.array(sorted(set(values.tolist())))
    rank = np.searchsorted(levels, values)
    block = rank // _CELL_SIDE
    lo = block * _CELL_SIDE
    hi = np.minimum(lo + _CELL_SIDE, len(levels))
    return block, rank - 0.5 * (lo + hi - 1)


@dataclass(frozen=True, eq=False)
class DoaCells:
    """A dictionary's DoAs grouped into cells of neighbouring directions (see joint_select).

    DoA i has an azimuth rank and an elevation rank among the distinct azimuths
    and elevations of doa_angles, and its cell is the block of _CELL_SIDE x
    _CELL_SIDE ranks holding them, so a grid with dropped directions, or any
    other layout, still tiles. cell_of[i] is DoA i's cell, numbered in
    increasing block order, and members lists the DoAs cell by cell, in
    increasing cell order. centres[g] is the member nearest the middle of its
    block in rank units (the smallest DoA on ties), centres32 those rows of
    K_r_H32, and radii[g] bounds the phase-aligned distance from the centre c
    of every member a from above:

        radii[g] = max_a ||a - w c|| + 8 (n_c + 2) u,   w = c^H a / |c^H a|,

    computed in float64 (w = 1 where c^H a = 0), u = 2^-53 and n_c = K_r's
    rows. Entry by entry, w c errs by at most sqrt(2) gamma_2 |c_k| and the
    difference by u of itself, and the norm of 2 n_c squares adds (n_c + 2) u
    of itself; with ||a|| and ||c|| within 5 n_c u of 1 (see Dictionary) and
    ||a - w c|| <= 2, the computed distance lies within (2 n_c + 10) u of the
    exact ||a - w c||, and so the rounded-up radius lies above it. By the
    triangle inequality |a^H b| <= ||a - w c|| ||b|| + |w| |c^H b| for every
    b, with |w| <= 1 + 2u, which needs no optimal w.
    """

    cell_of: np.ndarray
    members: np.ndarray
    centres: np.ndarray
    centres32: np.ndarray
    radii: np.ndarray

    @classmethod
    def of(cls, d: "Dictionary") -> "DoaCells":
        az_block, az_off = _block_ranks(d.doa_angles[0])
        el_block, el_off = _block_ranks(d.doa_angles[1])
        block = az_block * (int(el_block.max()) + 1) + el_block
        # DoAs cell by cell, each cell's centre first
        members = np.lexsort((az_off ** 2 + el_off ** 2, block))
        ordered = block[members]
        new_cell = np.r_[True, ordered[1:] != ordered[:-1]]
        first = np.flatnonzero(new_cell)
        cell_of = np.empty(d.m, dtype=np.intp)
        cell_of[members] = np.cumsum(new_cell) - 1
        centres = members[first]
        C_H = d.K_r_H[centres[cell_of]]   # row i: the conjugate of DoA i's centre
        z = np.einsum("ij,ji->i", C_H, d.K_r)
        mod = np.abs(z)
        w = np.divide(z, mod, out=np.ones_like(z), where=mod > 0)
        C_H *= w.conj()[:, None]
        dist = np.linalg.norm(np.subtract(d.K_r_H, C_H, out=C_H), axis=1)
        radii = np.maximum.reduceat(dist[members], first) + 8 * (d.K_r.shape[0] + 2) * _U64
        cells = cls(cell_of, members, centres, d.K_r_H32[centres], radii)
        for name in ("cell_of", "members", "centres", "centres32", "radii"):
            getattr(cells, name).setflags(write=False)
        return cells

    @property
    def count(self) -> int:
        return len(self.centres)


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
    if not np.any(keep):
        raise ValueError(f"every {label} grid direction is annihilated")
    if not np.all(keep):
        warnings.warn(f"dropping {int((~keep).sum())} {label} grid directions "
                      "annihilated by the observation matrices", stacklevel=3)
        raw, norms, angles = raw[:, keep], norms[keep], angles[:, keep]
    raw /= norms
    return raw, np.ldexp(norms, e), angles


def build_dictionaries(grid: DirectionGrid, s: ObservationSetup,
                       g_r: ArrayGeometry, g_t: ArrayGeometry) -> Dictionary:
    """Project the grid's steering vectors through W and X and normalize; X and W
    must fit the arrays (see ObservationSetup.check_fits)."""
    s.check_fits(g_r.n_antennas, g_t.n_antennas)
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


def _scaled(Y: np.ndarray) -> tuple[np.ndarray, float, float]:
    """exact_scale's Ys = Y / 2^e, ||Ys||_F and the margin of marginals read from Ys
    (see joint_select): Ys = Y, norm and margin 0 for a zero Y. A Y that holds NaN
    or inf raises ValueError."""
    if not np.isfinite(Y).all():
        raise ValueError("observation Y holds NaN or inf entries")
    Ys, _ = exact_scale(Y)
    n_c, n_s = Y.shape
    norm = float(np.linalg.norm(Ys))
    return Ys, norm, _PRUNE_SAFETY * (n_c + 1) * (n_s + 1) * _U64 * norm


def _marginal_norms(K_H: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """||k^H Y|| for every row k^H of K_H, from the triangular factor of Y^H.

    With Y^H = Q S (Q with orthonormal columns, S min(n_c, n_s) x n_c),
    Y = S^H Q^H and so ||k^H Y|| = ||k^H S^H||: the sums of squares run over
    the real view of K_H S^H, of min(n_c, n_s) columns instead of n_s. The
    QR is complex128; the product and the sums of squares are in K_H's
    precision, complex128 or complex64.
    """
    S = np.linalg.qr(Y.conj().T, mode="r")
    T = K_H @ S.conj().T.astype(K_H.dtype, copy=False)
    v = T.view(T.real.dtype)
    return np.sqrt(np.einsum("ij,ij->i", v, v))


def _candidates(K_H: np.ndarray, Ys: np.ndarray, YK: np.ndarray, margin: float):
    """Increasing rows of K_H and columns of YK = Ys K that may hold max |(K_H Ys K)_ij|,
    the floor they meet, and every row's and column's marginal norm.

    These are the rows and columns whose marginal norm ||k_i^H Ys|| or
    ||Ys k_j|| is at least the floor: the score of the better of two feasible
    pairs, less the rounding margin; (Ys, margin) is _scaled's (see
    joint_select).
    """
    row_norms = _marginal_norms(K_H, Ys)
    col_norms = np.linalg.norm(YK, axis=0)
    i0, j1 = int(np.argmax(row_norms)), int(np.argmax(col_norms))
    floor = max(float(np.abs(K_H[i0] @ YK).max()),
                float(np.abs(K_H @ YK[:, j1]).max())) - margin
    return (np.flatnonzero(row_norms >= floor), np.flatnonzero(col_norms >= floor), floor,
            row_norms, col_norms)


def _best_in_rows(left: np.ndarray, right: np.ndarray, rows: np.ndarray) -> tuple[int, int]:
    """First-occurrence argmax of |C_ij|^2 over the given rows of C = left @ right.

    rows must be non-empty and increasing; left and right are formed from
    _scaled's Ys, whose largest squared scores neither overflow nor underflow.
    Scores are computed in complex128, _SCORE_BLOCK_ROWS rows at a time, as
    re^2 + im^2 of the product squared in place; within a block np.argmax
    takes the first maximum, and across blocks only a strictly larger score
    replaces the best, so ties break to the smallest row, then the smallest
    column.
    """
    n = right.shape[1]
    best_v, best_i, best_j = -1.0, 0, 0
    for b0 in range(0, len(rows), _SCORE_BLOCK_ROWS):
        idx = rows[b0:b0 + _SCORE_BLOCK_ROWS]
        sq = (left[idx] @ right).view(np.float64)
        sq *= sq
        s = sq[:, 0::2] + sq[:, 1::2]
        flat = int(np.argmax(s))
        v = float(s.flat[flat])
        if v > best_v:
            best_v, best_i, best_j = v, int(idx[flat // n]), flat % n
    return best_i, best_j


def _screen_delta(r: int, norm: float, top: float) -> float:
    """delta = c (r + 4) (u N + t (1 + N)) + 2 u top, N = norm: how far a complex64
    screened value may lie from its exact value (see joint_select)."""
    return _SCREEN_SAFETY * (r + 4) * (_U32 * norm + _TINY32 * (1.0 + norm)) + 2.0 * _U32 * top


def _survivors(screened: np.ndarray, r: int, norm: float, margin: float = 0.0) -> np.ndarray:
    """Increasing indices of the screened values within 2 (delta + margin) of the largest.

    The values were screened in complex64 from inner products of length r
    between unit atoms and a factor whose largest row or column norm is
    norm, and delta = _screen_delta(r, norm, top), top the largest value,
    bounds each one's distance from its exact value (see joint_select and
    sequential_select). The threshold is compared in float64, so rounding
    it to float32 cannot drop a value.
    """
    top = float(screened.max())
    delta = _screen_delta(r, norm, top)
    return np.flatnonzero(screened >= np.float64(top - 2.0 * (delta + margin)))


def _screened_cells(left32: np.ndarray, right_T32: np.ndarray, keep: np.ndarray,
                    bounds: np.ndarray, norm: float) -> np.ndarray:
    """Increasing positions of the rows of left32 that may hold max |C_ij| over the
    pairs the cell bound keeps (see joint_select).

    Rows bounds[c] to bounds[c + 1] of left32 are the candidates of one cell,
    screened against the rows of right_T32 that row c of keep marks. One
    factor holds unit atoms and the other, whose largest row or column norm
    is norm, is formed from _scaled's Ys; both are screened in complex64, and
    a row survives when its screened maximum is within 2 delta of the
    largest (see _survivors and joint_select). The cells are screened one at
    a time, each row keeping its largest modulus.
    """
    row_max = np.empty(len(left32), dtype=np.float32)
    bounds = bounds.tolist()
    for c in range(len(keep)):
        lo, hi = bounds[c], bounds[c + 1]
        kept = np.compress(keep[c], right_T32, axis=0)   # faster than right_T32[keep[c]]
        np.abs(left32[lo:hi] @ kept.T).max(axis=1, out=row_max[lo:hi])
    return _survivors(row_max, left32.shape[1], norm)


def joint_select(Y: np.ndarray, dictionary: Dictionary) -> Selection:
    """Exhaustive scan: argmax over all pairs of |k_r_i^H Y k_t_j|.

    Ties are broken by the smallest DoA index, then the smallest DoD index.
    The product C = K_r^H Ys K_t = left @ right of Ys = Y / 2^e (see
    _scaled), which scales every score exactly, is contracted over the
    smaller side of Y: left = K_r^H, right = Ys K_t when n_c <= n_s, and
    left = K_r^H Ys, right = K_t otherwise; r is that inner dimension. The
    scan prunes the grid, bounds cells of neighbouring DoAs, screens what is
    left in complex64 and returns the exact complex128 argmax.

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

    Cell bound. A prune that keeps at most _CELL_MIN_PAIRS = 2^16 pairs
    costs less to screen than to bound, and all its pairs are screened as
    one cell. Otherwise the DoAs are grouped in cells of up to 5 x 5
    neighbouring directions (see DoaCells), each with a member c as centre
    and a radius rho >= ||a - w c|| for every member a, w the computed unit
    phase of c^H a. For DoD j let b_j = Ys k_t_j, so C_ij = a_i^H b_j in
    either contraction, and ||b_j|| is DoD j's marginal. Then

        |a_i^H b_j| <= |c^H b_j| + rho ||b_j||

    (the cone bound of exact maximum inner-product search: Ram and Gray, KDD
    2012; Koenigstein, Ram and Shavitt, CIKM 2012), up to the factor |w| <=
    1 + 2^-52 on |c^H b_j|, so one centre score bounds every pair of the
    cell with DoD j. The centre scores s_cj of the cells that hold a kept
    DoA are screened against the kept DoDs in complex64, as the screen below
    screens rows, from the dictionary's complex64 copy of the centre
    (centres32) against the rounded columns of Ys K_t, or from the rounded
    rows c^H Ys of left against K_t32; each lies within delta_c =
    _screen_delta(r, N, top_c) of |c^H b_j|, by the screen's derivation,
    with N as below and top_c the largest centre score.

    The centres are DoAs, so the centre scores also name a third feasible
    pair: the DoD of the largest s_cj with its best DoA, scored in complex128
    as the prune scores its two. L becomes the best of the three, and the
    kept DoAs and DoDs are pruned again against it. Along 20-path pursuits
    of paper_table's residuals the prune's two pairs score at least 0.75 of
    the maximum (0.95 to 1.0 in the median), the third at least 0.95 (1.0
    in the median). A pair (cell, DoD j) is kept when

        rho (||b_j|| + margin) >= L - 2 margin - delta_c - s_cj,

    with ||b_j|| the marginal the prune computed, and a cell's kept DoAs are
    screened against its kept DoDs only. If (i, j) is a maximizing pair,
    with exact score v >= L_exact, the computed L is at most L_exact +
    margin, the computed ||b_j|| at least the exact one less margin (see
    Prune) and s_cj at least |c^H b_j| - delta_c; the extra |w| factor
    (2^-52 N) lies far inside delta_c's slack. So rho (||b_j|| + margin) >=
    L - margin - delta_c - s_cj holds in exact arithmetic, and the second
    margin covers the rule's float64 evaluation: six roundings of values
    below 3 ||Ys||_F (rho <= sqrt(2) up to rounding), at most 18 u ||Ys||_F
    with margin >= 64 u ||Ys||_F (as (n_c + 1) (n_s + 1) >= 4). So the cell
    of every maximizing pair keeps its DoD, and its DoA is screened against
    it. On the paper's 50 x 50 DoA grid and 16 receive antennas the radii of
    the 5 x 5 cells lie between 0.21 and 0.60 (up to 0.31 for 2 x 2 cells,
    1.22 for 10 x 10).

    Screen. One factor holds unit atoms and the other is formed from Ys
    (entries below 1 in modulus), so no complex64 value can overflow: the
    kept rows of left and columns of right are rounded to complex64 (unit
    roundoff u = 2^-24) as they are, the atoms' side read off the
    dictionary's complex64 copy (K_r_H32 or K_t32, rounded entry by entry,
    so the same values), every |C_ij| of a kept DoA against its cell's kept
    DoDs is computed in complex64, and each screened row keeps its largest
    value. A screened value s_ij differs from the scaled |C_ij| by at most

        delta = c (r + 4) (u N + t (1 + N)) + 2 u top,

    where N is the largest norm of a row or column of the factor formed
    from Ys, the largest marginal of its side (see _candidates), t = _TINY32 = 2^-122, top is the
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
    Every maximizing pair is screened, so if the pick lies in row i with
    value v, then s_i >= v - delta and top <= v + delta: a row survives when
    its screened maximum is at least top - 2 delta, as every maximum's row
    does.

    Rescore. The surviving rows, in increasing order, are scored exactly in
    complex128 over all n columns by _best_in_rows. All rows are when the
    scores lie within 2 delta of each other, as for a zero Y: its margin and
    L are 0, so the prune keeps every pair, the cell bound every cell (its
    delta_c > 0) and the screen's c (r + 4) t (1 + N) term every row.
    Usually one or two rows survive. score_evaluations counts all m*n
    candidate scores either way, the paper's cost model. A Y that holds NaN
    or inf raises ValueError.
    """
    K_r_H, K_t, cells = dictionary.K_r_H, dictionary.K_t, dictionary.cells
    Ys, _, margin = _scaled(Y)
    contract_combiners = K_r_H.shape[1] <= K_t.shape[0]
    left, right = (K_r_H, Ys @ K_t) if contract_combiners else (K_r_H @ Ys, K_t)
    if contract_combiners:
        rows, cols, floor, doa_norms, dod_norms = _candidates(K_r_H, Ys, right, margin)
        norm = float(dod_norms.max())
        right_T32 = right[:, cols].T.astype(np.complex64, order="C")
    else:
        cols, rows, floor, dod_norms, doa_norms = _candidates(K_t.T, Ys.T, left.T, margin)
        norm = float(doa_norms.max())
        right_T32 = dictionary.K_t32[:, cols].T.copy()
    if len(rows) * len(cols) <= _CELL_MIN_PAIRS:
        # a screen this small costs less than the cell bound: all of it is one cell
        screened, bounds = rows, np.array([0, len(rows)])
        keep = np.ones((1, len(cols)), dtype=bool)
    else:
        # the centre scores of the cells that hold a kept DoA
        live = np.unique(cells.cell_of[rows])
        centres = (cells.centres32[live] if contract_combiners
                   else left[cells.centres[live]].astype(np.complex64))
        scores = np.abs(centres @ right_T32.T)
        delta = _screen_delta(left.shape[1], norm, float(scores.max()))
        # a third feasible pair: the DoD of the largest centre score with its best DoA
        best = cols[int(np.argmax(scores)) % len(cols)]
        floor = max(floor, float(np.abs(left @ right[:, best]).max()) - margin)
        # the cell bound's rule, in float64
        keep = scores >= floor - margin - delta - np.multiply.outer(cells.radii[live],
                                                                    dod_norms[cols] + margin)
        keep &= dod_norms[cols] >= floor
        # the kept DoAs of the cells that keep a DoD, cell by cell
        screen = np.zeros(dictionary.m, dtype=bool)
        screen[rows[doa_norms[rows] >= floor]] = True
        screened = cells.members[screen[cells.members]]
        g = np.searchsorted(live, cells.cell_of[screened])   # their rows of keep
        reached = keep.any(axis=1)[g]
        screened, g = screened[reached], g[reached]
        starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
        keep, bounds = keep[g[starts]], np.r_[starts, len(screened)]
    left32 = dictionary.K_r_H32[screened] if contract_combiners else left[screened]
    survivors = screened[_screened_cells(left32.astype(np.complex64, copy=False), right_T32,
                                         keep, bounds, norm)]
    i, j = _best_in_rows(left, right, np.sort(survivors))
    return Selection(i, j, dictionary.m * dictionary.n)


def sequential_select(Y: np.ndarray, dictionary: Dictionary) -> Selection:
    """Decoupled scan: DoA from the marginal energy criterion, then DoD.

    Stage 1 maximizes the received energy along each combined receive atom,
    ||k_r_i^H Y||^2 = diag(K_r^H Y Y^H K_r), over m candidates; stage 2 fixes
    that atom and maximizes |k_r^H Y K_t| over n candidates. Ties break to
    the smallest index. Stage 2 uses the normalized combined atom, which
    selects the same index as the raw steering vector whenever combining is
    lossless.

    Both stages read Ys = Y / 2^e (see _scaled), screen every candidate in
    complex64 against the dictionary's complex64 copies and rescore the
    survivors exactly in complex128; the survivors hold every maximizer, so
    the picks are brute force's, first-index ties included. u = 2^-24 is
    float32's unit roundoff, t = _TINY32 = 2^-122 and c = _SCREEN_SAFETY =
    4, as in joint_select's screen, and each stage keeps the candidates
    within 2 (delta + margin) of its largest screened value (see
    _survivors).

    Stage 1 screen. The marginal norms come from the triangular factor S of
    Ys^H (see _marginal_norms): ||k_r_i^H Ys|| = ||k_r_i^H S^H||, in m n_c q
    multiply-adds, q = min(n_c, n_s), instead of the m n_c n_s of K_r^H Ys.
    The QR is complex128, and with the complex128 rounding of the rescore
    below it moves a norm by less than joint_select's margin. The product
    K_r_H32 @ S^H and its sums of squares are complex64, and a screened
    norm lies within

        delta_1 = c (r + 4) (u N + t (1 + N)) + 2 u top

    of the exact ||k_r_i^H S^H||, where r = n_c is the inner dimension, N =
    ||Ys||_F (||S||_F to within complex128 rounding) and top is the largest
    screened norm. With a = k_r_i^H (norm 1 within 5 d u_64, see
    Dictionary) and b_j column j of S^H:
    - entry j of the product is off by at most ((2u + u^2) + sqrt(2)
      gamma_{r+2}) sum_k |a_k| |b_kj| <= sqrt(2) (r + 4) u ||a|| ||b_j||, the
      terms of joint_select's screen, so the computed row is within
      sqrt(2) (r + 4) u N of the exact one;
    - its float32 sum of 2q squares and square root add at most (q + 1) u
      times its norm, below (r + 1) u N up to second-order terms;
    - flushing values below 2^-126 to zero moves the row by at most
      2^-126 (sqrt(2 r) N + sqrt(2) r + sqrt(q) (8 r + 1)) through the
      factors' entries and the products, and a flushed square loses at
      most 2^-126 of a sum of 2q squares, so a norm at most 2 sqrt(q) 2^-63;
    - c (r + 4) u N exceeds the sum of the first two by (1.5 r + 9) u N,
      which covers the second-order terms and the flushing: a nonzero Ys
      has an entry of modulus at least 1/2 (see exact_scale), so N >= 1/2.
      A zero Ys screens every norm as 0, and the t (1 + N) term keeps
      them all.
    A DoA whose rescored energy is largest has an exact norm within 2
    margin of the largest exact norm e, so its screened norm is at least
    e - 2 margin - delta_1, while top <= e + delta_1: every maximizer
    survives the threshold top - 2 (delta_1 + margin).

    Stage 1 rescore. The rows of T = K_r^H Ys of the surviving DoAs are
    formed in complex128, and their energies are the sums of squares over
    the real view of those rows, as if T were formed whole; the first
    largest, in increasing DoA order, is the pick. At paper scale at most a
    few DoAs survive.

    Stage 2. The picked row x of T is rounded to complex64 and screened as
    |x K_t32|, joint_select's screen with one row: inner products of length
    r = n_s between unit atoms and x, whose norm N = ||x|| is the square
    root of the row's energy. Every screened score is within delta_2 =
    c (r + 4) (u N + t (1 + N)) + 2 u top of |x k_t_j|, by joint_select's
    derivation (factor rounding, sqrt(2) gamma_{r+2}, the float32
    modulus's 2 u |z| with |z| <= top (1 + 3u), the atoms' norms and
    flushing), so every maximizer is within 2 delta_2 of the top. The
    surviving DoDs are scored exactly by _best_in_rows on those columns of
    K_t, whose first maximum is the pick.

    A zero Y keeps every candidate in both stages (every screened value is
    0 and delta > 0), so the pick is (0, 0). score_evaluations counts the
    m + n candidate scores, the paper's cost model. A Y that holds NaN or
    inf raises ValueError (see _scaled).
    """
    Ys, norm, margin = _scaled(Y)
    n_c, n_s = Ys.shape
    rows = _survivors(_marginal_norms(dictionary.K_r_H32, Ys), n_c, norm, margin)
    T = dictionary.K_r_H[rows] @ Ys
    v = T.view(np.float64)
    energies = np.einsum("ij,ij->i", v, v)
    k = int(np.argmax(energies))
    cols = _survivors(np.abs(T[k].astype(np.complex64) @ dictionary.K_t32), n_s,
                      math.sqrt(energies[k]))
    _, j = _best_in_rows(T, dictionary.K_t[:, cols], np.array([k]))
    return Selection(int(rows[k]), int(cols[j]), dictionary.m + dictionary.n)


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
    for the sequential one. estimated holds the paths of the nonzero fitted
    gains in pursuit order. residual_norms tracks ||R||_F from the initial
    observation through every subtraction; least-squares fitting makes it
    non-increasing. cumulative_times[k] is the pursuit time after iteration
    k + 1, so P is its length. Greedy pursuit is deterministic, so its
    first p iterations are the whole run at budget p, and reading(p, ...)
    reads it there.
    """

    estimated: tuple[PathParams, ...]
    score_evaluations: int
    residual_norms: tuple[float, ...]
    cumulative_times: tuple[float, ...]

    @property
    def P(self) -> int:
        return len(self.cumulative_times)

    def reading(self, P: int, true_channel, g_r: ArrayGeometry,
                g_t: ArrayGeometry) -> Reading:
        """The run at budget P, a whole number 1 <= P <= self.P (else ValueError, see
        as_int), scored against the ChannelMatrix true_channel on the arrays g_r and
        g_t; no paths kept means H_hat = 0. It kept estimated[:P]: a zero gain leaves
        R as it was, so every later iteration repeats its pick and fits zero too.
        rmse is read off (H - H_hat) / 2^e and H / 2^e' (see exact_scale), so it is
        the unscaled value wherever that is finite, and raises ValueError where that
        overflows (see overflows)."""
        P = as_int(P, "budget P")
        if not 1 <= P <= self.P:
            raise ValueError(f"budget P must lie in [1, {self.P}], got {P}")
        paths = self.estimated[:P]
        H = true_channel.matrix
        H_hat = synthesize(PathSet(paths), g_r, g_t).matrix if paths else 0.0
        (a, e_a), (b, e_b) = exact_scale(H - H_hat), exact_scale(H)
        ratio, e = float(np.linalg.norm(a) ** 2 / np.linalg.norm(b) ** 2), 2 * (e_a - e_b)
        if overflows(ratio, e):
            raise ValueError("rmse exceeds the largest float: the estimate lies too far "
                             "from the channel, as at a sigma2 far above the signal")
        # every iteration scores the same number of candidates
        return Reading(P, math.ldexp(ratio, e), self.cumulative_times[P - 1],
                       self.score_evaluations * P // self.P)


_SELECTORS = {"joint": joint_select, "sequential": sequential_select}


def selector(strategy):
    """The selection function of a _SELECTORS key, looked up at call time; any
    other strategy, an unhashable one too, raises ValueError."""
    try:
        return _SELECTORS[strategy]
    except (KeyError, TypeError):   # TypeError: an unhashable strategy
        raise ValueError(f"unknown strategy {strategy!r}") from None


def matching_pursuit(Y: np.ndarray, dictionary: Dictionary, P_budget: int,
                     strategy: str) -> EstimationReport:
    """Greedy P_budget-path estimate of the channel behind Y.

    Each iteration selects dictionary columns (k_r, k_t) with the requested
    strategy, fits c = k_r^H R k_t on the residual R (the least-squares gain
    of unit atoms), subtracts c k_r k_t^H and records the path with gain c
    divided by the columns' norms before normalization, the least-squares
    gain of its observed contribution. Repeated selection of the same pair
    is allowed; the gains accumulate as separate paths. The wall time covers
    the pursuit loop only; the joint scan's cells (see Dictionary.cells) are
    formed before it. A gain c with a part of 2^1022 or more, whose partial
    products in c k_r k_t^H may overflow though ||Y||_F is finite, is
    subtracted on R / 2^e (see exact_scale), where the powers of two scale
    every rounding exactly; any other gain is subtracted as it is. A Y that is not K_r.shape[0] x
    K_t.shape[0], holds NaN or inf or has a Frobenius norm beyond the
    largest float, or a P_budget that is not a whole number (see as_int) of
    at least 1, raises ValueError.
    """
    K_r, K_t = dictionary.K_r, dictionary.K_t
    if np.shape(Y) != (K_r.shape[0], K_t.shape[0]):
        raise ValueError(f"observation Y has shape {np.shape(Y)}, but the dictionary's "
                         f"atoms need {(K_r.shape[0], K_t.shape[0])}")
    P_budget = as_int(P_budget, "P_budget")
    if P_budget < 1:
        raise ValueError("P_budget must be at least 1")
    select = selector(strategy)
    if strategy == "joint":
        dictionary.cells   # formed once, outside the timed loop
    R = np.array(Y, dtype=complex)
    paths: list[PathParams] = []
    evaluations = 0
    residual_norms = [frobenius_norm(R, "observation Y")]
    cumulative_times = []
    start = time.perf_counter()
    for _ in range(P_budget):
        sel = select(R, dictionary)
        evaluations += sel.score_evaluations
        i, j = sel.doa_index, sel.dod_index
        c = complex(dictionary.K_r_H[i] @ R @ K_t[:, j])
        if c != 0:
            gain = c / (dictionary.doa_norms[i] * dictionary.dod_norms[j])
            paths.append(PathParams(abs(gain), cmath.phase(gain) % TWO_PI,
                                    dictionary.doa_of(i), dictionary.dod_of(j)))
            atom = np.outer(K_r[:, i], K_t[:, j].conj())
            if max(abs(c.real), abs(c.imag)) < 2.0 ** 1022:
                R -= c * atom
            else:
                Rs, e = exact_scale(R)
                Rs -= c * math.ldexp(1.0, -e // 2) * math.ldexp(1.0, -(e // 2)) * atom
                R = Rs * math.ldexp(1.0, e // 2) * math.ldexp(1.0, e - e // 2)
        residual_norms.append(frobenius_norm(R, "the residual"))
        cumulative_times.append(time.perf_counter() - start)
    return EstimationReport(tuple(paths), evaluations, tuple(residual_norms),
                            tuple(cumulative_times))

