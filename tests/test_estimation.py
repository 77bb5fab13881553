import math
import re
import warnings
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import orth

from mimolab import estimation
from mimolab.channel import PathParams, PathSet, steering_matrix, steering_vector, synthesize
from mimolab.cli import _build_grid
from mimolab.estimation import (DirectionGrid, build_dictionaries, hemisphere_directions,
                                joint_select, matching_pursuit, sequential_select)
from mimolab.geometry import Direction, direction_angles, unit_vectors, upa, wrap_azimuth
from mimolab.observation import ATOM_NORM_TOL, ObservationSetup, identity_setup, observe

from conftest import per_antenna_steering


@pytest.fixture(autouse=True)
def cell_bound_on_every_screen(monkeypatch):
    """The dictionaries here are small enough for joint_select to screen their
    pruned pairs without the cell bound; every test below runs the cell bound
    instead, unless it sets _CELL_MIN_PAIRS itself."""
    monkeypatch.setattr(estimation, "_CELL_MIN_PAIRS", 0)


def small_grid(k=6):
    return DirectionGrid(k, k, k, k)


def atom_dictionary(K_r, K_t, grid):
    """A Dictionary holding the given atoms at unit norm, on the grid's first directions."""
    m, n = K_r.shape[1], K_t.shape[1]
    return estimation.Dictionary(K_r, K_t, np.ones(m), np.ones(n), grid.doa_angles[:, :m],
                                 grid.dod_angles[:, :n])


def on_grid_scenario(grid, doa_idx, dod_idx, rho=1.2, phi=0.7, n_r=(2, 2), n_t=(2, 3)):
    g_r, g_t = upa(*n_r), upa(*n_t)
    s = identity_setup(g_t.n_antennas, g_r.n_antennas, 0.0)
    d = build_dictionaries(grid, s, g_r, g_t)   # identity observation drops no direction
    p = PathParams(rho, phi, d.doa_of(doa_idx), d.dod_of(dod_idx))
    H = synthesize(PathSet([p]), g_r, g_t)
    Y = observe(H, s, 0)
    return g_r, g_t, p, H, s, Y


def test_hemisphere_directions_layout():
    dirs = hemisphere_directions(5, 4)
    assert len(dirs) == 20
    assert all(-math.pi / 2 < d.azimuth < math.pi / 2 for d in dirs)
    assert all(-math.pi / 2 < d.elevation < math.pi / 2 for d in dirs)
    with pytest.raises(ValueError):
        hemisphere_directions(0, 4)


def test_grid_validation():
    # a grid is its layout: a count below 1 anywhere leaves a side empty
    for counts in ((0, 4, 2, 2), (4, 0, 2, 2), (2, 2, 0, 4), (2, 2, 4, -1)):
        with pytest.raises(ValueError, match="grid dimensions must be positive"):
            DirectionGrid(*counts)


def test_grid_product_requires_squares():
    g = DirectionGrid.product(2500, 100)
    assert g.m == 2500 and g.n == 100
    with pytest.raises(ValueError):
        DirectionGrid.product(2000, 100)


def test_grid_directions_lie_the_stated_bound_apart():
    # DirectionGrid's docstring: distinct directions of an n_az x n_el side
    # lie at least 2 / (n_az n_el) apart as unit vectors, so none coincide
    for n_az in range(1, 17):
        for n_el in range(1, 17):
            U = DirectionGrid(n_az, n_el, 1, 1).doa_units
            d2 = ((U[:, :, None] - U[:, None, :]) ** 2).sum(axis=0)
            np.fill_diagonal(d2, np.inf)
            assert np.sqrt(d2.min()) >= 2 / (n_az * n_el), (n_az, n_el)


def test_grid_product_large():
    # the all-pairs check took seconds at this size; no timing is asserted
    g = DirectionGrid.product(10000, 2500)
    assert (g.m, g.n) == (10000, 2500)


def assert_grid_is_its_layout(grid, doa_layout, dod_layout, setups, g_r, g_t):
    """The grid's unit vectors and dictionaries are those built from
    hemisphere_directions' Directions, bit for bit; its angles equal theirs
    once wrapped."""
    E = {}
    for side, layout, g in (("doa", doa_layout, g_r), ("dod", dod_layout, g_t)):
        dirs = hemisphere_directions(*layout)
        (az, el), (az_d, el_d) = getattr(grid, side + "_angles"), direction_angles(dirs)
        assert np.array_equal(wrap_azimuth(az), az_d) and np.array_equal(el, el_d)
        assert np.array_equal(getattr(grid, side + "_units"), unit_vectors(dirs))
        E[side] = steering_matrix(g, unit_vectors(dirs))
    for s in setups:
        d = build_dictionaries(grid, s, g_r, g_t)
        for K, norms, M, side in ((d.K_r, d.doa_norms, s.W, "doa"),
                                  (d.K_t, d.dod_norms, s.X, "dod")):
            raw = M.conj().T @ E[side]
            assert np.array_equal(norms, np.linalg.norm(raw, axis=0))
            assert np.array_equal(K, raw / norms)


def test_grid_from_angles_equals_grid_from_directions(rng):
    g_r, g_t = upa(4, 4), upa(4, 2)
    W = rng.normal(size=(16, 5)) + 1j * rng.normal(size=(16, 5))
    setups = (identity_setup(8, 16, 1.0), ObservationSetup(np.eye(8)[:, :6], W, 1.0))
    assert_grid_is_its_layout(DirectionGrid.product(2500, 400), (50, 50), (20, 20), setups,
                              g_r, g_t)
    # a non-square layout, through the CLI's grid block
    cli_grid = _build_grid({"grid": {"m_az": 7, "m_el": 3, "n_az": 4, "n_el": 9}})
    assert (cli_grid.m, cli_grid.n) == (21, 36)
    assert_grid_is_its_layout(cli_grid, (7, 3), (4, 9), setups, g_r, g_t)


def test_grid_angles_kept_as_given_and_wrapped_once():
    # the angles are the cell centres as computed; Directions and unit
    # vectors read them wrapped
    grid = DirectionGrid(5, 3, 2, 4)
    az = -math.pi / 2 + (np.arange(5) + 0.5) * math.pi / 5
    el = -math.pi / 2 + (np.arange(3) + 0.5) * math.pi / 3
    assert np.array_equal(grid.doa_angles, [np.repeat(az, 3), np.tile(el, 5)])
    doas = hemisphere_directions(5, 3)
    assert doas == tuple(Direction(a, e) for a, e in grid.doa_angles.T)
    assert np.array_equal(grid.doa_units, unit_vectors(doas))
    assert not grid.doa_angles.flags.writeable and not grid.doa_units.flags.writeable


def test_dictionary_conjugate_transpose_built_once(rng):
    grid = small_grid(4)
    dirs = hemisphere_directions(4, 4)
    g_r, g_t = upa(2, 2), upa(2, 3)
    e0 = steering_vector(g_r, dirs[0])
    dropped = ObservationSetup(np.eye(6), orth(np.eye(4) - np.outer(e0, e0.conj())), 1.0)
    with pytest.warns(UserWarning):
        d_dropped = build_dictionaries(grid, dropped, g_r, g_t)
    for d in (build_dictionaries(grid, identity_setup(6, 4, 1.0), g_r, g_t), d_dropped):
        assert np.array_equal(d.K_r_H, d.K_r.conj().T)
        assert d.K_r_H.flags.c_contiguous


def test_dictionary_identity_combiner_equals_steering(rng):
    grid = small_grid(4)
    dirs = hemisphere_directions(4, 4)
    g_r, g_t = upa(2, 2), upa(2, 2)
    s = identity_setup(4, 4, 1.0)
    d = build_dictionaries(grid, s, g_r, g_t)
    assert d.m == 16 and d.n == 16
    for col in (0, 7, 15):
        assert np.allclose(d.K_r[:, col], steering_vector(g_r, dirs[col]))
    norms_r = np.linalg.norm(d.K_r, axis=0)
    norms_t = np.linalg.norm(d.K_t, axis=0)
    assert np.all(np.abs(norms_r - 1.0) < 1e-12)
    assert np.all(np.abs(norms_t - 1.0) < 1e-12)


def test_paper_scale_dictionary_matches_atoms_formed_per_antenna():
    # the 64/16 UPAs on 2500 x 2500 grids: each atom is exp(-j a.u) / sqrt(n) formed
    # one antenna at a time, without steering_matrix, and normalized
    grid = DirectionGrid.product(2500, 2500)
    g_r, g_t = upa(4, 4), upa(8, 8)
    d = build_dictionaries(grid, identity_setup(64, 16, 1.0), g_r, g_t)
    for K, norms, g, U in ((d.K_r, d.doa_norms, g_r, grid.doa_units),
                           (d.K_t, d.dod_norms, g_t, grid.dod_units)):
        E = per_antenna_steering(g.scaled_positions, U)
        E_norms = np.linalg.norm(E, axis=0)
        assert K.shape == E.shape
        assert np.abs(K - E / E_norms).max() <= 1e-15
        # unit steering vectors: every norm is 1 up to rounding noise
        assert np.abs(norms - 1.0).max() <= ATOM_NORM_TOL
        assert np.abs(norms - E_norms).max() <= ATOM_NORM_TOL


def test_dictionary_drops_annihilated_directions(rng):
    grid = small_grid(3)
    dirs = hemisphere_directions(3, 3)
    g_r, g_t = upa(2, 2), upa(2, 2)
    # combiner orthogonal to the first grid steering vector kills that column
    e0 = steering_vector(g_r, dirs[0])
    basis = orth(np.eye(4) - np.outer(e0, e0.conj()))
    s = ObservationSetup(np.eye(4), basis, 1.0)
    with pytest.warns(UserWarning):
        d = build_dictionaries(grid, s, g_r, g_t)
    assert d.m == grid.m - 1 and d.n == grid.n
    assert np.array_equal(d.doa_angles, grid.doa_angles[:, 1:])
    assert [d.doa_of(i) for i in range(d.m)] == list(dirs[1:])
    assert [d.dod_of(j) for j in range(d.n)] == list(dirs)


@pytest.mark.parametrize("annihilating", [False, True])
def test_dictionary_and_pursuit_do_not_depend_on_the_scale_of_w_and_x(rng, annihilating):
    # W and X scaled by a power of two s keep the same atoms and picks; the
    # norms scale by s. An absolute bound of 1e-12 on the norms dropped every
    # direction at s = 2^-40, and annihilating=True drops DoA 0 at any s.
    grid = small_grid(4)
    dirs = hemisphere_directions(4, 4)
    g_r, g_t = upa(2, 2), upa(2, 3)
    e0 = steering_vector(g_r, dirs[0])
    W = orth(np.eye(4) - np.outer(e0, e0.conj())) if annihilating else np.eye(4)
    X = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))
    H = synthesize(PathSet([PathParams(1.0, 0.4, dirs[5], dirs[10]),
                            PathParams(0.5, 2.0, dirs[9], dirs[3])]),
                   g_r, g_t)

    def run(scale):
        s = ObservationSetup(scale * X, scale * W, 0.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            d = build_dictionaries(grid, s, g_r, g_t)
        assert len(caught) == annihilating
        Y = observe(H, s, 0)
        return d, [matching_pursuit(Y, d, 3, strategy).estimated
                   for strategy in ("joint", "sequential")]

    d1, picks1 = run(1.0)
    for scale in (2.0 ** -300, 2.0 ** -40, 2.0 ** 40, 2.0 ** 300):
        d, picks = run(scale)
        assert np.array_equal(d.K_r, d1.K_r) and np.array_equal(d.K_t, d1.K_t)
        assert np.array_equal(d.doa_norms, scale * d1.doa_norms)
        assert np.array_equal(d.dod_norms, scale * d1.dod_norms)
        assert picks == picks1


@pytest.mark.parametrize("field, value", [
    ("K_r", np.ones(2, dtype=complex)),                 # 1-D
    ("K_t", np.ones((2, 2, 1), dtype=complex)),         # 3-D
    ("K_r", np.zeros((2, 0), dtype=complex)),           # no atom
    # joint_select's unit-atom prune dropped every row for this K_t and
    # Y = diag(1, 0.5), then failed on an empty screen; brute force picks (1, 1)
    ("K_t", np.diag([1.0, 3.0]).astype(complex)),
    ("K_r", np.diag([1.0, 1.0 + 1e-12])),               # off by 1e-12
    ("K_t", np.diag([1.0, np.nan])),
    ("doa_norms", np.ones(3)),                          # one per column
    ("dod_norms", np.ones((2, 1))),
    ("doa_norms", np.array([1.0, 0.0])),                # ended in ZeroDivisionError
    ("dod_norms", np.array([1.0, np.inf])),
    ("doa_angles", np.zeros((2, 3))),                   # ended in IndexError
    ("dod_angles", np.zeros((3, 2))),
])
def test_dictionary_rejects_a_bad_field(field, value):
    grid = small_grid(2)
    fields = dict(K_r=np.eye(2, dtype=complex), K_t=np.eye(2, dtype=complex),
                  doa_norms=np.ones(2), dod_norms=np.ones(2), doa_angles=grid.doa_angles[:, :2],
                  dod_angles=grid.dod_angles[:, :2])
    estimation.Dictionary(**fields)
    with pytest.raises(ValueError, match=field):
        estimation.Dictionary(**dict(fields, **{field: value}))


def test_dictionary_arrays_are_read_only():
    # a write to K_r would leave K_r_H stale
    grid = small_grid(3)
    d = build_dictionaries(grid, identity_setup(4, 4, 1.0), upa(2, 2), upa(2, 2))
    for name in ("K_r", "K_t", "K_r_H", "doa_norms", "dod_norms", "doa_angles", "dod_angles"):
        array = getattr(d, name)
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0


def test_dictionary_complex64_copies_are_read_only_roundings(rng):
    # the selectors' screens read K_r_H32 and K_t32 instead of rounding the
    # atoms on every call; a write to either would leave the screens stale
    g_r, g_t = upa(2, 2), upa(2, 3)
    W = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    for s in (identity_setup(6, 4, 1.0), ObservationSetup(np.eye(6)[:, :5], W, 1.0)):
        d = build_dictionaries(small_grid(5), s, g_r, g_t)
        for copy, atoms in ((d.K_r_H32, d.K_r_H), (d.K_t32, d.K_t)):
            assert copy.dtype == np.complex64 and copy.flags.c_contiguous
            assert np.array_equal(copy, atoms.astype(np.complex64))
            with pytest.raises(ValueError, match="read-only"):
                copy[0, 0] = 0
    # atoms given as a Fortran-ordered view are copied C-contiguous too
    d = atom_dictionary(np.eye(3, dtype=complex), np.asfortranarray(np.eye(4, dtype=complex)),
                        small_grid(2))
    assert d.K_t32.flags.c_contiguous and np.array_equal(d.K_t32, np.eye(4))


def test_joint_select_finds_on_grid_path():
    grid = small_grid(6)
    g_r, g_t, p, H, s, Y = on_grid_scenario(grid, 13, 29)
    d = build_dictionaries(grid, s, g_r, g_t)
    sel = joint_select(Y, d)
    assert (sel.doa_index, sel.dod_index) == (13, 29)
    assert sel.score_evaluations == 36 * 36


def test_joint_select_matches_bruteforce_oracle(rng):
    grid = small_grid(5)
    g_r, g_t = upa(2, 2), upa(2, 3)
    s = identity_setup(6, 4, 1.0)
    d = build_dictionaries(grid, s, g_r, g_t)
    Y = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
    sel = joint_select(Y, d)
    assert (sel.doa_index, sel.dod_index) == bruteforce_pick(Y, d)


@pytest.mark.parametrize("n_c, n_s", [(2, 5), (4, 2)])
@pytest.mark.parametrize("block_rows", [7, estimation._SCORE_BLOCK_ROWS])
def test_joint_select_matches_bruteforce_oracle_hybrid(rng, monkeypatch, n_c, n_s, block_rows):
    # n_c < n_s contracts over the combiner side, n_c > n_s over the pilot
    # side; 100 DoAs leave a partial last block for either block size
    monkeypatch.setattr(estimation, "_SCORE_BLOCK_ROWS", block_rows)
    grid = DirectionGrid(10, 10, 4, 5)
    g_r, g_t = upa(2, 2), upa(2, 3)
    W = rng.normal(size=(4, n_c)) + 1j * rng.normal(size=(4, n_c))
    X = rng.normal(size=(6, n_s)) + 1j * rng.normal(size=(6, n_s))
    d = build_dictionaries(grid, ObservationSetup(X, W, 1.0), g_r, g_t)
    assert d.m == 100 and d.m % block_rows != 0
    for _ in range(3):
        Y = rng.normal(size=(n_c, n_s)) + 1j * rng.normal(size=(n_c, n_s))
        sel = joint_select(Y, d)
        assert (sel.doa_index, sel.dod_index) == bruteforce_pick(Y, d)
        assert sel.score_evaluations == 100 * 20


def exact_ints(M):
    """A 2-D float or complex array as rows of (re, im) Python integers, and their one
    power-of-two denominator q for the whole array: every finite float is a dyadic
    rational, so integer arithmetic on them is exact."""
    M = np.asarray(M, dtype=complex)
    parts = [x.as_integer_ratio() for x in np.concatenate([M.real.ravel(), M.imag.ravel()])]
    q = max(den for _, den in parts)
    ints = [num * (q // den) for num, den in parts]
    pairs = list(zip(ints[:M.size], ints[M.size:]))
    return [pairs[k:k + M.shape[1]] for k in range(0, M.size, M.shape[1])], q


class ExactOracle:
    """Exact scores of a dictionary's atoms against one Y, in integer arithmetic.

    Y, K_r and K_t are each read exactly over one denominator (see
    exact_ints), so every score below is exact, on integer data and steering
    atoms alike, and equal scores tie exactly; ties break to the smallest
    index. Each score is first formed in complex128, and only those within
    2^-30 ||Y||_F^2 of the largest, which hold every exact maximizer, are
    scored exactly.
    """

    def __init__(self, Y, d):
        self.Y, self.d = np.asarray(Y, dtype=complex), d
        (self.Yi, _), (self.Ri, _), (self.Ti, _) = map(exact_ints, (self.Y, d.K_r, d.K_t))
        self.tol = 2.0 ** -30 * float(np.linalg.norm(self.Y)) ** 2
        self._rows = {}

    def row(self, i):
        """k_r_i^H Y, scaled by the common denominators, as (re, im) integers."""
        if i not in self._rows:
            a = [r[i] for r in self.Ri]
            self._rows[i] = [
                (sum(ar * yr + ai * yi for (ar, ai), (yr, yi) in zip(a, col)),
                 sum(ar * yi - ai * yr for (ar, ai), (yr, yi) in zip(a, col)))
                for col in zip(*self.Yi)]
        return self._rows[i]

    def energy(self, i):
        return sum(re * re + im * im for re, im in self.row(i))

    def score(self, i, j):
        t, b = self.row(i), [r[j] for r in self.Ti]
        re = sum(tr * br - ti * bi for (tr, ti), (br, bi) in zip(t, b))
        im = sum(tr * bi + ti * br for (tr, ti), (br, bi) in zip(t, b))
        return re * re + im * im

    @staticmethod
    def first_max(candidates, value):
        values = [value(c) for c in candidates]
        return min(c for c, v in zip(candidates, values) if v == max(values))

    def joint(self):
        """The exact argmax of |k_r_i^H Y k_t_j| as (DoA, DoD)."""
        C = self.d.K_r_H @ self.Y @ self.d.K_t
        sq = C.real ** 2 + C.imag ** 2
        pairs = [tuple(map(int, p)) for p in np.argwhere(sq >= sq.max() - self.tol)]
        return self.first_max(pairs, lambda p: self.score(*p))

    def sequential(self):
        """(DoA of largest energy ||k_r_i^H Y||, its DoD of largest |k_r_i^H Y k_t_j|,
        the complex128 energies, the complex128 scores of that DoA's row)."""
        T = self.d.K_r_H @ self.Y
        energies = (T.real ** 2 + T.imag ** 2).sum(axis=1)
        near = np.flatnonzero(energies >= energies.max() - self.tol)
        i = self.first_max([int(k) for k in near], self.energy)
        z = T[i] @ self.d.K_t
        row = z.real ** 2 + z.imag ** 2
        near = np.flatnonzero(row >= row.max() - self.tol)
        return i, self.first_max([int(k) for k in near], lambda k: self.score(i, k)), energies, row


def bruteforce_pick(Y, d):
    """The exact argmax of |K_r^H Y K_t| as (DoA, DoD) columns, ties to the smallest
    DoA, then DoD (see ExactOracle)."""
    return ExactOracle(Y, d).joint()


def contracted_factors(Y, d):
    """The factors joint_select screens, as it forms them, and the largest
    norm of a row or column of the one formed from Ys."""
    Ys, _, _ = estimation._scaled(Y)
    if d.K_r.shape[0] <= d.K_t.shape[0]:
        right = Ys @ d.K_t
        return d.K_r.conj().T, right, float(np.linalg.norm(right, axis=0).max())
    left = d.K_r.conj().T @ Ys
    return left, d.K_t, float(np.linalg.norm(left, axis=1).max())


def rescored_rows(Y, d):
    """The DoAs joint_select's screen keeps and rescores exactly, in its one rescore,
    and its Selection."""
    rows = []
    best_in_rows = estimation._best_in_rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimation, "_best_in_rows",
                   lambda left, right, r: rows.append(r) or best_in_rows(left, right, r))
        sel = joint_select(Y, d)
    (scored,) = rows
    return scored, sel


@pytest.mark.parametrize("block_rows", [1, 7, 64])
@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
def test_best_in_rows_is_the_first_argmax_of_the_scores(rng, monkeypatch, block_rows, scale):
    # Rows of left are standard basis vectors, so each score row is a row of
    # right exactly. right is formed from _scaled's Ys; its strongest row is
    # planted in rows 10 and 12 of left (one block for 7 and 64 rows) and 70
    # and 140 (different blocks), and its best column is copied to column 33.
    monkeypatch.setattr(estimation, "_SCORE_BLOCK_ROWS", block_rows)
    m, n, r = 150, 40, 4
    Y = rng.normal(size=(3, r)) + 1j * rng.normal(size=(3, r))
    Y[:, r - 1] *= 10.0
    K_t = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    Ys, _, _ = estimation._scaled(scale * Y)
    right = Ys.T @ (K_t / np.linalg.norm(K_t, axis=0))
    j_best = int(np.argmax(np.abs(right[r - 1])))
    right[:, 33] = right[:, j_best]
    axis = rng.integers(0, r - 1, size=m)
    axis[[10, 12, 70, 140]] = r - 1
    left = np.eye(r, dtype=complex)[axis]
    j_first = min(j_best, 33)
    row_sets = [np.array([int(rng.integers(m))]), np.sort(rng.choice(m, 2, replace=False)),
                np.sort(rng.choice(m, 100, replace=False)), np.arange(m),
                np.array([12, 70, 140]), np.array([70, 140])]
    for rows in row_sets:
        k, j = divmod(int(np.argmax(np.abs(left[rows] @ right) ** 2)), n)
        assert estimation._best_in_rows(left, right, rows) == (int(rows[k]), j)
    for rows, first in ((np.arange(m), 10), (row_sets[4], 12), (row_sets[5], 70)):
        assert estimation._best_in_rows(left, right, rows) == (first, j_first)


@pytest.mark.parametrize("n_c, n_s", [(3, 6), (6, 3)])
@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
def test_joint_select_screen_matches_oracle(rng, n_c, n_s, scale):
    # 1e-150 underflows and 1e150 overflows float32 unless the screened
    # factors are formed from _scaled's Ys; 300 DoAs are not a multiple of
    # the block size
    grid = DirectionGrid(20, 15, 6, 5)
    g_r, g_t = upa(2, 3), upa(2, 4)
    W = rng.normal(size=(6, n_c)) + 1j * rng.normal(size=(6, n_c))
    X = rng.normal(size=(8, n_s)) + 1j * rng.normal(size=(8, n_s))
    d = build_dictionaries(grid, ObservationSetup(X, W, 1.0), g_r, g_t)
    assert d.m == 300 and d.m % estimation._SCORE_BLOCK_ROWS != 0
    for _ in range(5):
        Y = scale * (rng.normal(size=(n_c, n_s)) + 1j * rng.normal(size=(n_c, n_s)))
        arg = bruteforce_pick(Y, d)
        rows, sel = rescored_rows(Y, d)
        assert arg[0] in rows and len(rows) < d.m
        assert (sel.doa_index, sel.dod_index) == arg
        assert sel.score_evaluations == 300 * 30


def test_joint_select_zero_observation_tie_break():
    # a zero Y has margin and L 0, so the prune keeps every pair, the cell
    # bound every cell and the screen every row, and every row is scored
    # exactly; 300 DoAs span several score blocks and 12 cells
    grid = DirectionGrid(20, 15, 4, 4)
    g_r, g_t = upa(2, 2), upa(2, 2)
    d = build_dictionaries(grid, identity_setup(4, 4, 1.0), g_r, g_t)
    Y = np.zeros((4, 4), dtype=complex)
    rows, cols = candidates(Y, d)
    assert np.array_equal(rows, np.arange(d.m)) and np.array_equal(cols, np.arange(d.n))
    scored, sel = rescored_rows(Y, d)
    assert (sel.doa_index, sel.dod_index) == (0, 0)
    assert np.array_equal(scored, np.arange(d.m))


@pytest.mark.parametrize("n_c, n_s", [(3, 4), (4, 3)])
@pytest.mark.parametrize("tiny", [1e-39, 1e-42, 1e-44])
def test_joint_select_screens_a_subnormal_factor(rng, n_c, n_s, tiny):
    # Every atom is orthogonal to Y's first row and column, which hold its
    # largest entry, so the screened factor formed from Ys has entries near
    # tiny, in float32's subnormal range below 2^-126
    grid = DirectionGrid(20, 15, 6, 5)

    def atoms(rows, k):
        A = np.zeros((rows, k), dtype=complex)
        A[1:] = rng.normal(size=(rows - 1, k)) + 1j * rng.normal(size=(rows - 1, k))
        return A / np.linalg.norm(A, axis=0)

    d = atom_dictionary(atoms(n_c, 300), atoms(n_s, 30), grid)
    for _ in range(3):
        Y = np.zeros((n_c, n_s), dtype=complex)
        Y[0, 0] = 1.0
        Y[1:, 1:] = tiny * (rng.normal(size=(n_c - 1, n_s - 1))
                            + 1j * rng.normal(size=(n_c - 1, n_s - 1)))
        arg = bruteforce_pick(Y, d)
        left, right, norm = contracted_factors(Y, d)
        assert 0 < np.abs(right if n_c <= n_s else left).max() < 2.0 ** -126
        rows, sel = rescored_rows(Y, d)
        assert arg[0] in rows
        assert (sel.doa_index, sel.dod_index) == arg


@pytest.mark.parametrize("n_c, n_s", [(3, 4), (4, 3)])
@pytest.mark.parametrize("block_rows", [1, estimation._SCORE_BLOCK_ROWS])
def test_joint_select_planted_ties_across_blocks(monkeypatch, n_c, n_s, block_rows):
    # Standard basis atoms and an integer Y make every score an exact integer.
    # The largest, 49, sits in rows 150 and 290 and in every n_s-th column
    # from n_s - 1 on. Single-row blocks also split the surviving rows.
    monkeypatch.setattr(estimation, "_SCORE_BLOCK_ROWS", block_rows)
    m, n = 300, 40
    grid = DirectionGrid(20, 15, 8, 5)
    doa_axis = np.arange(m) % (n_c - 1)
    doa_axis[[150, 290]] = n_c - 1
    K_r = np.eye(n_c, dtype=complex)[:, doa_axis]
    K_t = np.eye(n_s, dtype=complex)[:, np.arange(n) % n_s]
    d = atom_dictionary(K_r, K_t, grid)
    Y = (np.arange(n_c * n_s).reshape(n_c, n_s) % 5 - 2).astype(complex)
    Y[n_c - 1, n_s - 1] = 7j
    assert bruteforce_pick(Y, d) == (150, n_s - 1)
    sel = joint_select(Y, d)
    assert (sel.doa_index, sel.dod_index) == (150, n_s - 1)


@cache
def hybrid_dictionary(n_c, n_s):
    """300 DoAs and 30 DoDs seen through fixed random W (n_c columns) and X (n_s)."""
    rng = np.random.default_rng([n_c, n_s])
    grid = DirectionGrid(20, 15, 6, 5)
    W = rng.normal(size=(6, n_c)) + 1j * rng.normal(size=(6, n_c))
    X = rng.normal(size=(8, n_s)) + 1j * rng.normal(size=(8, n_s))
    return build_dictionaries(grid, ObservationSetup(X, W, 1.0), upa(2, 3), upa(2, 4))


@cache
def basis_dictionary(n_c, n_s, seed):
    """Standard basis atoms: every score is one entry of Y, so equal entries tie exactly."""
    rng = np.random.default_rng(seed)
    grid = DirectionGrid(20, 15, 6, 5)
    return atom_dictionary(np.eye(n_c, dtype=complex)[:, rng.integers(0, n_c, 300)],
                           np.eye(n_s, dtype=complex)[:, rng.integers(0, n_s, 30)], grid)


def candidates(Y, d):
    """The DoA rows and DoD columns joint_select screens, as it forms them."""
    Ys, _, margin = estimation._scaled(Y)
    if d.K_r.shape[0] <= d.K_t.shape[0]:
        rows, cols = estimation._candidates(d.K_r_H, Ys, Ys @ d.K_t, margin)[:2]
    else:
        cols, rows = estimation._candidates(d.K_t.T, Ys.T, (d.K_r_H @ Ys).T, margin)[:2]
    return rows, cols


# Far from unit scale the squares of the residual's scores overflow (2^531,
# about 1e160) or underflow (2^-548 and 2^-664, about 1e-165 and 1e-200) in
# float64 unless the selectors scale it. Powers of two scale every score
# exactly, so a planted exact tie stays one.
SCALES = [1.0, 2.0 ** -498, 2.0 ** 498, 2.0 ** 531, 2.0 ** -548, 2.0 ** -664]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sides=st.sampled_from([(3, 6), (6, 3)]),
       kind=st.sampled_from(["random", "rank1", "ties", "zero"]),
       scale=st.sampled_from(SCALES),
       seed=st.integers(0, 2 ** 16))
def test_pruned_joint_select_matches_bruteforce(sides, kind, scale, seed):
    # every maximizing pair is a candidate, and the pick is brute force's on
    # the unscaled Y, whose squared scores stay in range
    n_c, n_s = sides
    rng = np.random.default_rng(seed)
    d = basis_dictionary(n_c, n_s, seed % 4) if kind == "ties" else hybrid_dictionary(n_c, n_s)
    if kind == "random":
        Y = rng.normal(size=(n_c, n_s)) + 1j * rng.normal(size=(n_c, n_s))
    elif kind == "rank1":
        i, j = rng.integers(0, d.m), rng.integers(0, d.n)
        Y = (rng.normal() + 1j * rng.normal()) * np.outer(d.K_r[:, i], d.K_t[:, j].conj())
    elif kind == "ties":
        Y = rng.integers(-2, 3, size=(n_c, n_s)) + 1j * rng.integers(-2, 3, size=(n_c, n_s))
    else:
        Y = np.zeros((n_c, n_s), dtype=complex)
    expected = bruteforce_pick(Y, d)
    Y = scale * Y
    scores = np.abs(d.K_r_H @ Y @ d.K_t)
    rows, cols = candidates(Y, d)
    for i, j in zip(*np.nonzero(scores == scores.max())):
        assert i in rows and j in cols
    if kind == "zero":
        assert len(rows) == d.m and len(cols) == d.n
    sel = joint_select(Y, d)
    assert (sel.doa_index, sel.dod_index) == expected
    assert sel.score_evaluations == d.m * d.n


def recorded_screens(monkeypatch):
    """A list that collects the (left32, keep, bounds) of every cell screen."""
    screens = []
    screened_cells = estimation._screened_cells

    def recording(left32, right_T32, keep, bounds, norm):
        screens.append((left32, keep, bounds))
        return screened_cells(left32, right_T32, keep, bounds, norm)

    monkeypatch.setattr(estimation, "_screened_cells", recording)
    return screens


def test_joint_select_screens_few_rows_for_an_on_grid_path(monkeypatch):
    screens = recorded_screens(monkeypatch)
    grid = DirectionGrid(20, 15, 6, 5)
    g_r, g_t, p, H, s, Y = on_grid_scenario(grid, 157, 17, n_r=(3, 3), n_t=(3, 3))
    d = build_dictionaries(grid, s, g_r, g_t)
    sel = joint_select(Y, d)
    assert (sel.doa_index, sel.dod_index) == (157, 17)
    ((left32, _, _),) = screens
    assert len(left32) <= d.m // 10


def test_joint_select_screens_a_zero_observation_cell_by_cell(monkeypatch):
    # a zero Y keeps every pair: all 300 DoAs are screened in their 12 cells
    # of 25, members cell by cell, every cell against all 16 DoDs
    screens = recorded_screens(monkeypatch)
    grid = DirectionGrid(20, 15, 4, 4)
    d = build_dictionaries(grid, identity_setup(4, 4, 1.0), upa(2, 2), upa(2, 2))
    joint_select(np.zeros((4, 4), dtype=complex), d)
    ((left32, keep, bounds),) = screens
    assert np.array_equal(left32, d.K_r_H32[d.cells.members])
    assert np.array_equal(bounds, 25 * np.arange(13)) and keep.shape == (12, 16) and keep.all()


@pytest.mark.parametrize("n_c, n_s", [(3, 6), (6, 3)])
def test_joint_select_screens_a_small_prune_as_one_cell(rng, monkeypatch, n_c, n_s):
    # at the default _CELL_MIN_PAIRS every pruned pair of these 300 x 30
    # dictionaries is screened in one cell, with no cell bound, and the pick
    # is the oracle's and the cell bound's
    d = hybrid_dictionary(n_c, n_s)
    Ys = [rng.normal(size=(n_c, n_s)) + 1j * rng.normal(size=(n_c, n_s)) for _ in range(6)]
    Ys.append(np.zeros((n_c, n_s), dtype=complex))
    bounded = [rescored_rows(Y, d)[1] for Y in Ys]
    monkeypatch.setattr(estimation, "_CELL_MIN_PAIRS", 2 ** 16)
    screens = recorded_screens(monkeypatch)
    for Y, sel in zip(Ys, bounded):
        screens.clear()
        rows, cols = candidates(Y, d)
        _, one_cell = rescored_rows(Y, d)
        ((left32, keep, bounds),) = screens
        assert keep.shape == (1, len(cols)) and keep.all()
        assert np.array_equal(bounds, [0, len(rows)])
        assert one_cell == sel and (sel.doa_index, sel.dod_index) == bruteforce_pick(Y, d)


@pytest.mark.parametrize("run_entries", [1, 40, 400, 2 ** 17])
def test_joint_select_screen_runs_do_not_change_the_screen(rng, monkeypatch, run_entries):
    # runs of one cell (1 entry), of cells with few kept DoDs (40), of several
    # cells (400) and of the whole screen give the same survivors and pick
    grid = DirectionGrid(20, 15, 6, 5)
    d = build_dictionaries(grid, identity_setup(8, 6, 1.0), upa(2, 3), upa(2, 4))
    Ys = [rng.normal(size=(6, 8)) + 1j * rng.normal(size=(6, 8)) for _ in range(4)]
    Ys.append(np.zeros((6, 8), dtype=complex))
    expected = [rescored_rows(Y, d) for Y in Ys]
    monkeypatch.setattr(estimation, "_SCREEN_RUN", run_entries)
    for Y, (rows, sel) in zip(Ys, expected):
        run_rows, run_sel = rescored_rows(Y, d)
        assert np.array_equal(run_rows, rows) and run_sel == sel


def fresh(d):
    """A new Dictionary on d's arrays, whose cells are formed anew on first use."""
    return estimation.Dictionary(d.K_r, d.K_t, d.doa_norms, d.dod_norms, d.doa_angles,
                                 d.dod_angles)


def assert_cells_tile(d, side=5):
    """Every DoA lies in one cell, a cell is one block of side x side azimuth and
    elevation ranks, numbered in block order, its centre is a member, and the
    arrays are read-only."""
    cells = d.cells
    ranks = [np.unique(a, return_inverse=True)[1] for a in d.doa_angles]
    blocks = [(int(a) // side, int(e) // side) for a, e in zip(*ranks)]
    assert sorted(set(blocks)) == [blocks[i] for i in cells.centres]
    for i, block in enumerate(blocks):
        assert blocks[cells.centres[cells.cell_of[i]]] == block
    assert np.array_equal(cells.centres32, d.K_r_H32[cells.centres])
    for name in ("cell_of", "centres", "centres32", "radii"):
        assert not getattr(cells, name).flags.writeable


def assert_radii_bound_the_exact_distances(d):
    """radii[g]^2 >= min over theta of ||a - e^{j theta} c||^2 = ||a||^2 + ||c||^2 - 2 |c^H a|
    for every member a of every cell g with centre c, in exact arithmetic."""
    rows, q = exact_ints(d.K_r)
    cells = d.cells
    for g in range(cells.count):
        c = [row[cells.centres[g]] for row in rows]
        r2 = Fraction(float(cells.radii[g])) ** 2
        for i in np.flatnonzero(cells.cell_of == g):
            a = [row[i] for row in rows]
            norms = sum(x * x + y * y for x, y in a + c)
            zr = sum(cr * ar + ci * ai for (cr, ci), (ar, ai) in zip(c, a))
            zi = sum(cr * ai - ci * ar for (cr, ci), (ar, ai) in zip(c, a))
            gap = Fraction(norms, q * q) - r2     # must be at most 2 |c^H a|
            assert gap <= 0 or 4 * Fraction(zr * zr + zi * zi, q ** 4) >= gap * gap


def test_doa_cells_of_the_paper_grid():
    # 50 x 50 DoAs on the paper's 16 receive antennas: 100 cells of 25 whose
    # centre is the middle atom, every member within 0.6 of it
    grid = DirectionGrid.product(2500, 16)
    d = build_dictionaries(grid, identity_setup(16, 16, 1.0), upa(4, 4), upa(4, 4))
    assert_cells_tile(d)
    cells = d.cells
    assert cells.count == 100 and np.all(np.bincount(cells.cell_of) == 25)
    assert np.all(cells.centres // 50 % 5 == 2) and np.all(cells.centres % 50 % 5 == 2)
    assert 0.2 < cells.radii.min() and cells.radii.max() < 0.6
    assert d.cells is cells


def test_cells_are_formed_once_and_only_for_the_joint_scan():
    # cells is a cached property: the sequential pursuit never forms it, and
    # the joint pursuit forms it before its timed loop
    grid = small_grid(6)
    g_r, g_t, p, H, s, Y = on_grid_scenario(grid, 8, 17)
    d = build_dictionaries(grid, s, g_r, g_t)
    matching_pursuit(Y, d, 2, "sequential")
    assert "cells" not in vars(d)
    matching_pursuit(Y, d, 2, "joint")
    cells = vars(d)["cells"]
    matching_pursuit(Y, d, 2, "joint")
    assert d.cells is cells and cells.count == 4


def annihilating_combiners(g_r, grid, doas):
    """Orthonormal combiners W orthogonal to the steering vectors of the given grid DoAs."""
    E = steering_matrix(g_r, grid.doa_units[:, doas])
    return orth(np.eye(g_r.n_antennas) - E @ np.linalg.pinv(E))


@cache
def broken_tiling_dictionary(case):
    """Dictionaries on which 5 x 5 rank blocks do not tile a full grid: combiners
    that drop four grid DoAs, sides that are not multiples of 5, and more
    combiners than pilots, so the contraction runs over the pilot side."""
    rng = np.random.default_rng(17)
    if case == "dropped":
        grid = DirectionGrid(10, 10, 6, 5)
        W = annihilating_combiners(upa(3, 3), grid, [0, 23, 57, 99])
        with pytest.warns(UserWarning, match="dropping 4 DoA"):
            return build_dictionaries(grid, ObservationSetup(np.eye(6), W, 1.0), upa(3, 3),
                                      upa(2, 3))
    if case == "uneven":
        return build_dictionaries(DirectionGrid(7, 13, 6, 4), identity_setup(6, 6, 1.0),
                                  upa(2, 3), upa(2, 3))
    X = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    return build_dictionaries(DirectionGrid(12, 9, 6, 5), ObservationSetup(X, np.eye(6), 1.0),
                              upa(2, 3), upa(2, 4))


@pytest.mark.parametrize("case", ["dropped", "uneven", "more_combiners"])
def test_joint_select_on_cells_where_the_grid_does_not_tile(case):
    d = broken_tiling_dictionary(case)
    n_c, n_s = d.K_r.shape[0], d.K_t.shape[0]
    assert_cells_tile(d)
    assert_radii_bound_the_exact_distances(d)
    if case == "dropped":
        assert d.m == 96 and np.bincount(d.cells.cell_of).min() < 25
    elif case == "uneven":
        assert sorted(set(np.bincount(d.cells.cell_of).tolist())) == [6, 10, 15, 25]
    else:
        assert n_c > n_s
    rng = np.random.default_rng(29)
    for k in range(24):
        if k % 3 == 2:   # aligned with a random pair: its score equals both marginals
            i, j = rng.integers(d.m), rng.integers(d.n)
            Y = (rng.normal() + 1j * rng.normal()) * np.outer(d.K_r[:, i], d.K_t[:, j].conj())
        else:
            Y = rng.normal(size=(n_c, n_s)) + 1j * rng.normal(size=(n_c, n_s))
        arg = bruteforce_pick(Y, d)
        rows, sel = rescored_rows(Y, d)
        assert arg[0] in rows and (sel.doa_index, sel.dod_index) == arg


@pytest.mark.parametrize("dictionary", ["identity", (3, 6), (6, 3)])
def test_cell_radii_bound_the_exact_distances_of_near_copies(rng, dictionary):
    # Every member of a cell is a near copy of one random atom, 2^-36 from
    # it: the members lie about 2^-36 from their centre, and the float64
    # distance rounds by about 1e-16 either way, so only the radius's
    # rounding allowance keeps it above the exact distance. The
    # dictionaries' own radii hold too.
    base = identity_dictionary() if dictionary == "identity" else hybrid_dictionary(*dictionary)
    assert_radii_bound_the_exact_distances(base)
    cells = base.cells
    K_r, n_c = np.empty_like(base.K_r), base.K_r.shape[0]
    for g in range(cells.count):
        atom = rng.normal(size=(n_c, 1)) + 1j * rng.normal(size=(n_c, 1))
        for i in np.flatnonzero(cells.cell_of == g):
            K_r[:, i] = near_copy(atom / np.linalg.norm(atom), 0, rng)
    d = atom_dictionary(K_r, base.K_t, DirectionGrid(20, 15, 6, 5))
    assert np.array_equal(d.cells.cell_of, cells.cell_of) and d.cells.radii.max() < 2.0 ** -30
    assert_radii_bound_the_exact_distances(d)


@pytest.mark.parametrize("dictionary", ["identity", (3, 6), (6, 3)])
def test_cell_bound_keeps_the_maximizer_of_one_atom_cells(monkeypatch, dictionary):
    # With 1 x 1 cells every radius is its rounding allowance alone, so the
    # bound of the pair that sets L is its complex64 centre score, which
    # rounds below L about half the time: only delta_c keeps it
    monkeypatch.setattr(estimation, "_CELL_SIDE", 1)
    base = identity_dictionary() if dictionary == "identity" else hybrid_dictionary(*dictionary)
    d = fresh(base)
    assert d.cells.count == d.m and d.cells.radii.max() < 1e-13
    n_c, n_s = d.K_r.shape[0], d.K_t.shape[0]
    rng = np.random.default_rng(7)
    for _ in range(30):
        Y = rng.normal(size=(n_c, n_s)) + 1j * rng.normal(size=(n_c, n_s))
        arg = bruteforce_pick(Y, d)
        rows, sel = rescored_rows(Y, d)
        assert arg[0] in rows and (sel.doa_index, sel.dod_index) == arg


@pytest.mark.parametrize("dictionary", ["identity", (3, 6), (6, 3)])
def test_joint_prune_keeps_the_pair_of_an_aligned_residual(dictionary):
    # Y = g k_r_i k_t_j^H: pair (i, j) scores |g|, exactly both of its
    # marginals, and L, of the prune's two pairs or of the cell bound's
    # third, is that score formed by another route, so rounding puts a
    # marginal below L about half the time: only the margin keeps it
    d = identity_dictionary() if dictionary == "identity" else hybrid_dictionary(*dictionary)
    rng = np.random.default_rng(13)
    for _ in range(40):
        i, j = rng.integers(d.m), rng.integers(d.n)
        Y = (rng.normal() + 1j * rng.normal()) * np.outer(d.K_r[:, i], d.K_t[:, j].conj())
        arg = bruteforce_pick(Y, d)
        rows, cols = candidates(Y, d)
        assert arg[0] in rows and arg[1] in cols
        sel = joint_select(Y, d)
        assert (sel.doa_index, sel.dod_index) == arg


def plant_joint_near_ties(Y, d, rng):
    """d with a near copy of the exact best DoA at another random position, and
    likewise of the best DoD; the copy's DoA position comes second."""
    K_r, K_t = d.K_r.copy(), d.K_t.copy()
    i, j = bruteforce_pick(Y, d)
    twin = int((i + 1 + rng.integers(d.m - 1)) % d.m)
    K_r[:, twin] = near_copy(K_r, i, rng)
    K_t[:, (j + 1 + rng.integers(d.n - 1)) % d.n] = near_copy(K_t, j, rng)
    return atom_dictionary(K_r, K_t, DirectionGrid(20, 15, 6, 5)), twin


@pytest.mark.parametrize("dictionary", ["identity", (3, 6), (6, 3)])
def test_joint_screen_keeps_both_rows_of_a_planted_near_tie(dictionary):
    # a near copy of the best DoA scores within float32's resolution of it:
    # only the screen's delta keeps both rows, and the rescore ranks them
    base = identity_dictionary() if dictionary == "identity" else hybrid_dictionary(*dictionary)
    n_c, n_s = base.K_r.shape[0], base.K_t.shape[0]
    rng = np.random.default_rng(3)
    for _ in range(12):
        Y = rng.normal(size=(n_c, n_s)) + 1j * rng.normal(size=(n_c, n_s))
        d, twin = plant_joint_near_ties(Y, base, rng)
        i, j = bruteforce_pick(Y, d)
        rows, sel = rescored_rows(Y, d)
        assert {i, twin} <= set(rows.tolist()) and (sel.doa_index, sel.dod_index) == (i, j)


def test_sequential_select_matches_joint_on_grid():
    # exhaustive oracle scenario on a 20x20-point grid per side
    grid = DirectionGrid(5, 4, 4, 5)
    g_r, g_t, p, H, s, Y = on_grid_scenario(grid, 7, 11)
    d = build_dictionaries(grid, s, g_r, g_t)
    js, ss = joint_select(Y, d), sequential_select(Y, d)
    assert (js.doa_index, js.dod_index) == (7, 11)
    assert (ss.doa_index, ss.dod_index) == (7, 11)
    assert ss.score_evaluations == 20 + 20
    assert js.score_evaluations == 20 * 20


def test_sequential_select_stage_oracles(rng):
    grid = small_grid(4)
    g_r, g_t = upa(2, 2), upa(2, 2)
    s = identity_setup(4, 4, 1.0)
    d = build_dictionaries(grid, s, g_r, g_t)
    Y = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    sel = sequential_select(Y, d)
    assert (sel.doa_index, sel.dod_index) == sequential_oracle(Y, d)[:2]


def sequential_oracle(Y, d):
    """The exact stage maxima as (DoA, DoD, energies, row scores), ties to the
    smallest index (see ExactOracle.sequential)."""
    return ExactOracle(Y, d).sequential()


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("observed", ["identity", "hybrid"])
def test_sequential_select_matches_bruteforce_oracle(rng, observed, scale):
    # the oracle reads the unscaled Y; hybrid is 3 combiners, 6 pilots, 300
    # DoAs and 30 DoDs
    if observed == "identity":
        grid = DirectionGrid(6, 5, 5, 4)
        d = build_dictionaries(grid, identity_setup(6, 6, 1.0), upa(2, 3), upa(3, 2))
    else:
        d = hybrid_dictionary(3, 6)
    n_c, n_s = d.K_r.shape[0], d.K_t.shape[0]
    for _ in range(20):
        Y = rng.normal(size=(n_c, n_s)) + 1j * rng.normal(size=(n_c, n_s))
        i_hat, j_hat, energies, row = sequential_oracle(Y, d)
        # a near-tie could be decided by rounding; random residuals have none
        assert sorted(energies)[-1] - sorted(energies)[-2] > 1e-9 * max(energies)
        assert sorted(row)[-1] - sorted(row)[-2] > 1e-9 * max(row)
        sel = sequential_select(scale * Y, d)
        assert (sel.doa_index, sel.dod_index) == (i_hat, j_hat)


@pytest.mark.parametrize("scale", SCALES)
def test_sequential_select_ranks_near_tied_energies_at_any_scale(scale):
    # DoA energies 1 and 1 + 2^-46 lie within the screen's margin, so both
    # rows are rescored; unscaled, their energies underflow to zero at 2^-664
    d = atom_dictionary(np.eye(2, dtype=complex), np.eye(2, dtype=complex), small_grid(2))
    Y = np.array([[1, 0], [2.0 ** -23, 1]], dtype=complex)
    i_hat, j_hat, energies, row = sequential_oracle(Y, d)
    assert (i_hat, j_hat) == (1, 1) and energies[1] > energies[0]
    sel = sequential_select(scale * Y, d)
    assert (sel.doa_index, sel.dod_index) == (1, 1)


def test_sequential_select_exact_ties_go_to_smallest_index():
    # integer entries make every score exact, so the planted ties are exact
    K_r = np.array([[0, 1, 0, 1, 0], [1, 0, 1, 0, 1j]], dtype=complex)
    K_t = np.array([[0, 1, -1, 1j], [1, 0, 0, 0]], dtype=complex)
    d = atom_dictionary(K_r, K_t, small_grid(3))
    Y = np.array([[1, 2j], [2, 1j]])   # every DoA atom receives energy 5
    i_hat, j_hat, energies, row = sequential_oracle(Y, d)
    assert len(set(energies)) == 1 and (i_hat, j_hat) == (0, 1)
    assert row[1] == row[2] == row[3] == 4.0
    sel = sequential_select(Y, d)
    assert (sel.doa_index, sel.dod_index) == (0, 1)


def test_sequential_select_zero_observation_tie_break():
    grid = small_grid(3)
    g_r, g_t = upa(2, 2), upa(2, 2)
    d = build_dictionaries(grid, identity_setup(4, 4, 1.0), g_r, g_t)
    sel = sequential_select(np.zeros((4, 4), dtype=complex), d)
    assert (sel.doa_index, sel.dod_index) == (0, 0)


@pytest.mark.parametrize("n_c, n_s", [(3, 6), (6, 3)])
@pytest.mark.parametrize("rank", [0, 1, 2, 3])
def test_marginal_norms_match_the_direct_energies(rng, n_c, n_s, rank):
    # rank 0 is Y = 0; ranks 1 and 2 are rank-deficient on either side
    d = hybrid_dictionary(n_c, n_s)
    for _ in range(5):
        A = rng.normal(size=(n_c, rank)) + 1j * rng.normal(size=(n_c, rank))
        B = rng.normal(size=(rank, n_s)) + 1j * rng.normal(size=(rank, n_s))
        Y = A @ B
        direct = (np.abs(d.K_r_H @ Y) ** 2).sum(axis=1)
        qr_route = estimation._marginal_norms(d.K_r_H, Y) ** 2
        if rank == 0:
            assert not qr_route.any()
        assert np.abs(qr_route - direct).max() <= 1e-12 * direct.max()


@pytest.mark.parametrize("n_c, n_s", [(3, 6), (6, 3)])
def test_sequential_select_matches_the_whole_product(rng, n_c, n_s):
    d = hybrid_dictionary(n_c, n_s)
    for _ in range(20):
        Y = rng.normal(size=(n_c, n_s)) + 1j * rng.normal(size=(n_c, n_s))
        sel = sequential_select(Y, d)
        assert (sel.doa_index, sel.dod_index) == sequential_oracle(Y, d)[:2]
    sel = sequential_select(np.zeros((n_c, n_s), dtype=complex), d)
    assert (sel.doa_index, sel.dod_index) == (0, 0)


@cache
def identity_dictionary():
    """300 DoAs and 30 DoDs under identity observation: 4 receive and 6 transmit antennas."""
    grid = DirectionGrid(20, 15, 6, 5)
    return build_dictionaries(grid, identity_setup(6, 4, 1.0), upa(2, 2), upa(2, 3))


def near_copy(K, col, rng):
    """Column col of K moved by 2^-36 in a random direction, at unit norm: its
    scores differ from col's far below float32's resolution of about 2^-24."""
    w = rng.normal(size=K.shape[0]) + 1j * rng.normal(size=K.shape[0])
    a = K[:, col] + 2.0 ** -36 * w / np.linalg.norm(w)
    return a / np.linalg.norm(a)


def plant_near_ties(Y, d, rng):
    """d with another DoA made a near copy of brute force's stage-1 pick and
    then another DoD a near copy of its stage-2 pick, at random positions."""
    grid = DirectionGrid(20, 15, 6, 5)
    K_r, K_t = d.K_r.copy(), d.K_t.copy()
    i_hat = sequential_oracle(Y, d)[0]
    K_r[:, (i_hat + 1 + rng.integers(d.m - 1)) % d.m] = near_copy(K_r, i_hat, rng)
    j_hat = sequential_oracle(Y, atom_dictionary(K_r.copy(), K_t.copy(), grid))[1]
    K_t[:, (j_hat + 1 + rng.integers(d.n - 1)) % d.n] = near_copy(K_t, j_hat, rng)
    return atom_dictionary(K_r, K_t, grid)


def sequential_case(dictionary, kind, seed):
    """(Y, d) for the screened-sequential tests: a random, rank-one or zero Y on
    an identity or observed dictionary, random integers on basis atoms (exact
    ties), or a random Y on a dictionary with near ties planted in both stages."""
    rng = np.random.default_rng(seed)
    d = identity_dictionary() if dictionary == "identity" else hybrid_dictionary(*dictionary)
    n_c, n_s = d.K_r.shape[0], d.K_t.shape[0]
    if kind == "ties":
        d = basis_dictionary(n_c, n_s, seed % 4)
        return rng.integers(-2, 3, size=(n_c, n_s)) + 1j * rng.integers(-2, 3, size=(n_c, n_s)), d
    if kind == "zero":
        return np.zeros((n_c, n_s), dtype=complex), d
    if kind == "rank1":
        i, j = rng.integers(0, d.m), rng.integers(0, d.n)
        return (rng.normal() + 1j * rng.normal()) * np.outer(d.K_r[:, i], d.K_t[:, j].conj()), d
    Y = rng.normal(size=(n_c, n_s)) + 1j * rng.normal(size=(n_c, n_s))
    return Y, (plant_near_ties(Y, d, rng) if kind == "near_tie" else d)


# 2^+-531, about 1e+-160: powers of two scale every score exactly, so exact
# ties stay exact, and the unscaled squares overflow or underflow float64
EXACT_SCALES = [1.0, 2.0 ** 531, 2.0 ** -531]


def runner_up_gap(scores):
    """How far the largest score stands above the next, relative to it."""
    top, second = sorted(scores)[-2:][::-1]
    return (top - second) / top


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dictionary=st.sampled_from(["identity", (3, 6), (6, 3)]),
       kind=st.sampled_from(["random", "rank1", "near_tie", "ties", "zero"]),
       scale=st.sampled_from(EXACT_SCALES),
       seed=st.integers(0, 2 ** 16))
def test_screened_sequential_select_matches_bruteforce(dictionary, kind, scale, seed):
    # the oracle reads the unscaled Y in complex128; outside exact ties the
    # runner-up must trail by more than complex128 rounding can move it, and
    # a planted near tie trails by far less than float32 can resolve
    Y, d = sequential_case(dictionary, kind, seed)
    i_hat, j_hat, energies, row = sequential_oracle(Y, d)
    if kind not in ("ties", "zero"):
        assume(runner_up_gap(energies) > 2.0 ** -44 and runner_up_gap(row) > 2.0 ** -44)
    if kind == "near_tie":
        assert runner_up_gap(energies) < 2.0 ** -30 and runner_up_gap(row) < 2.0 ** -30
    sel = sequential_select(scale * Y, d)
    assert (sel.doa_index, sel.dod_index) == (i_hat, j_hat)
    assert sel.score_evaluations == d.m + d.n


@pytest.mark.parametrize("dictionary", ["identity", (3, 6), (6, 3)])
@pytest.mark.parametrize("kind", ["random", "near_tie", "ties"])
@pytest.mark.parametrize("scale", EXACT_SCALES)
def test_sequential_screens_keep_every_maximizer(monkeypatch, dictionary, kind, scale):
    # every DoA of largest energy survives the stage-1 screen, and every DoD
    # of largest score for the picked DoA the stage-2 screen; a planted near
    # tie survives beside its original, and the screens do prune
    screens = []
    survivors = estimation._survivors
    monkeypatch.setattr(estimation, "_survivors",
                        lambda *args: screens.append(survivors(*args)) or screens[-1])
    for seed in range(5):
        Y, d = sequential_case(dictionary, kind, seed)
        i_hat, j_hat, energies, row = sequential_oracle(Y, d)
        doas, dods = np.flatnonzero(energies == energies.max()), np.flatnonzero(row == row.max())
        if kind == "ties":   # a basis atom repeats, so its ties are exact
            assert len(doas) > 1 and len(dods) > 1
        screens.clear()
        sel = sequential_select(scale * Y, d)
        assert (sel.doa_index, sel.dod_index) == (i_hat, j_hat)
        assert len(screens) == 2
        assert set(doas) <= set(screens[0]) and set(dods) <= set(screens[1])
        if kind == "near_tie":
            assert len(screens[0]) >= 2 and len(screens[1]) >= 2
        if kind != "ties":
            assert len(screens[0]) < d.m // 10 and len(screens[1]) < d.n // 2


def joint_case(dictionary, kind, seed):
    """(Y, d) for the cell-bound property test, the kinds of sequential_case with
    near ties planted for the joint scan."""
    if kind != "near_tie":
        return sequential_case(dictionary, kind, seed)
    rng = np.random.default_rng(seed)
    d = identity_dictionary() if dictionary == "identity" else hybrid_dictionary(*dictionary)
    Y = rng.normal(size=d.K_r.shape[:1] + d.K_t.shape[:1])
    Y = Y + 1j * rng.normal(size=Y.shape)
    return Y, plant_joint_near_ties(Y, d, rng)[0]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(dictionary=st.sampled_from(["identity", (3, 6), (6, 3)]),
       kind=st.sampled_from(["random", "rank1", "near_tie", "ties", "zero"]),
       scale=st.sampled_from(EXACT_SCALES),
       seed=st.integers(0, 2 ** 16))
def test_cell_bound_joint_select_matches_the_exact_oracle(dictionary, kind, scale, seed):
    # the oracle scores the unscaled Y exactly; outside exact ties the
    # runner-up must trail by more than complex128 rounding can move it
    Y, d = joint_case(dictionary, kind, seed)
    if kind not in ("ties", "zero"):
        C = d.K_r_H @ Y @ d.K_t
        assume(runner_up_gap((C.real ** 2 + C.imag ** 2).ravel()) > 2.0 ** -44)
    arg = bruteforce_pick(Y, d)
    rows, sel = rescored_rows(scale * Y, d)
    assert arg[0] in rows and (sel.doa_index, sel.dod_index) == arg
    assert sel.score_evaluations == d.m * d.n


def test_matching_pursuit_exact_recovery():
    grid = small_grid(6)
    g_r, g_t, p, H, s, Y = on_grid_scenario(grid, 8, 17)
    d = build_dictionaries(grid, s, g_r, g_t)
    for strategy in ("joint", "sequential"):
        rep = matching_pursuit(Y, d, 1, strategy)
        assert rep.reading(1, H, g_r, g_t).rmse <= 1e-10
        assert len(rep.estimated) == 1
        est = rep.estimated[0]
        assert est.doa == p.doa and est.dod == p.dod
        assert abs(est.gain - p.gain) <= 1e-10


def test_matching_pursuit_gain_is_linear_in_the_observation(rng):
    grid = small_grid(4)
    g_r, g_t = upa(2, 2), upa(2, 2)
    d = build_dictionaries(grid, identity_setup(4, 4, 1.0), g_r, g_t)
    Y = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    for strategy in ("joint", "sequential"):
        (p1,) = matching_pursuit(Y, d, 1, strategy).estimated
        (p2,) = matching_pursuit(2 * Y, d, 1, strategy).estimated
        assert (p2.doa, p2.dod) == (p1.doa, p1.dod)
        assert abs(p2.gain - 2 * p1.gain) < 1e-13


@pytest.mark.parametrize("strategy", ["joint", "sequential"])
def test_matching_pursuit_rejects_a_zero_atom_it_picks(strategy):
    # a zero column has no least-squares gain; Y is seen by no atom, so
    # every score would tie at 0 and the pick would be (0, 0), whose DoA
    # atom is zero. The Dictionary refuses that column when it is built,
    # so neither strategy can ever pick it.
    grid = small_grid(3)
    K_r = np.zeros((3, grid.m), dtype=complex)
    K_r[[1, 2], [1, 2]] = 1.0
    Y = np.zeros((3, 4))
    Y[0, 0] = 1.0
    with pytest.raises(ValueError, match="K_r column 0 does not have unit norm"):
        matching_pursuit(Y, atom_dictionary(K_r, np.eye(4, grid.n, dtype=complex), grid),
                         1, strategy)


def test_pursuit_gains_are_least_squares_fits_of_the_observed_paths(rng):
    # Random W and X give atoms of unequal norms before normalization. Each
    # reported gain must be the least-squares gain of W^H e_r(doa) and
    # X^H e_t(dod), rebuilt from the reported path, on the residual left by
    # the paths before it.
    grid = DirectionGrid(6, 5, 5, 4)
    doas, dods = hemisphere_directions(6, 5), hemisphere_directions(5, 4)
    g_r, g_t = upa(2, 3), upa(2, 4)
    W = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    X = rng.normal(size=(8, 5)) + 1j * rng.normal(size=(8, 5))
    s = ObservationSetup(X, W, 0.01)
    ps = PathSet([PathParams(1.0, 0.3, doas[4], dods[7]),
                  PathParams(0.5, 2.0, doas[21], dods[12])])
    Y = observe(synthesize(ps, g_r, g_t), s, 4)
    d = build_dictionaries(grid, s, g_r, g_t)
    assert np.ptp(d.doa_norms) > 0.1 and np.ptp(d.dod_norms) > 0.1
    for strategy in ("joint", "sequential"):
        rep = matching_pursuit(Y, d, 5, strategy)
        assert len(rep.estimated) == 5
        R = np.array(Y, dtype=complex)
        for p in rep.estimated:
            a_r = W.conj().T @ steering_vector(g_r, p.doa)
            a_t = X.conj().T @ steering_vector(g_t, p.dod)
            c = np.vdot(a_r, R @ a_t) / (np.vdot(a_r, a_r).real * np.vdot(a_t, a_t).real)
            assert abs(p.gain - c) <= 1e-12 * abs(c)
            R -= c * np.outer(a_r, a_t.conj())


def test_matching_pursuit_counters_exact(rng):
    grid = small_grid(5)
    dirs = hemisphere_directions(5, 5)
    g_r, g_t = upa(2, 2), upa(2, 2)
    sigma2 = 0.05
    ps = PathSet([PathParams(1.0, 0.2, dirs[4], dirs[9])])
    H = synthesize(ps, g_r, g_t)
    s = identity_setup(4, 4, sigma2)
    Y = observe(H, s, 3)
    d = build_dictionaries(grid, s, g_r, g_t)
    rep_j = matching_pursuit(Y, d, 4, "joint")
    rep_s = matching_pursuit(Y, d, 4, "sequential")
    assert rep_j.score_evaluations == 25 * 25 * 4
    assert rep_s.score_evaluations == (25 + 25) * 4
    assert rep_j.P == rep_s.P == 4


def test_matching_pursuit_residual_non_increasing(rng):
    grid = small_grid(5)
    dirs = hemisphere_directions(5, 5)
    g_r, g_t = upa(2, 2), upa(2, 3)
    ps = PathSet([PathParams(1.0, 0.2, dirs[3], dirs[8]),
                  PathParams(0.6, 1.2, dirs[17], dirs[2])])
    H = synthesize(ps, g_r, g_t)
    s = identity_setup(6, 4, 0.02)
    Y = observe(H, s, 11)
    rep = matching_pursuit(Y, build_dictionaries(grid, s, g_r, g_t), 6, "sequential")
    norms = rep.residual_norms
    assert len(norms) == 7
    times = rep.cumulative_times
    assert len(times) == 6 and times[-1] == rep.reading(6, H, g_r, g_t).wall_time_s
    assert all(a <= b for a, b in zip(times, times[1:]))
    for a, b in zip(norms, norms[1:]):
        assert b <= a + 1e-12


def test_matching_pursuit_zero_observation():
    grid = small_grid(3)
    dirs = hemisphere_directions(3, 3)
    g_r, g_t = upa(2, 2), upa(2, 2)
    s = identity_setup(4, 4, 0.0)
    rep = matching_pursuit(np.zeros((4, 4)), build_dictionaries(grid, s, g_r, g_t), 2, "joint")
    assert rep.estimated == ()
    assert rep.score_evaluations == 9 * 9 * 2
    # no path kept: the estimate is the zero channel
    H = synthesize(PathSet([PathParams(1.0, 0.3, dirs[2], dirs[5])]),
                   g_r, g_t)
    assert rep.reading(2, H, g_r, g_t).rmse == 1.0


def test_matching_pursuit_rejects_bad_arguments():
    grid = small_grid(3)
    g_r, g_t = upa(2, 2), upa(2, 2)
    d = build_dictionaries(grid, identity_setup(4, 4, 1.0), g_r, g_t)
    with pytest.raises(ValueError):
        matching_pursuit(np.zeros((4, 4)), d, 0, "joint")
    with pytest.raises(ValueError):
        matching_pursuit(np.zeros((4, 4)), d, 1, "greedy")
    # a budget goes through as_int: 2.5 ended in a TypeError from range, and
    # True ran one iteration
    for bad in (2.5, True, np.nan):
        with pytest.raises(ValueError, match="must be an integer"):
            matching_pursuit(np.ones((4, 4)), d, bad, "joint")
    rep = matching_pursuit(np.ones((4, 4)), d, 2.0, "joint")
    assert rep.P == 2
    H = synthesize(PathSet([PathParams(1.0, 0.3, d.doa_of(1), d.dod_of(2))]), g_r, g_t)
    assert rep.reading(2.0, H, g_r, g_t) == rep.reading(2, H, g_r, g_t)
    for bad in (1.5, True):   # 1.5 ended in a TypeError from slicing
        with pytest.raises(ValueError, match="must be an integer"):
            rep.reading(bad, H, g_r, g_t)
    # each selector ended with the pick (0, 0) on these, without a word
    for bad in (np.nan, np.inf, -np.inf):
        Y = np.ones((4, 4), dtype=complex)
        Y[1, 2] = bad
        for strategy in ("joint", "sequential"):
            with pytest.raises(ValueError, match="NaN or inf"):
                matching_pursuit(Y, d, 1, strategy)
            with pytest.raises(ValueError, match="^observation Y holds NaN or inf entries$"):
                estimation.selector(strategy)(Y, d)
    # each ended in a numpy matmul or unpacking error
    for shape in ((4, 5), (5, 4), (3, 4), (4,)):
        for strategy in ("joint", "sequential"):
            message = f"Y has shape {shape}, but the dictionary's atoms need (4, 4)"
            with pytest.raises(ValueError, match=re.escape(message)):
                matching_pursuit(np.ones(shape), d, 1, strategy)


def test_grid_permutation_changes_only_indices(rng):
    # the same atoms in another column order pick the same directions
    g_r, g_t = upa(2, 2), upa(2, 3)
    grid = small_grid(4)
    dirs = hemisphere_directions(4, 4)
    H = synthesize(PathSet([PathParams(1.0, 0.4, dirs[5], dirs[10])]),
                   g_r, g_t)
    s = identity_setup(6, 4, 0.01)
    Y = observe(H, s, 9)
    d1 = build_dictionaries(grid, s, g_r, g_t)
    p, q = rng.permutation(d1.m), rng.permutation(d1.n)
    d2 = estimation.Dictionary(d1.K_r[:, p], d1.K_t[:, q], d1.doa_norms[p], d1.dod_norms[q],
                               d1.doa_angles[:, p], d1.dod_angles[:, q])
    for select in (joint_select, sequential_select):
        s1, s2 = select(Y, d1), select(Y, d2)
        assert d1.doa_of(s1.doa_index) == d2.doa_of(s2.doa_index)
        assert d1.dod_of(s1.dod_index) == d2.dod_of(s2.dod_index)


@pytest.mark.parametrize("strategy", ["joint", "sequential"])
def test_reading_below_the_budget_equals_a_fresh_pursuit(strategy):
    # greedy pursuit is deterministic, so a run read at P is the run to P
    grid = small_grid(5)
    dirs = hemisphere_directions(5, 5)
    g_r, g_t = upa(2, 2), upa(2, 3)
    ps = PathSet([PathParams(1.0, 0.2, dirs[3], dirs[8]),
                  PathParams(0.6, 1.2, dirs[17], dirs[2])])
    H = synthesize(ps, g_r, g_t)
    s = identity_setup(6, 4, 0.05)
    Y = observe(H, s, 12)
    d = build_dictionaries(grid, s, g_r, g_t)
    rep = matching_pursuit(Y, d, 5, strategy)
    for P in range(1, 5):
        fresh = matching_pursuit(Y, d, P, strategy)
        got = rep.reading(P, H, g_r, g_t)
        assert got.P == P
        assert got.rmse == fresh.reading(P, H, g_r, g_t).rmse
        assert got.score_evals == fresh.score_evaluations
        assert got.wall_time_s == rep.cumulative_times[P - 1]


@pytest.mark.parametrize("P", [0, -1, 3])
def test_reading_rejects_a_budget_outside_the_run(P):
    grid = small_grid(3)
    g_r, g_t, _, H, s, Y = on_grid_scenario(grid, 1, 2)
    rep = matching_pursuit(Y, build_dictionaries(grid, s, g_r, g_t), 2, "joint")
    with pytest.raises(ValueError, match=r"budget P must lie in \[1, 2\]"):
        rep.reading(P, H, g_r, g_t)
