import math
import re
import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import orth

from mimolab import estimation
from mimolab.channel import PathParams, PathSet, steering_matrix, steering_vector, synthesize
from mimolab.cli import _build_grid
from mimolab.estimation import (DirectionGrid, build_dictionaries, hemisphere_directions,
                                joint_select, matching_pursuit, sequential_select)
from mimolab.geometry import Direction, direction_angles, unit_vectors, upa, wrap_azimuth
from mimolab.observation import ObservationSetup, identity_setup, observe
from mimolab.workers import Helpers


def small_grid(k=6):
    return DirectionGrid(k, k, k, k)


def atom_dictionary(K_r, K_t, grid):
    """A Dictionary holding the given atoms at unit norm, on the grid's first directions."""
    m, n = K_r.shape[1], K_t.shape[1]
    return estimation.Dictionary(K_r, K_t, np.ones(m), np.ones(n), grid.doa_angles[:, :m],
                                 grid.dod_angles[:, :n])


def on_grid_scenario(grid, doa_idx, dod_idx, rho=1.2, phi=0.7, n_r=(2, 2), n_t=(2, 3)):
    g_r, g_t = upa(*n_r), upa(*n_t)
    p = PathParams(rho, phi, grid.test_doas[doa_idx], grid.test_dods[dod_idx])
    H = synthesize(PathSet([p]), g_r, g_t)
    s = identity_setup(g_t.n_antennas, g_r.n_antennas, 0.0)
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
    """The grid's directions, unit vectors and dictionaries are those built
    from hemisphere_directions' Directions, bit for bit; its angles equal
    theirs once wrapped."""
    E = {}
    for side, layout, g in (("doa", doa_layout, g_r), ("dod", dod_layout, g_t)):
        dirs = hemisphere_directions(*layout)
        assert getattr(grid, f"test_{side}s") == dirs
        (az, el), (az_d, el_d) = getattr(grid, side + "_angles"), direction_angles(dirs)
        assert np.array_equal(wrap_azimuth(az), az_d) and np.array_equal(el, el_d)
        assert np.array_equal(getattr(grid, side + "_units"), unit_vectors(dirs))
        E[side] = steering_matrix(g, dirs)
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
    assert grid.test_doas == tuple(Direction(a, e) for a, e in grid.doa_angles.T)
    assert np.array_equal(grid.doa_units, unit_vectors(grid.test_doas))
    assert not grid.doa_angles.flags.writeable and not grid.doa_units.flags.writeable
    assert isinstance(grid.test_doas, tuple) and grid.test_doas is grid.test_doas


def test_dictionary_conjugate_transpose_built_once(rng):
    grid = small_grid(4)
    g_r, g_t = upa(2, 2), upa(2, 3)
    e0 = steering_vector(g_r, grid.test_doas[0])
    dropped = ObservationSetup(np.eye(6), orth(np.eye(4) - np.outer(e0, e0.conj())), 1.0)
    with pytest.warns(UserWarning):
        d_dropped = build_dictionaries(grid, dropped, g_r, g_t)
    for d in (build_dictionaries(grid, identity_setup(6, 4, 1.0), g_r, g_t), d_dropped):
        assert np.array_equal(d.K_r_H, d.K_r.conj().T)
        assert d.K_r_H.flags.c_contiguous


def test_dictionary_identity_combiner_equals_steering(rng):
    grid = small_grid(4)
    g_r, g_t = upa(2, 2), upa(2, 2)
    s = identity_setup(4, 4, 1.0)
    d = build_dictionaries(grid, s, g_r, g_t)
    assert d.m == 16 and d.n == 16
    for col in (0, 7, 15):
        assert np.allclose(d.K_r[:, col], steering_vector(g_r, grid.test_doas[col]))
    norms_r = np.linalg.norm(d.K_r, axis=0)
    norms_t = np.linalg.norm(d.K_t, axis=0)
    assert np.all(np.abs(norms_r - 1.0) < 1e-12)
    assert np.all(np.abs(norms_t - 1.0) < 1e-12)


def test_dictionary_drops_annihilated_directions(rng):
    grid = small_grid(3)
    g_r, g_t = upa(2, 2), upa(2, 2)
    # combiner orthogonal to the first grid steering vector kills that column
    e0 = steering_vector(g_r, grid.test_doas[0])
    basis = orth(np.eye(4) - np.outer(e0, e0.conj()))
    s = ObservationSetup(np.eye(4), basis, 1.0)
    with pytest.warns(UserWarning):
        d = build_dictionaries(grid, s, g_r, g_t)
    assert d.m == grid.m - 1 and d.n == grid.n
    assert np.array_equal(d.doa_angles, grid.doa_angles[:, 1:])
    assert [d.doa_of(i) for i in range(d.m)] == list(grid.test_doas[1:])
    assert [d.dod_of(j) for j in range(d.n)] == list(grid.test_dods)


@pytest.mark.parametrize("annihilating", [False, True])
def test_dictionary_and_pursuit_do_not_depend_on_the_scale_of_w_and_x(rng, annihilating):
    # W and X scaled by a power of two s keep the same atoms and picks; the
    # norms scale by s. An absolute bound of 1e-12 on the norms dropped every
    # direction at s = 2^-40, and annihilating=True drops DoA 0 at any s.
    grid = small_grid(4)
    g_r, g_t = upa(2, 2), upa(2, 3)
    e0 = steering_vector(g_r, grid.test_doas[0])
    W = orth(np.eye(4) - np.outer(e0, e0.conj())) if annihilating else np.eye(4)
    X = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))
    H = synthesize(PathSet([PathParams(1.0, 0.4, grid.test_doas[5], grid.test_dods[10]),
                            PathParams(0.5, 2.0, grid.test_doas[9], grid.test_dods[3])]),
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
    best, arg = -1.0, None
    for i in range(d.m):
        for j in range(d.n):
            v = abs(np.vdot(d.K_r[:, i], Y @ d.K_t[:, j]))
            if v > best:
                best, arg = v, (i, j)
    sel = joint_select(Y, d)
    assert (sel.doa_index, sel.dod_index) == arg


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
        best, arg = -1.0, None
        for i in range(d.m):
            for j in range(d.n):
                v = abs(np.vdot(d.K_r[:, i], Y @ d.K_t[:, j]))
                if v > best:
                    best, arg = v, (i, j)
        sel = joint_select(Y, d)
        assert (sel.doa_index, sel.dod_index) == arg
        assert sel.score_evaluations == 100 * 20


def bruteforce_pick(Y, d):
    """First argmax of |K_r^H Y K_t|^2 in complex128, as (DoA, DoD) columns."""
    scores = np.abs(d.K_r.conj().T @ Y @ d.K_t) ** 2
    return divmod(int(np.argmax(scores)), d.n)


def contracted_factors(Y, d):
    """The factors joint_select screens, as it forms them, and the largest
    norm of a row or column of the one formed from Ys."""
    Ys, _ = estimation._scaled(Y)
    if d.K_r.shape[0] <= d.K_t.shape[0]:
        right = Ys @ d.K_t
        return d.K_r.conj().T, right, float(np.linalg.norm(right, axis=0).max())
    left = d.K_r.conj().T @ Ys
    return left, d.K_t, float(np.linalg.norm(left, axis=1).max())


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
        rows = estimation._screened_rows(*contracted_factors(Y, d))
        assert arg[0] in rows and len(rows) < d.m
        sel = joint_select(Y, d)
        assert (sel.doa_index, sel.dod_index) == arg
        assert sel.score_evaluations == 300 * 30


def test_joint_select_zero_observation_tie_break(monkeypatch):
    # a zero Y skips the prune and the screen, so every row is scored
    # exactly; 300 DoAs span several score blocks
    grid = DirectionGrid(20, 15, 4, 4)
    g_r, g_t = upa(2, 2), upa(2, 2)
    d = build_dictionaries(grid, identity_setup(4, 4, 1.0), g_r, g_t)
    Y = np.zeros((4, 4), dtype=complex)
    # a zero product also keeps every row of the screen
    assert np.array_equal(estimation._screened_rows(*contracted_factors(Y, d)), np.arange(d.m))
    scored = []
    best_in_rows = estimation._best_in_rows
    monkeypatch.setattr(estimation, "_screened_rows", None)
    monkeypatch.setattr(estimation, "_best_in_rows",
                        lambda left, right, rows: scored.append(rows) or
                        best_in_rows(left, right, rows))
    sel = joint_select(Y, d)
    assert (sel.doa_index, sel.dod_index) == (0, 0)
    assert len(scored) == 1 and np.array_equal(scored[0], np.arange(d.m))


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
        assert arg[0] in estimation._screened_rows(left, right, norm)
        sel = joint_select(Y, d)
        assert (sel.doa_index, sel.dod_index) == arg


@pytest.fixture
def executor():
    with ThreadPoolExecutor(max_workers=3) as pool:
        yield pool


@pytest.mark.parametrize("m_az, m_el", [(20, 15), (10, 10), (6, 5)])
@pytest.mark.parametrize("zero", [False, True])
def test_joint_select_split_screen_matches_one_thread(rng, executor, m_az, m_el, zero):
    # 300 DoAs make five blocks, four full; 100 make two, fewer than the
    # four threads of three helpers; 30 make one block shorter than 64 rows.
    # Y = 0 keeps every row.
    grid = DirectionGrid(m_az, m_el, 6, 5)
    g_r, g_t = upa(2, 3), upa(2, 4)
    d = build_dictionaries(grid, identity_setup(8, 6, 1.0), g_r, g_t)
    for _ in range(3):
        Y = np.zeros((6, 8), dtype=complex) if zero else (
            rng.normal(size=(6, 8)) + 1j * rng.normal(size=(6, 8)))
        rows = estimation._screened_rows(*contracted_factors(Y, d))
        sel = joint_select(Y, d)
        if zero:
            assert np.array_equal(rows, np.arange(d.m))
        for count in (1, 2, 3):
            pool = Helpers(executor, count)
            assert np.array_equal(estimation._screened_rows(*contracted_factors(Y, d), pool),
                                  rows)
            assert joint_select(Y, d, pool) == sel


def test_joint_select_split_screen_covers_every_block_once(monkeypatch, executor):
    ranges = []
    screen_range = estimation._screen_range

    def recording(left32, right32, row_max, C, A, starts):
        ranges.append(list(starts))
        screen_range(left32, right32, row_max, C, A, starts)

    monkeypatch.setattr(estimation, "_screen_range", recording)
    grid = DirectionGrid(20, 15, 4, 4)
    d = build_dictionaries(grid, identity_setup(4, 4, 1.0), upa(2, 2), upa(2, 2))
    Y = np.ones((4, 4), dtype=complex)
    for count, sizes in ((0, [5]), (1, [2, 3]), (2, [1, 2, 2]), (3, [1, 1, 1, 2])):
        ranges.clear()
        estimation._screened_rows(*contracted_factors(Y, d), Helpers(executor, count))
        assert sorted(ranges) == [[64 * b for b in range(lo, lo + k)]
                                  for lo, k in zip(np.cumsum([0] + sizes), sizes)]


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
    """The DoA rows and DoD columns joint_select screens, as it forms them;
    every one when _scaled gives no margin."""
    Ys, margin = estimation._scaled(Y)
    if margin is None:
        return np.arange(d.m), np.arange(d.n)
    if d.K_r.shape[0] <= d.K_t.shape[0]:
        rows, cols, _ = estimation._candidates(d.K_r_H, Ys, Ys @ d.K_t, margin)
    else:
        cols, rows, _ = estimation._candidates(d.K_t.T, Ys.T, (d.K_r_H @ Ys).T, margin)
    return rows, cols


# Far from unit scale the squares of the residual's scores overflow (1e160)
# or underflow (1e-165, 1e-200) in float64 unless the selectors scale it.
SCALES = [1.0, 1e-150, 1e150, 1e160, 1e-165, 1e-200]


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


def test_joint_select_screens_few_rows_for_an_on_grid_path(monkeypatch):
    screened = []
    screen_range = estimation._screen_range

    def recording(left32, right32, row_max, C, A, starts):
        screened.append(len(row_max))
        screen_range(left32, right32, row_max, C, A, starts)

    monkeypatch.setattr(estimation, "_screen_range", recording)
    grid = DirectionGrid(20, 15, 6, 5)
    g_r, g_t, p, H, s, Y = on_grid_scenario(grid, 157, 17, n_r=(3, 3), n_t=(3, 3))
    d = build_dictionaries(grid, s, g_r, g_t)
    sel = joint_select(Y, d)
    assert (sel.doa_index, sel.dod_index) == (157, 17)
    assert screened and max(screened) <= d.m // 10


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
    stage1 = [np.vdot(d.K_r[:, i], Y @ Y.conj().T @ d.K_r[:, i]).real for i in range(d.m)]
    i_hat = int(np.argmax(stage1))
    stage2 = [abs(np.vdot(d.K_r[:, i_hat], Y @ d.K_t[:, j])) for j in range(d.n)]
    j_hat = int(np.argmax(stage2))
    sel = sequential_select(Y, d)
    assert (sel.doa_index, sel.dod_index) == (i_hat, j_hat)


def brute_force_sequential(Y, d):
    """Stage maxima by explicit loops; the first of equal scores wins."""
    energies = [sum(abs(np.vdot(d.K_r[:, i], Y[:, k])) ** 2 for k in range(Y.shape[1]))
                for i in range(d.m)]
    i_hat = max(range(d.m), key=lambda i: (energies[i], -i))
    row = [abs(np.vdot(d.K_r[:, i_hat], Y @ d.K_t[:, j])) ** 2 for j in range(d.n)]
    return i_hat, max(range(d.n), key=lambda j: (row[j], -j)), energies, row


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
        i_hat, j_hat, energies, row = brute_force_sequential(Y, d)
        # a near-tie could be decided by rounding; random residuals have none
        assert sorted(energies)[-1] - sorted(energies)[-2] > 1e-9 * max(energies)
        assert sorted(row)[-1] - sorted(row)[-2] > 1e-9 * max(row)
        sel = sequential_select(scale * Y, d)
        assert (sel.doa_index, sel.dod_index) == (i_hat, j_hat)


@pytest.mark.parametrize("scale", SCALES)
def test_sequential_select_ranks_near_tied_energies_at_any_scale(scale):
    # DoA energies 1 and 1 + 2^-46 lie within the screen's margin, so both
    # rows are rescored; unscaled, their energies underflow to zero at 1e-200
    d = atom_dictionary(np.eye(2, dtype=complex), np.eye(2, dtype=complex), small_grid(2))
    Y = np.array([[1, 0], [2.0 ** -23, 1]], dtype=complex)
    i_hat, j_hat, energies, row = brute_force_sequential(Y, d)
    assert (i_hat, j_hat) == (1, 1) and energies[1] > energies[0]
    sel = sequential_select(scale * Y, d)
    assert (sel.doa_index, sel.dod_index) == (1, 1)


def test_sequential_select_exact_ties_go_to_smallest_index():
    # integer entries make every score exact, so the planted ties are exact
    K_r = np.array([[0, 1, 0, 1, 0], [1, 0, 1, 0, 1j]], dtype=complex)
    K_t = np.array([[0, 1, -1, 1j], [1, 0, 0, 0]], dtype=complex)
    d = atom_dictionary(K_r, K_t, small_grid(3))
    Y = np.array([[1, 2j], [2, 1j]])   # every DoA atom receives energy 5
    i_hat, j_hat, energies, row = brute_force_sequential(Y, d)
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


def whole_product_sequential(Y, d):
    """The sequential picks from the whole product T = K_r^H Y."""
    T = d.K_r_H @ Y
    i_hat = int(np.argmax((np.abs(T) ** 2).sum(axis=1)))
    return i_hat, int(np.argmax(np.abs(T[i_hat] @ d.K_t)))


@pytest.mark.parametrize("n_c, n_s", [(3, 6), (6, 3)])
def test_sequential_select_matches_the_whole_product(rng, n_c, n_s):
    d = hybrid_dictionary(n_c, n_s)
    for _ in range(20):
        Y = rng.normal(size=(n_c, n_s)) + 1j * rng.normal(size=(n_c, n_s))
        sel = sequential_select(Y, d)
        assert (sel.doa_index, sel.dod_index) == whole_product_sequential(Y, d)
    sel = sequential_select(np.zeros((n_c, n_s), dtype=complex), d)
    assert (sel.doa_index, sel.dod_index) == (0, 0)


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
    g_r, g_t = upa(2, 3), upa(2, 4)
    W = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    X = rng.normal(size=(8, 5)) + 1j * rng.normal(size=(8, 5))
    s = ObservationSetup(X, W, 0.01)
    ps = PathSet([PathParams(1.0, 0.3, grid.test_doas[4], grid.test_dods[7]),
                  PathParams(0.5, 2.0, grid.test_doas[21], grid.test_dods[12])])
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
    g_r, g_t = upa(2, 2), upa(2, 2)
    sigma2 = 0.05
    ps = PathSet([PathParams(1.0, 0.2, grid.test_doas[4], grid.test_dods[9])])
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
    g_r, g_t = upa(2, 2), upa(2, 3)
    ps = PathSet([PathParams(1.0, 0.2, grid.test_doas[3], grid.test_dods[8]),
                  PathParams(0.6, 1.2, grid.test_doas[17], grid.test_dods[2])])
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
    g_r, g_t = upa(2, 2), upa(2, 2)
    s = identity_setup(4, 4, 0.0)
    rep = matching_pursuit(np.zeros((4, 4)), build_dictionaries(grid, s, g_r, g_t), 2, "joint")
    assert rep.estimated == ()
    assert rep.paths_kept == (0, 0)
    assert rep.score_evaluations == 9 * 9 * 2
    # no path kept: the estimate is the zero channel
    H = synthesize(PathSet([PathParams(1.0, 0.3, grid.test_doas[2], grid.test_dods[5])]),
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
    for bad in (np.nan, np.inf, -np.inf):
        Y = np.ones((4, 4), dtype=complex)
        Y[1, 2] = bad
        for strategy in ("joint", "sequential"):
            with pytest.raises(ValueError, match="NaN or inf"):
                matching_pursuit(Y, d, 1, strategy)
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
    H = synthesize(PathSet([PathParams(1.0, 0.4, grid.test_doas[5], grid.test_dods[10])]),
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
    g_r, g_t = upa(2, 2), upa(2, 3)
    ps = PathSet([PathParams(1.0, 0.2, grid.test_doas[3], grid.test_dods[8]),
                  PathParams(0.6, 1.2, grid.test_doas[17], grid.test_dods[2])])
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
