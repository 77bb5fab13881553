import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimolab.channel import (ChannelMatrix, PathParams, PathSet, merge_paths,
                             steering_derivatives, steering_matrix, steering_vector,
                             synthesize)
from mimolab.estimation import DirectionGrid, Dictionary
from mimolab.geometry import (ArrayGeometry, Direction, ula, unit_vectors,
                              unit_vectors_from_angles, upa)

from conftest import (per_antenna_steering, random_direction, random_geometry, random_path,
                      shift_direction)


def test_path_params_validation():
    d = Direction(0.1, 0.2)
    with pytest.raises(ValueError):
        PathParams(0.0, 0.0, d, d)
    with pytest.raises(ValueError):
        PathParams(-1.0, 0.0, d, d)
    for rho in (math.inf, math.nan):
        with pytest.raises(ValueError, match="gain magnitude"):
            PathParams(rho, 0.0, d, d)
    for phi in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="phase"):
            PathParams(1.0, phi, d, d)
    # a string or a bool used to be read as a number by from_json's float()
    for bad in ("0.5", True, None):
        with pytest.raises(ValueError, match="path gain magnitude must be a number"):
            PathParams(bad, 0.0, d, d)
        with pytest.raises(ValueError, match="path phase must be a number"):
            PathParams(1.0, bad, d, d)
    p = PathParams(1.0, -0.5, d, d)
    assert 0.0 <= p.phi < 2 * math.pi
    assert abs(p.gain - cmath.exp(-0.5j)) < 1e-15


def test_pathset_requires_paths():
    with pytest.raises(ValueError):
        PathSet([])


def test_pathset_json_round_trip(rng):
    ps = PathSet(random_path(rng) for _ in range(3))
    ps2 = PathSet.from_json(ps.to_json())
    for a, b in zip(ps, ps2):
        assert a == b


def test_steering_zenith_upa_is_uniform():
    # every antenna in the xy plane is orthogonal to the zenith direction
    g = upa(3, 3, 0.5, plane="xy")
    e = steering_vector(g, Direction(0.0, math.pi / 2))
    assert np.allclose(e, np.full(9, 1 / 3.0))


def test_steering_unit_norm_many(rng):
    for _ in range(1000):
        g = random_geometry(rng, int(rng.integers(1, 12)))
        e = steering_vector(g, random_direction(rng, el_max=math.pi / 2))
        assert abs(np.linalg.norm(e) - 1.0) < 1e-12


def test_steering_two_element_ula_hand_values():
    # scaled offsets -pi/2, +pi/2 against u = x-hat
    g = ula(2, 0.5, "x")
    e = steering_vector(g, Direction(0.0, 0.0))
    expected = np.array([cmath.exp(1j * math.pi / 2), cmath.exp(-1j * math.pi / 2)])
    assert np.allclose(e, expected / math.sqrt(2), atol=1e-14)


def test_steering_matrix_matches_vectors(rng):
    g = random_geometry(rng, 7)
    dirs = [random_direction(rng) for _ in range(5)]
    E = steering_matrix(g, unit_vectors(dirs))
    # one matrix product against one matrix-vector product per column: the
    # BLAS kernels round differently, so columns agree to a few ulp, not bits
    for k, d in enumerate(dirs):
        assert np.allclose(E[:, k], steering_vector(g, d), rtol=0.0, atol=1e-13)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(nx=st.integers(1, 9), ny=st.integers(1, 9), plane=st.sampled_from(["xy", "yz", "xz"]),
       spacing=st.floats(0.01, 50.0), seed=st.integers(0, 2 ** 32 - 1))
def test_factored_steering_lies_within_its_bound_of_the_per_antenna_formula(
        nx, ny, plane, spacing, seed):
    rng = np.random.default_rng(seed)
    g = upa(nx, ny, spacing, plane)
    A, n = g.scaled_positions, g.n_antennas
    random = unit_vectors_from_angles(rng.uniform(-math.pi, math.pi, 30),
                                      rng.uniform(-math.pi / 2, math.pi / 2, 30))
    U = np.concatenate([random, DirectionGrid(7, 7, 1, 1).doa_units], axis=1)
    E = steering_matrix(g, U)
    # the bound steering_matrix's docstring states, per antenna
    bound = (3 * np.abs(A).sum(axis=0) + 16) * 2.0 ** -53 / math.sqrt(n)
    assert np.all(np.abs(E - per_antenna_steering(A, U)) <= bound[:, None])
    # every column passes the dictionary's unit-norm check (it raises otherwise)
    k = U.shape[1]
    Dictionary(E, E, np.ones(k), np.ones(k), np.zeros((2, k)), np.zeros((2, k)))


@pytest.mark.parametrize("g", [upa(8, 8), upa(4, 4, 0.3, "xy"), upa(3, 7, 1.7, "xz"),
                               ula(5, 0.5, "z"), upa(1, 1)],
                         ids=["upa_8x8", "upa_4x4_xy", "upa_3x7_xz", "ula_5_z", "upa_1x1"])
def test_steering_vector_is_its_column_of_any_batch_bit_for_bit(rng, g):
    for k in (1, 2, 5, 17, 40, 301):
        dirs = [random_direction(rng, el_max=math.pi / 2) for _ in range(k)]
        E = steering_matrix(g, unit_vectors(dirs))
        for j, d in enumerate(dirs):
            assert np.array_equal(E[:, j], steering_vector(g, d))


def test_a_one_factor_array_is_the_unfactored_formula_bit_for_bit(rng):
    A = upa(4, 3).scaled_positions
    shuffled = ArrayGeometry(A[:, rng.permutation(A.shape[1])])
    for g in (shuffled, random_geometry(rng, 9), random_geometry(rng, 40, scale=3.0)):
        assert len(g.factors) == 1
        for k in (1, 50, 2500):
            U = unit_vectors([random_direction(rng, el_max=math.pi / 2) for _ in range(k)])
            expected = np.exp(-1j * (g.scaled_positions.T @ U)) / math.sqrt(g.n_antennas)
            assert np.array_equal(steering_matrix(g, U), expected)


def test_steering_derivative_single_antenna_zero(rng):
    dirs = [random_direction(rng) for _ in range(5)]
    E, dE_az, dE_el = steering_derivatives(ula(1), dirs)
    assert np.allclose(E, 1.0)
    assert np.all(dE_az == 0.0)
    assert np.all(dE_el == 0.0)


def test_steering_derivative_matches_finite_differences(rng):
    step = 1e-6
    for _ in range(20):
        g = random_geometry(rng, int(rng.integers(2, 10)))
        dirs = [random_direction(rng) for _ in range(5)]
        E, *analytic = steering_derivatives(g, dirs)
        assert np.allclose(E, steering_matrix(g, unit_vectors(dirs)), rtol=0.0, atol=1e-15)
        for axis, dE in zip(("azimuth", "elevation"), analytic):
            e_plus = steering_matrix(g, unit_vectors([shift_direction(d, axis, step) for d in dirs]))
            e_minus = steering_matrix(g, unit_vectors([shift_direction(d, axis, -step)
                                                      for d in dirs]))
            fd = (e_plus - e_minus) / (2 * step)
            scale = np.maximum(np.linalg.norm(dE, axis=0), 1e-3)
            assert np.all(np.linalg.norm(fd - dE, axis=0) / scale <= 1e-6)


def test_steering_derivative_orthogonal_to_vector(rng):
    # e^H (de/dxi) = -(j/n) * sum of A^T v entries = 0 by centroid centering
    for _ in range(10):
        g = random_geometry(rng, int(rng.integers(2, 10)))
        E, *derivatives = steering_derivatives(g, [random_direction(rng) for _ in range(5)])
        for dE in derivatives:
            inner = np.einsum("ik,ik->k", E.conj(), dE)
            assert np.all(np.abs(inner) < 1e-12 * g.n_antennas)


def test_atomic_channel_trivial_1x1():
    p = PathParams(1.0, 0.0, Direction(0.3, 0.1), Direction(-0.2, 0.4))
    H = synthesize(PathSet([p]), ula(1), ula(1))
    assert np.allclose(H.matrix, [[1.0]])


def test_atomic_channel_frobenius_norm(rng):
    for _ in range(20):
        p = random_path(rng)
        H = synthesize(PathSet([p]), random_geometry(rng, 5), random_geometry(rng, 4))
        assert abs(np.linalg.norm(H.matrix) - p.rho) < 1e-12


def test_atomic_channel_kronecker_identity(rng):
    # brute-force oracle: entry (i, j) = c * e_r[i] * conj(e_t[j])
    g_r, g_t = random_geometry(rng, 4), random_geometry(rng, 3)
    p = random_path(rng)
    e_r = steering_vector(g_r, p.doa)
    e_t = steering_vector(g_t, p.dod)
    h = synthesize(PathSet([p]), g_r, g_t).vector
    kron = p.gain * np.kron(e_t.conj(), e_r)
    for j in range(3):
        for i in range(4):
            expected = p.gain * e_r[i] * np.conj(e_t[j])
            assert abs(h[i + 4 * j] - expected) <= 1e-14
            assert abs(kron[i + 4 * j] - expected) <= 1e-14


def test_synthesize_opposite_gains_cancel(rng):
    g_r, g_t = random_geometry(rng, 4), random_geometry(rng, 5)
    p = random_path(rng)
    q = PathParams(p.rho, (p.phi + math.pi) % (2 * math.pi), p.doa, p.dod)
    H = synthesize(PathSet([p, q]), g_r, g_t)
    assert np.linalg.norm(H.matrix) < 1e-13


def test_synthesize_beyond_the_largest_float_names_the_gain():
    # two aligned paths of gain 1.5e308 on 1 x 1 arrays: the one entry, 3e308,
    # overflowed with "RuntimeWarning: overflow encountered in matmul"
    p = PathParams(1.5e308, 0.0, Direction(0.2, 0.1), Direction(-0.4, 0.3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="beyond the largest float at path gains up to "
                                             r"rho = 1\.5e\+308"):
            synthesize(PathSet([p, p]), upa(1, 1), upa(1, 1))
        # on 2 x 2 arrays each entry is a quarter of that, and finite
        H = synthesize(PathSet([p, p]), upa(2, 2), upa(2, 2)).matrix
        assert np.allclose(np.abs(H), 0.75e308, rtol=1e-14, atol=0.0)


def test_synthesize_rank_bounded_by_paths(rng):
    g_r, g_t = random_geometry(rng, 8), random_geometry(rng, 6)
    ps = PathSet(random_path(rng) for _ in range(3))
    sv = np.linalg.svd(synthesize(ps, g_r, g_t).matrix, compute_uv=False)
    assert np.all(sv[3:] < 1e-10)


def test_synthesize_linear_in_gains(rng):
    g_r, g_t = random_geometry(rng, 5), random_geometry(rng, 4)
    ps = PathSet(random_path(rng) for _ in range(4))
    scaled = PathSet(PathParams(2.5 * p.rho, p.phi, p.doa, p.dod) for p in ps)
    H1 = synthesize(ps, g_r, g_t).matrix
    H2 = synthesize(scaled, g_r, g_t).matrix
    assert np.linalg.norm(H2 - 2.5 * H1) <= 1e-13 * np.linalg.norm(H2)


def test_channel_matrix_vector_round_trip(rng):
    M = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    H = ChannelMatrix(M)
    assert np.array_equal(H.vector.reshape((3, 5), order="F"), M)
    # column-major stacking: first column first
    assert np.array_equal(H.vector[:3], M[:, 0])


def test_merge_paths(rng):
    d_a, d_d = random_direction(rng), random_direction(rng)
    p = PathParams(1.0, 0.3, d_a, d_d)
    q = PathParams(0.5, 1.1, d_a, d_d)
    merged = merge_paths([p, q])
    assert abs(merged.gain - (p.gain + q.gain)) < 1e-14
    other = PathParams(1.0, 0.3, random_direction(rng), d_d)
    with pytest.raises(ValueError):
        merge_paths([p, other])
    # near-perfect cancellation leaves a tiny but valid gain
    opposite = PathParams(1.0, (p.phi + math.pi) % (2 * math.pi), d_a, d_d)
    assert merge_paths([p, opposite]).rho < 1e-15
