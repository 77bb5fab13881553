import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from mimolab.channel import ChannelMatrix, PathSet, steering_derivatives
from mimolab.fim import channel_jacobian, check_optimal_observation
from mimolab.geometry import upa
from mimolab.observation import (DENSE_PROJECTION_LIMIT, ObservationSetup, complex_from_json,
                                 exact_scale, identity_setup, noise_for_snr, observe,
                                 orthogonal_pilots, overflows, power_ratio, projection_apply,
                                 projection_matrix, range_basis, snr, span_combiners, span_pilots)

from conftest import random_path


def random_setup(rng, n_t=4, n_r=3, n_s=4, n_c=3, sigma2=0.5):
    X = rng.normal(size=(n_t, n_s)) + 1j * rng.normal(size=(n_t, n_s))
    W = rng.normal(size=(n_r, n_c)) + 1j * rng.normal(size=(n_r, n_c))
    return ObservationSetup(X, W, sigma2)


def test_setup_validation(rng):
    # a bool or a string used to be stored, or read as a number
    for sigma2 in (-1.0, math.nan, math.inf, True, False, "0.1", None, 10 ** 400):
        with pytest.raises(ValueError, match="sigma2"):
            ObservationSetup(np.eye(4), np.eye(3), sigma2)
    # a NaN X passed (alpha2 = NaN is not <= 0), an inf W read "full column rank"
    for X, W, name in ((np.full((4, 4), np.nan), np.eye(3), "pilot matrix X"),
                       (np.eye(4), np.diag([1.0, 1.0, np.inf]), "combiner matrix W"),
                       (np.eye(4), np.diag([1.0, 1.0, np.nan * 1j]), "combiner matrix W")):
        with pytest.raises(ValueError, match=f"{name} has a NaN or inf entry"):
            ObservationSetup(X, W, 1.0)
    assert ObservationSetup(np.eye(4), np.eye(3), np.float64(0.5)).sigma2 == 0.5
    with pytest.raises(ValueError):
        ObservationSetup(np.zeros((4, 2)), np.eye(3), 1.0)  # no transmit power
    W_deficient = np.ones((3, 2))  # duplicate columns
    with pytest.raises(ValueError):
        ObservationSetup(np.eye(4), W_deficient, 1.0)
    # a zero-column W built, and a zero-column X raised ZeroDivisionError
    for X, W, name in ((np.eye(4), np.zeros((3, 0)), "combiner matrix W"),
                       (np.zeros((4, 0)), np.eye(3), "pilot matrix X")):
        with pytest.raises(ValueError, match=f"{name} has no columns"):
            ObservationSetup(X, W, 1.0)


def test_orthogonal_pilots_identity_basis():
    X = orthogonal_pilots(4, 4, alpha=1.0)
    assert np.linalg.norm(X.conj().T @ X - np.eye(4)) < 1e-12


def test_orthogonal_pilots_power():
    X = orthogonal_pilots(6, 4, alpha=2.0)
    s = ObservationSetup(X, np.eye(3), 1.0)
    assert abs(s.alpha2 - 4.0) < 1e-12
    assert s.has_orthogonal_pilots


def test_orthogonal_pilots_dft_basis():
    X = orthogonal_pilots(8, 5, alpha=1.5, basis="dft")
    assert np.linalg.norm(X.conj().T @ X - 2.25 * np.eye(5)) < 1e-10


def test_orthogonal_pilots_rejects_overwide():
    with pytest.raises(ValueError):
        orthogonal_pilots(4, 5)


def test_orthogonal_pilots_rejects_a_non_finite_or_non_number_alpha():
    for alpha in (True, "2", math.nan, math.inf, None, 0.0):
        with pytest.raises(ValueError, match="finite alpha > 0"):
            orthogonal_pilots(4, 2, alpha)


def test_identity_setup_dimensions():
    s = identity_setup(64, 16, 0.1)
    assert s.n_s == 64 and s.n_c == 16
    assert abs(s.alpha2 - 1.0) < 1e-15
    assert s.has_orthogonal_pilots


def test_observe_noiseless_exact(rng):
    s = random_setup(rng, sigma2=0.0)
    H = ChannelMatrix(rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)))
    Y = observe(H, s, seed=0)
    assert np.array_equal(Y, s.W.conj().T @ H.matrix @ s.X)
    # the zero-variance draw adds nothing, whatever the seed
    assert np.array_equal(observe(H, s, seed=1), Y)


def test_observe_deterministic_given_seed(rng):
    s = random_setup(rng, sigma2=0.7)
    H = ChannelMatrix(rng.normal(size=(3, 4)))
    Y1 = observe(H, s, seed=123)
    Y2 = observe(H, s, seed=123)
    assert np.array_equal(Y1, Y2)
    Y3 = observe(H, s, seed=124)
    assert not np.array_equal(Y1, Y3)


def test_observe_rejects_mismatched_channel(rng):
    s = random_setup(rng)
    with pytest.raises(ValueError):
        observe(ChannelMatrix(np.zeros((5, 5))), s, seed=0)


def test_observe_beyond_the_largest_float_names_the_gain_and_the_pilot_power():
    # W^H H X was formed unscaled: "RuntimeWarning: overflow encountered in matmul",
    # then a Y of inf and NaN entries
    s = ObservationSetup(orthogonal_pilots(4, 2, 1e150, "dft"), np.eye(4), 1.0)
    H = ChannelMatrix(np.full((4, 4), 0.25e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(
                "at channel gain ||H||_F = 1e+300, pilot power alpha2 = 9.999999999999999e+299 "
                "and noise variance sigma2 = 1.0")):
            observe(H, s, seed=0)


def test_observe_noise_variance_monte_carlo():
    # H = 0, W = Id, sigma2 = 1: |Y_ij|^2 averages to 1 over 1e5 entries
    s = ObservationSetup(np.eye(1000)[:, :1000], np.eye(100), 1.0)
    H = ChannelMatrix(np.zeros((100, 1000)))
    Y = observe(H, s, seed=7)
    assert abs(np.mean(np.abs(Y) ** 2) - 1.0) < 0.02


def test_observe_affine_in_channel(rng):
    s = random_setup(rng, sigma2=0.0)
    H1 = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    H2 = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    Y12 = observe(ChannelMatrix(H1 + H2), s, 0)
    assert np.allclose(Y12, observe(ChannelMatrix(H1), s, 0) + observe(ChannelMatrix(H2), s, 0))


def test_combined_noise_covariance(rng):
    # vec(W^H N) has covariance sigma2 * (Id_{n_s} kron W^H W)
    sigma2 = 0.8
    W = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    s = ObservationSetup(np.eye(2), W, sigma2)
    H = ChannelMatrix(np.zeros((2, 2)))
    shared = np.random.default_rng(42)
    samples = np.empty((100000, 4), dtype=complex)
    for k in range(samples.shape[0]):
        samples[k] = observe(H, s, shared).reshape(-1, order="F")
    emp = samples.T @ samples.conj() / samples.shape[0]
    expected = sigma2 * np.kron(np.eye(2), W.conj().T @ W)
    assert np.linalg.norm(emp - expected) / np.linalg.norm(expected) < 0.03


def test_projection_identity_case():
    s = identity_setup(3, 2, 1.0)
    assert np.allclose(projection_matrix(s), np.eye(6), atol=1e-14)


def test_projection_idempotent_hermitian(rng):
    for _ in range(10):
        n_t, n_r = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        n_s, n_c = int(rng.integers(1, n_t + 1)), int(rng.integers(1, n_r + 1))
        X = orthogonal_pilots(n_t, n_s, alpha=float(rng.uniform(0.5, 2.0)))
        W = rng.normal(size=(n_r, n_c)) + 1j * rng.normal(size=(n_r, n_c))
        s = ObservationSetup(X, W, 1.0)
        P = projection_matrix(s)
        assert np.linalg.norm(P @ P - P) <= 1e-10
        assert np.linalg.norm(P - P.conj().T) <= 1e-12


def test_projection_warns_when_not_orthogonal(rng):
    s = random_setup(rng)
    assert not s.has_orthogonal_pilots
    with pytest.warns(UserWarning):
        projection_matrix(s)


def test_projection_rank_product(rng):
    # rank via SVD oracle on a small instance with a rank-2 pilot matrix
    X = np.zeros((4, 3), dtype=complex)
    X[:, 0] = [1, 0, 0, 0]
    X[:, 1] = [0, 1, 0, 0]
    X[:, 2] = [1, 1, 0, 0]  # dependent column: rank(X) = 2
    W = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    s = ObservationSetup(X, W, 1.0)
    with pytest.warns(UserWarning):
        P = projection_matrix(s)
    sv = np.linalg.svd(P, compute_uv=False)
    assert int(np.sum(sv > 1e-10 * sv[0])) == 2 * 2


def test_projection_dense_size_guard():
    # one transmit antenna past the limit (65 * 64 = 4160 > 4096); at the
    # limit the dense matrix would take 268 MB, so that side is not built
    assert 64 * 64 == DENSE_PROJECTION_LIMIT
    s = identity_setup(65, 64, 1.0)
    with pytest.raises(ValueError, match=f"size 4160 exceeds limit {DENSE_PROJECTION_LIMIT}"):
        projection_matrix(s)


def test_projection_apply_matches_dense(rng):
    for _ in range(5):
        s = random_setup(rng, n_t=4, n_r=3, n_s=3, n_c=2)
        with pytest.warns(UserWarning):
            P = projection_matrix(s)
        M = rng.normal(size=(12, 7)) + 1j * rng.normal(size=(12, 7))
        assert np.allclose(projection_apply(s, M), P @ M)


def test_snr_arithmetic():
    s = identity_setup(2, 2, 0.1)
    h = np.array([1.0, 0.0, 0.0, 0.0])
    assert abs(snr(s, h) - 10.0) < 1e-12


def test_snr_round_trip(rng):
    h = rng.normal(size=8) + 1j * rng.normal(size=8)
    target = 10 ** (10 / 10)  # 10 dB
    sigma2 = noise_for_snr(target, 1.0, h)
    s = identity_setup(4, 2, sigma2)
    assert abs(snr(s, h) - target) <= 1e-12 * target


def test_exact_scale_takes_an_array_or_each_column_into_half_to_one(rng):
    M = rng.normal(size=(5, 4)) * np.array([2.0 ** -1000, 1.0, 2.0 ** 1000, 0.0])
    Ms, e = exact_scale(M, axis=0)
    top = np.abs(Ms).max(axis=0)
    assert np.all((0.5 <= top[:3]) & (top[:3] < 1)) and e[3] == 0 and not Ms[:, 3].any()
    assert np.array_equal(np.ldexp(Ms, e), M)
    Mw, ew = exact_scale(M)   # one exponent, that of the largest column
    assert isinstance(ew, int) and ew == e[2] and np.array_equal(Mw[:, 1:], np.ldexp(M[:, 1:], -ew))
    # a zero, non-finite or already scaled column gets exponent 0 and is left as it is
    A = np.array([[0.0, np.nan, np.inf, 0.75, 4.0], [0.0, 1.0, -1.0, -0.5, 1.0]])
    As, f = exact_scale(A, axis=0)
    assert f.tolist() == [0, 0, 0, 0, 3] and As[:, 4].tolist() == [0.5, 0.125]
    assert np.array_equal(As[:, :4], A[:, :4], equal_nan=True)


@pytest.mark.parametrize("M", [np.zeros((2, 3)), np.array([[1.0, np.nan]]),
                               np.array([[np.inf + 0j, 1.0]]), np.array([[0.75, -0.5j]])])
def test_exact_scale_leaves_a_zero_non_finite_or_scaled_array_as_it_is(M):
    # exponent 0 in each case, and no (inf + 0j) * 1 = inf + nan j
    Ms, e = exact_scale(M)
    assert Ms is M and e == 0


@pytest.mark.parametrize("x, e, expected", [
    (0.5, 1024, False), (1.0, 1023, False), (1.0, 1024, True), (-1.0, 1024, True),
    (2.0 ** -1074, 2097, False), (2.0 ** -1074, 2098, True), (1.0, -5000, False),
    (0.0, 5000, False), (math.inf, 5000, False), (-math.inf, 5000, False), (math.nan, 5000, False)])
def test_overflows_when_and_only_when_ldexp_would(x, e, expected):
    assert overflows(x, e) == expected
    if not expected:
        np.ldexp(x, e)   # no overflow warning, an error under the test settings


@pytest.mark.parametrize("alpha2", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("gain", [1e-170, 1.0, 1e160])
@pytest.mark.parametrize("denominator", [1e-300, 1.0, 1e300])
def test_power_ratio_is_the_exact_ratio_rounded(rng, alpha2, gain, denominator):
    # against alpha2 ||h||^2 / denominator in exact rationals: within 3 roundings
    # where it is a normal float, inf above, and below the normal floats where below
    h = gain * (rng.normal(size=6) + 1j * rng.normal(size=6))
    exact = (Fraction(alpha2) * sum(Fraction(z.real) ** 2 + Fraction(z.imag) ** 2 for z in h)
             / Fraction(denominator))
    got = power_ratio(alpha2, h, denominator)
    if exact > Fraction(sys.float_info.max):
        assert got == math.inf
    elif exact < Fraction(sys.float_info.min):
        assert got < sys.float_info.min
    else:
        assert abs(Fraction(got) - exact) <= 3 * 2.0 ** -53 * exact


def test_snr_rejects_degenerate_inputs():
    s = identity_setup(2, 2, 0.1)
    with pytest.raises(ValueError):
        snr(s, np.zeros(4))
    with pytest.raises(ValueError):
        snr(identity_setup(2, 2, 0.0), np.ones(4))
    with pytest.raises(ValueError):
        noise_for_snr(10.0, 1.0, np.zeros(4))
    with pytest.raises(ValueError):
        noise_for_snr(-1.0, 1.0, np.ones(4))


def test_span_setups_cover_direction_derivatives(rng):
    g_r, g_t = upa(2, 3), upa(3, 3)
    ps = PathSet(random_path(rng) for _ in range(2))
    X = span_pilots(ps, g_t, alpha=1.3)
    W = span_combiners(ps, g_r)
    s = ObservationSetup(X, W, 1.0)
    assert s.has_orthogonal_pilots
    assert np.allclose(W.conj().T @ W, np.eye(W.shape[1]), atol=1e-12)
    # every steering vector and derivative lies in the respective range
    P_w = s.Q_w @ s.Q_w.conj().T
    P_x = X @ X.conj().T / s.alpha2
    for V in steering_derivatives(g_r, [p.doa for p in ps]):
        assert np.all(np.linalg.norm(P_w @ V - V, axis=0) < 1e-10)
    for V in steering_derivatives(g_t, [p.dod for p in ps]):
        assert np.all(np.linalg.norm(P_x @ V - V, axis=0) < 1e-10)


def test_setup_constructor_rejects_a_range_basis():
    # Q_w is derived from W at construction, never taken from a caller
    for args, kwargs in (((np.zeros((2, 2)),), {}), ((), {"Q_w": np.zeros((2, 2))})):
        with pytest.raises(TypeError):
            ObservationSetup(np.eye(3), np.eye(2), 0.5, *args, **kwargs)
    s = ObservationSetup(np.eye(3), np.eye(2), 0.5)
    assert np.array_equal(s.Q_w, np.eye(2))
    assert not s.Q_w.flags.writeable


def _rank_deficient(rng, rows, cols, rank):
    left = rng.normal(size=(rows, rank)) + 1j * rng.normal(size=(rows, rank))
    return left @ (rng.normal(size=(rank, cols)) + 1j * rng.normal(size=(rank, cols)))


def test_range_basis_matches_scipy_orth(rng):
    # scipy.linalg.orth, with the same cutoff, is the independent reference
    from scipy.linalg import orth
    for _ in range(100):
        rows, cols = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        M = _rank_deficient(rng, rows, cols, int(rng.integers(0, min(rows, cols) + 1)))
        if rng.random() < 0.3:
            M = M.real
        Q, ref = range_basis(M), orth(M)
        assert Q.shape == ref.shape
        assert np.linalg.norm(Q @ Q.conj().T - ref @ ref.conj().T) <= 1e-12


def test_residual_is_zero_for_an_ill_conditioned_lossless_combiner(rng):
    # W = span_combiners(...) @ M keeps the range for any invertible M; the
    # normal-equations projector W (W^H W)^-1 W^H read 3.2e-6 here, 1.2e-11 now
    g_r, g_t = upa(4, 4), upa(4, 4)
    ps = PathSet(random_path(rng) for _ in range(2))
    Q = span_combiners(ps, g_r)
    U, _, Vh = np.linalg.svd(rng.normal(size=(Q.shape[1],) * 2))
    W = Q @ (U * np.logspace(0, -6, Q.shape[1]) @ Vh)
    assert 0.5e6 < np.linalg.cond(W) < 2e6
    s = ObservationSetup(np.eye(g_t.n_antennas), W, 1.0)
    assert check_optimal_observation(channel_jacobian(ps, g_r, g_t), s) <= 1e-10


def test_complex_json_round_trip():
    assert np.array_equal(complex_from_json([[[1.0, 2.0], [3, -4]]], "X"), [[1 + 2j, 3 - 4j]])
    with pytest.raises(ValueError):
        complex_from_json([[1.0, 2.0]], "X")
    for bad in ("0.5", True, None):
        with pytest.raises(ValueError, match="pilot matrix X must hold only numbers"):
            complex_from_json([[[1.0, 0.0], [0.0, bad]]], "pilot matrix X")


def test_observe_accepts_channel_matrix(rng):
    s = identity_setup(3, 2, 0.0)
    H = ChannelMatrix(rng.normal(size=(2, 3)))
    assert np.array_equal(observe(H, s, 0), H.matrix)
