import itertools
import math
import threading
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import orth

from mimolab import fim
from mimolab.bench import ScenarioConfig, generate_paths
from mimolab.channel import PathParams, PathSet, steering_derivatives, steering_vector, synthesize
from mimolab.fim import (bound, channel_jacobian, check_optimal_observation, crb_report,
                         crb_trace, fisher_factor, fisher_matrix,
                         intra_path_block, inter_path_coupling_mass, optimal_bound)
from mimolab.geometry import Direction, ula, upa
from mimolab.observation import (ObservationSetup, exact_scale, frobenius_norm, identity_setup,
                                 orthogonal_pilots, projection_apply, snr, span_combiners,
                                 span_pilots)

from conftest import (fd_jacobian, random_geometry, random_path,
                      separated_directions)


def test_jacobian_phase_column_definitional(rng):
    g_r, g_t = random_geometry(rng, 4), random_geometry(rng, 5)
    ps = PathSet([random_path(rng)])
    D = channel_jacobian(ps, g_r, g_t).dense()
    e_r = steering_vector(g_r, ps[0].doa)
    e_t = steering_vector(g_t, ps[0].dod)
    h_p = ps[0].gain * np.kron(e_t.conj(), e_r)
    assert np.array_equal(D[:, 1], 1j * h_p)
    assert np.allclose(D[:, 1], 1j * synthesize(ps, g_r, g_t).vector, rtol=0, atol=1e-15)
    assert np.allclose(D[:, 0], h_p / ps[0].rho)


def test_dense_jacobian_is_the_definitional_kron_product_to_the_bit(rng):
    # Jacobian.dense writes every column in place, yet each entry is that of
    # c (f_t^* kron f_r), the rho column h / rho and the phi column j h
    g_r, g_t = random_geometry(rng, 5), random_geometry(rng, 4)
    ps = PathSet(random_path(rng) for _ in range(3))
    D = channel_jacobian(ps, g_r, g_t).dense()
    F_r = steering_derivatives(g_r, [p.doa for p in ps])
    F_t = steering_derivatives(g_t, [p.dod for p in ps])
    for k, path in enumerate(ps):
        (e_r, de_r_az, de_r_el), (e_t, de_t_az, de_t_el) = ([F[:, k] for F in G]
                                                            for G in (F_r, F_t))
        c = np.array([path.gain])
        h = c * np.kron(e_t.conj(), e_r)
        expected = (h / path.rho, 1j * h, c * np.kron(e_t.conj(), de_r_az),
                    c * np.kron(e_t.conj(), de_r_el), c * np.kron(de_t_az.conj(), e_r),
                    c * np.kron(de_t_el.conj(), e_r))
        for m, column in enumerate(expected):
            assert np.array_equal(D[:, 6 * k + m], column)


def test_jacobian_single_antennas_have_zero_direction_columns(rng):
    ps = PathSet([random_path(rng)])
    D = channel_jacobian(ps, ula(1), ula(1)).dense()
    assert np.all(D[:, 2:] == 0.0)


def test_jacobian_matches_finite_differences(rng):
    for _ in range(20):
        g_r = random_geometry(rng, int(rng.integers(2, 7)))
        g_t = random_geometry(rng, int(rng.integers(2, 7)))
        ps = PathSet(random_path(rng) for _ in range(int(rng.integers(1, 4))))
        D = channel_jacobian(ps, g_r, g_t).dense()
        FD = fd_jacobian(ps, g_r, g_t, step=1e-6)
        for k in range(D.shape[1]):
            scale = max(np.linalg.norm(D[:, k]), 1e-9)
            assert np.linalg.norm(D[:, k] - FD[:, k]) / scale <= 1e-5


def test_fisher_single_path_identity_entries(rng):
    # cross-checked against the closed form: (rho, rho) entry 2 a2/s2,
    # (phi, phi) entry 2 rho^2 a2/s2
    sigma2 = 0.3
    p = random_path(rng)
    g_r, g_t = random_geometry(rng, 5), random_geometry(rng, 4)
    s = identity_setup(4, 5, sigma2)
    I = fisher_matrix(channel_jacobian(PathSet([p]), g_r, g_t), s)
    assert abs(I[0, 0] - 2.0 / sigma2) < 1e-10 / sigma2
    assert abs(I[1, 1] - 2.0 * p.rho ** 2 / sigma2) < 1e-10 / sigma2


def test_fisher_scales_inversely_with_noise(rng):
    g_r, g_t = random_geometry(rng, 4), random_geometry(rng, 4)
    ps = PathSet(random_path(rng) for _ in range(2))
    J = channel_jacobian(ps, g_r, g_t)
    I1 = fisher_matrix(J, identity_setup(4, 4, 0.5))
    I2 = fisher_matrix(J, identity_setup(4, 4, 0.1))
    assert np.allclose(I2, 5.0 * I1)


def test_fisher_rejects_noiseless():
    with pytest.raises(ValueError):
        fisher_matrix(np.zeros((4, 6), dtype=complex), identity_setup(2, 2, 0.0))


def test_fisher_symmetric_psd_random_scenarios(rng):
    # eigenvalue oracle over 100 random scenarios
    for _ in range(100):
        g_r = random_geometry(rng, int(rng.integers(2, 6)))
        g_t = random_geometry(rng, int(rng.integers(2, 6)))
        ps = PathSet(random_path(rng) for _ in range(int(rng.integers(1, 4))))
        I = fisher_matrix(channel_jacobian(ps, g_r, g_t),
                          identity_setup(g_t.n_antennas, g_r.n_antennas, 0.7))
        norm = np.linalg.norm(I)
        assert np.linalg.norm(I - I.T) <= 1e-10 * norm
        assert np.linalg.eigvalsh(I).min() >= -1e-8 * norm


def test_closed_form_matches_generic_single_path(rng):
    for _ in range(50):
        sigma2 = float(rng.uniform(0.05, 2.0))
        g_r = random_geometry(rng, int(rng.integers(2, 8)))
        g_t = random_geometry(rng, int(rng.integers(2, 8)))
        p = random_path(rng)
        s = identity_setup(g_t.n_antennas, g_r.n_antennas, sigma2)
        generic = fisher_matrix(channel_jacobian(PathSet([p]), g_r, g_t), s)
        closed = intra_path_block(p, g_r, g_t, s.alpha2, sigma2)
        assert np.linalg.norm(generic - closed) <= 1e-10 * np.linalg.norm(closed)


def test_intra_path_block_ula_elevation_blind():
    # brute-force oracle: (1/4) sum (pi k / 2)^2 over k in {-3,-1,1,3}
    g = ula(4, 0.5, "x")
    p = PathParams(1.0, 0.0, Direction(math.pi / 2, 0.0), Direction(0.1, 0.2))
    block = intra_path_block(p, g, ula(4, 0.5, "x"), 1.0, 1.0)
    B_r = block[2:4, 2:4] / 2.0  # strip 2 rho^2 a2/s2 prefactor
    brute = sum((math.pi * k / 2.0) ** 2 for k in (-3, -1, 1, 3)) / 4.0
    assert abs(B_r[0, 0] - brute) < 1e-12
    assert abs(B_r[1, 1]) < 1e-24  # elevation unidentifiable for an x-axis ULA
    assert abs(brute - 5 * math.pi ** 2 / 4) < 1e-12


def test_intra_path_groups_uncoupled(rng):
    # gain pair, DoA pair, DoD pair mutually uncoupled for centroid-centered arrays
    for _ in range(30):
        g_r = random_geometry(rng, int(rng.integers(2, 9)))
        g_t = random_geometry(rng, int(rng.integers(2, 9)))
        p = random_path(rng)
        s = identity_setup(g_t.n_antennas, g_r.n_antennas, 0.4)
        I = fisher_matrix(channel_jacobian(PathSet([p]), g_r, g_t), s)
        bound = 1e-12 * I.diagonal().max()
        groups = (slice(0, 2), slice(2, 4), slice(4, 6))
        for a in range(3):
            for b in range(3):
                if a != b:
                    assert np.abs(I[groups[a], groups[b]]).max() <= bound


def test_crb_floor_equality_identity_observation(rng):
    g_r, g_t = upa(2, 2), upa(2, 2)
    doas = separated_directions(rng, 3, 0.5)
    dods = separated_directions(rng, 3, 0.5)
    ps = PathSet(PathParams(rng.uniform(0.5, 1.5), rng.uniform(0, 2 * math.pi), a, d)
                 for a, d in zip(doas, dods))
    s = identity_setup(4, 4, 0.25)
    h = synthesize(ps, g_r, g_t).vector
    _, res = bound(channel_jacobian(ps, g_r, g_t), s, h)
    floor = optimal_bound(3, snr(s, h))
    assert not res.ill_conditioned
    assert abs(res.value - floor) <= 1e-9 * floor


def test_crb_trace_flags_duplicate_paths(rng):
    g_r, g_t = upa(2, 2), upa(2, 2)
    d_a, d_d = Direction(0.2, 0.3), Direction(-0.5, 0.1)
    ps = PathSet([PathParams(1.0, 0.1, d_a, d_d), PathParams(0.7, 1.0, d_a, d_d)])
    s = identity_setup(4, 4, 0.5)
    J = channel_jacobian(ps, g_r, g_t)
    res = crb_trace(J.dense(), fisher_factor(J, s), synthesize(ps, g_r, g_t).vector)
    assert res.ill_conditioned
    assert res.condition_number > 1e12
    assert math.isfinite(res.value)  # pseudo-inverse value still reported


def test_crb_condition_number_free_of_gain_scale(rng):
    # the raw Fisher matrix of one path scales its gain rows by 1/rho^2
    g_r, g_t = upa(2, 2), upa(2, 3)
    results = []
    for rho in (1.0, 1e-7, 1e5):
        ps = PathSet([PathParams(rho, 0.4, Direction(0.3, -0.2), Direction(-0.6, 0.5))])
        h = synthesize(ps, g_r, g_t).vector
        s = identity_setup(6, 4, 0.5)
        _, res = bound(channel_jacobian(ps, g_r, g_t), s, h)
        assert not res.ill_conditioned
        assert abs(res.value - optimal_bound(1, snr(s, h))) <= 1e-12 * res.value
        results.append(res.condition_number)
    assert results[0] < 10
    assert max(results) - min(results) <= 1e-9 * results[0]


def test_crb_trace_equilibrated_matches_direct_solve(rng):
    g_r, g_t = upa(2, 3), upa(3, 2)
    doas, dods = separated_directions(rng, 3, 0.5), separated_directions(rng, 3, 0.5)
    ps = PathSet(PathParams(rng.uniform(0.5, 2), rng.uniform(0, 6), a, d)
                 for a, d in zip(doas, dods))
    W = orth(rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5)))
    J = channel_jacobian(ps, g_r, g_t)
    D = J.dense()
    s = ObservationSetup(np.eye(6), W, 0.3)
    R, I = fisher_factor(J, s), fisher_matrix(J, s)
    h = synthesize(ps, g_r, g_t).vector
    res = crb_trace(D, R, h)
    direct = np.trace(np.linalg.solve(I, D.conj().T @ D)).real / np.vdot(h, h).real
    assert not res.ill_conditioned
    assert abs(res.value - direct) <= 1e-10 * direct
    S = np.diag(1 / np.sqrt(np.diag(I)))
    w = np.linalg.eigvalsh(S @ I @ S)
    assert res.condition_number == pytest.approx(w[-1] / w[0], rel=1e-10)


def test_crb_trace_is_unchanged_by_power_of_two_column_scalings(rng):
    # Parameter j in units 2^-a_j scales column j of D and of R by 2^a_j and
    # leaves the bound and the equilibrated condition number as they are.
    # crb_trace takes each column on its own power of two, so while every
    # entry stays a normal float the result is the same to the bit, for a
    # well-separated pair of paths, a flagged pair of coincident ones, and a
    # factor with a zero column (a parameter the observation annihilates).
    g_r, g_t = upa(2, 3), upa(3, 2)
    W = orth(rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5)))
    s = ObservationSetup(np.eye(6), W, 0.3)
    doas, dods = separated_directions(rng, 2, 0.6), separated_directions(rng, 2, 0.6)
    cases = []
    for second in (PathParams(1.3, 1.1, doas[1], dods[1]), PathParams(0.7, 1.1, doas[0], dods[0])):
        ps = PathSet([PathParams(1.0, 0.4, doas[0], dods[0]), second])
        J = channel_jacobian(ps, g_r, g_t)
        cases.append((J.dense(), fisher_factor(J, s), synthesize(ps, g_r, g_t).vector))
    D, R, h = cases[0]
    zeroed = R.copy()
    zeroed[:, 1] = 0.0
    cases.append((D, zeroed, h))
    for (D, R, h), flagged in zip(cases, (False, True, True)):
        ref = crb_trace(D, R, h)
        assert ref.ill_conditioned == flagged
        # the exponents of each column's nonzero entries, real and imaginary parts apart
        parts = np.concatenate((D.real, D.imag, R))
        e = [np.frexp(col[col != 0])[1] for col in parts.T]
        lo = np.array([max(-900, -1021 - c.min()) for c in e])
        hi = np.array([min(900, 1024 - c.max()) for c in e])
        assert (lo < -500).all() and (hi > 500).all()
        for _ in range(20):
            scale = np.ldexp(1.0, rng.integers(lo, hi + 1))
            assert crb_trace(D * scale, R * scale, h) == ref


def test_crb_trace_flags_non_positive_diagonal(rng):
    # a zero column of R is a zero diagonal entry of I = R^T R; fewer rows
    # than parameters leave I singular as well
    g_r, g_t = upa(2, 2), upa(2, 2)
    ps = PathSet([random_path(rng)])
    J = channel_jacobian(ps, g_r, g_t)
    D, R = J.dense(), fisher_factor(J, identity_setup(4, 4, 0.5))
    h = synthesize(ps, g_r, g_t).vector
    zero_column = R.copy()
    zero_column[:, 3] = 0.0
    for B in (zero_column, R[:5]):
        res = crb_trace(D, B, h)
        assert res.ill_conditioned and res.condition_number == math.inf
        assert 0.0 <= res.value < math.inf
    # the zero column's parameter drops out: the bound of the other five
    kept = [0, 1, 2, 4, 5]
    assert crb_trace(D, zero_column, h).value == pytest.approx(
        crb_trace(D[:, kept], R[:, kept], h).value, rel=1e-12)
    # with every column zero no parameter is left: this ended in an IndexError
    with pytest.raises(ValueError, match="no column of the factor R is nonzero"):
        crb_trace(D, np.zeros_like(R), h)


def whitened_derivative(D, s):
    """The tall real A with I = A^T A, column k from sqrt(2 / sigma2) Q_w^H D_k X."""
    cols = []
    for k in range(D.shape[1]):
        D_k = D[:, k].reshape(s.n_t, s.n_r).T   # D's rows are i + n_r j
        M = math.sqrt(2.0 / s.sigma2) * s.Q_w.conj().T @ D_k @ s.X
        cols.append(np.concatenate((M.real.ravel(), M.imag.ravel())))
    return np.array(cols).T


def identity_and_hybrid_setups(rng):
    W = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    X = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    return identity_setup(4, 6, 0.3), ObservationSetup(X, W, 0.3)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(arrays=st.tuples(*[st.sampled_from(["ula", "upa", "custom"])] * 2),
       log10_rho=st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 16))
def test_log2_column_norms_match_those_of_the_dense_jacobian(arrays, log10_rho, seed):
    # the annihilation check reads log2 ||D_k|| off the factors; the dense
    # D's column norms, each on its own power of two, are the reference, at
    # gains from 1e-300 to 1e300 and with the zero direction columns of one
    # antenna arrays
    rng = np.random.default_rng(seed)
    g_r, g_t = (small_array(kind, rng) for kind in arrays)
    ps = PathSet(PathParams(10.0 ** e, p.phi, p.doa, p.dod)
                 for e, p in zip(log10_rho, (random_path(rng) for _ in log10_rho)))
    J = channel_jacobian(ps, g_r, g_t)
    got, ref = J.log2_column_norms(), fim._log2_norms(J.dense())
    assert np.array_equal(got == -np.inf, ref == -np.inf)
    finite = ref > -np.inf
    assert np.abs(got[finite] - ref[finite]).max(initial=0.0) <= 1e-12


def test_fisher_factor_is_the_triangular_factor_of_the_whitened_derivative(rng):
    # R is assembled from the projected factors of J; the reference A is built
    # column by column from the dense D. R is unique up to the signs of its
    # rows, so its magnitudes must be those of the QR of A.
    g_r, g_t = upa(2, 3), upa(2, 2)
    doas, dods = separated_directions(rng, 3, 0.5), separated_directions(rng, 3, 0.5)
    ps = PathSet(PathParams(rng.uniform(0.5, 2), rng.uniform(0, 6), a, d)
                 for a, d in zip(doas, dods))
    J = channel_jacobian(ps, g_r, g_t)
    D = J.dense()
    h = synthesize(ps, g_r, g_t).vector
    dft = ObservationSetup(orthogonal_pilots(4, 4, 2.0, "dft"), np.eye(6), 0.3)
    for s in (*identity_and_hybrid_setups(rng), dft):
        R, A = fisher_factor(J, s), whitened_derivative(D, s)
        assert A.shape == (2 * s.n_c * s.n_s, 18) and R.shape == (18, 18)
        assert np.array_equal(R, np.triu(R))
        gram = A.T @ A
        assert np.linalg.norm(R.T @ R - gram) <= 1e-12 * np.linalg.norm(gram)
        ref = np.linalg.qr(A, mode="r")
        assert np.abs(np.abs(R) - np.abs(ref)).max() <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(fisher_matrix(J, s), R.T @ R)
        # the bound reads any real factor: the tall A gives R's bound
        from_R, from_A = crb_trace(D, R, h), crb_trace(D, A, h)
        assert from_R.value == pytest.approx(from_A.value, rel=1e-12)
        assert from_R.ill_conditioned == from_A.ill_conditioned
        assert from_R.condition_number == pytest.approx(from_A.condition_number, rel=1e-9)


def test_crb_report_blocks_and_coupling_mass_are_those_of_the_fisher_matrix(rng):
    g_r, g_t = upa(2, 3), upa(2, 2)
    doas, dods = separated_directions(rng, 3, 0.5), separated_directions(rng, 3, 0.5)
    ps = PathSet(PathParams(rng.uniform(0.5, 2), rng.uniform(0, 6), a, d)
                 for a, d in zip(doas, dods))
    J = channel_jacobian(ps, g_r, g_t)
    for s in identity_and_hybrid_setups(rng):
        report = crb_report(ps, g_r, g_t, s, include_blocks=True)
        I = fisher_matrix(J, s)
        mass = inter_path_coupling_mass(I)
        assert 0.0 < mass < 1.0
        assert report["inter_path_coupling_mass"] == pytest.approx(mass, rel=1e-13)
        blocks = np.array(report["per_path_blocks"])
        expected = np.array([I[6 * p: 6 * p + 6, 6 * p: 6 * p + 6] for p in range(len(ps))])
        assert np.abs(blocks - expected).max() <= 1e-13 * np.abs(expected).max()


def test_crb_trace_drops_a_round_off_singular_value(rng):
    # A factor that is rank-deficient up to rounding: one singular value of
    # 1e-13 or exactly 0 against the others in [1, 3]. Inverting 1e-13 would
    # make the bound about 1e26 larger; dropping it gives the bound of the
    # exactly rank-deficient factor, and that of its pseudo-inverse.
    k = 12
    U = orth(rng.normal(size=(40, k)))
    V = orth(rng.normal(size=(k, k)))
    D = rng.normal(size=(20, k)) + 1j * rng.normal(size=(20, k))
    h = rng.normal(size=20) + 1j * rng.normal(size=20)
    values = []
    for s0 in (1e-13, 0.0):
        sv = np.linspace(1.0, 3.0, k)
        sv[0] = s0
        A = (U * sv) @ V.T
        res = crb_trace(D, A, h)
        assert res.ill_conditioned and res.condition_number > 1e15
        assert 0.0 <= res.value < math.inf
        values.append(res.value)
    assert values[0] == pytest.approx(values[1], rel=1e-9)
    S = 1 / np.linalg.norm(A, axis=0)
    Ie_pinv = np.linalg.pinv(S[:, None] * (A.T @ A) * S, rcond=1e-10, hermitian=True)
    reference = np.trace(S[:, None] * Ie_pinv * S @ (D.conj().T @ D)).real / np.vdot(h, h).real
    assert values[1] == pytest.approx(reference, rel=1e-9)


def test_crb_trace_matches_a_50_digit_reference(rng):
    # a twin of the second path, both elevations eps away: equilibrated
    # condition numbers 1.2e8 to 2.3e11 under identity pilots and 1.0e8 to
    # 2.0e11 under 4 DFT pilots on the 6 transmit antennas (they grow as
    # eps^-4), all below the threshold. The reference inverts A^T A exactly
    # as given, at 50 digits; an equilibrated solve with the Fisher matrix
    # itself misses it by up to 2.6e-6 here.
    g_r, g_t = upa(2, 3), upa(3, 2)
    W = orth(rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5)))
    doas, dods = separated_directions(rng, 2, 0.6), separated_directions(rng, 2, 0.6)
    for X, eps in itertools.product((np.eye(6), orthogonal_pilots(6, 4, 1.0, "dft")),
                                    (1e-2, 3e-3, 1.5e-3)):
        s = ObservationSetup(X, W, 0.3)
        twin = PathParams(0.8, 2.0, Direction(doas[1].azimuth, doas[1].elevation + eps),
                          Direction(dods[1].azimuth, dods[1].elevation + eps))
        ps = PathSet([PathParams(1.0, 0.4, doas[0], dods[0]),
                      PathParams(1.3, 1.1, doas[1], dods[1]), twin])
        J = channel_jacobian(ps, g_r, g_t)
        D, A = J.dense(), fisher_factor(J, s)
        h = synthesize(ps, g_r, g_t).vector
        res = crb_trace(D, A, h)
        assert not res.ill_conditioned and 1e8 <= res.condition_number <= 3e11
        with mpmath.workdps(50):
            A_mp = mpmath.matrix(A.tolist())
            M = mpmath.matrix(np.concatenate((D.real, D.imag)).tolist())
            I_inv, G = mpmath.inverse(A_mp.T * A_mp), M.T * M
            bound = mpmath.fsum(I_inv[i, j] * G[j, i]
                                for i in range(G.rows) for j in range(G.cols))
            reference = float(bound / mpmath.fsum(abs(z) ** 2 for z in h.tolist()))
        assert abs(res.value - reference) <= 1e-10 * reference


@pytest.fixture(scope="module")
def forty_paths():
    """(ps, g_r, g_t, setups) of a 40-path bound of perfbench's make-up: 64 x 16
    UPAs, generate_paths' seed 7, identity observation and 32 DFT pilots with
    8 random combiners."""
    cfg = ScenarioConfig(n_t=64, n_r=16)
    g_t, g_r = cfg.geometries()
    c_rng = np.random.default_rng(2017)
    W = c_rng.normal(size=(16, 8)) + 1j * c_rng.normal(size=(16, 8))
    hybrid = ObservationSetup(orthogonal_pilots(64, 32, 1.0, "dft"), W, 0.1)
    return generate_paths(cfg, 7), g_r, g_t, (identity_setup(64, 16, 0.1), hybrid)


def random_triangular(rng, n, kappa):
    """The upper-triangular QR factor of an n x n matrix of condition number kappa."""
    Q1, Q2 = orth(rng.normal(size=(n, n))), orth(rng.normal(size=(n, n)))
    return np.linalg.qr((Q1 * np.geomspace(1.0, 1.0 / kappa, n)) @ Q2.T, mode="r")


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 128, 129, 240])
def test_triangular_inverse_by_halves(rng, forty_paths, n):
    # random factors of condition numbers 1e2 and 1e8 and the leading n x n
    # blocks of the equilibrated R S of a 40-path bound (condition numbers up
    # to 1.8e4), on either side of the 64 leaf and of its doubling. The
    # residual of an inverse from stable triangular solves and block
    # products is within c u ||X|| ||T|| = c u kappa(T); c = n holds with
    # room to spare (the largest ratio here is 0.15 n). The forward error
    # against the LU inverse of all of T is within the same n u kappa(T),
    # relative.
    u = np.finfo(float).eps / 2
    ps, g_r, g_t, setups = forty_paths
    J = channel_jacobian(ps, g_r, g_t)
    real = [exact_scale(fisher_factor(J, s), axis=0)[0] for s in setups]
    for T in [random_triangular(rng, n, kappa) for kappa in (1e2, 1e8)] + [
            (R / np.linalg.norm(R, axis=0))[:n, :n] for R in real]:
        X = fim._triangular_inverse(T)
        assert X.shape == (n, n) and not np.tril(X, -1).any()
        bound = n * u * np.linalg.cond(T)
        assert np.linalg.norm(X @ T - np.eye(n)) <= bound
        ref = np.linalg.inv(T)
        assert np.linalg.norm(X - ref) <= bound * np.linalg.norm(ref)


def counting_svd(monkeypatch):
    """Record compute_uv of every np.linalg.svd call from here on."""
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def full_svd_inverse_factor(R, k):
    """(B, cond) of the live columns R of a factor of k parameters, from one full
    SVD of R S: the route crb_trace takes where a sigma is cut, a column is
    dropped or R S is not square and triangular, written out as the reference."""
    S = 1.0 / np.linalg.norm(R, axis=0)
    _, sigma, Vt = np.linalg.svd(R * S, full_matrices=False)
    cond = float(sigma[0] / sigma[-1]) ** 2 if sigma.size == k and sigma[-1] > 0 else math.inf
    keep = sigma ** 2 > k * np.finfo(float).eps * sigma[0] ** 2
    B = S[:, None] * Vt[keep].T / sigma[keep]
    return B, cond


def test_a_well_conditioned_bound_takes_the_singular_values_alone(forty_paths, monkeypatch):
    # a 40-path report under identity and hybrid observation: one SVD, of
    # the singular values only, then the triangular inverse
    ps, g_r, g_t, setups = forty_paths
    calls = counting_svd(monkeypatch)
    for s in setups:
        calls.clear()
        report = crb_report(ps, g_r, g_t, s)
        assert not report["ill_conditioned"]
        assert calls == [False]


def test_a_cut_dropped_or_tall_factor_takes_the_full_svd(rng, monkeypatch):
    # the round-off-singular factor of test_crb_trace_drops_a_round_off_singular_value
    # (tall, and its square triangular factor), duplicate paths and a zeroed
    # column: the bound is exactly that of the full-SVD reference
    k = 12
    sv = np.linspace(1.0, 3.0, k)
    sv[0] = 1e-13
    A = (orth(rng.normal(size=(40, k))) * sv) @ orth(rng.normal(size=(k, k))).T
    D = rng.normal(size=(20, k)) + 1j * rng.normal(size=(20, k))
    h = rng.normal(size=20) + 1j * rng.normal(size=20)
    g_r, g_t = upa(2, 2), upa(2, 2)
    d_a, d_d = Direction(0.2, 0.3), Direction(-0.5, 0.1)
    twins = PathSet([PathParams(1.0, 0.1, d_a, d_d), PathParams(0.7, 1.0, d_a, d_d)])
    J = channel_jacobian(twins, g_r, g_t)
    R = fisher_factor(J, identity_setup(4, 4, 0.5))
    zeroed = R.copy()
    zeroed[:, 3] = 0.0
    h_twins = synthesize(twins, g_r, g_t).vector
    # (D, R, h, compute_uv of each SVD): a square triangular factor first
    # takes its singular values, which cut one
    cases = [(D, A, h, [True]), (D, np.linalg.qr(A, mode="r"), h, [False, True]),
             (J.dense(), R, h_twins, [False, True]), (J.dense(), zeroed, h_twins, [True])]
    calls = counting_svd(monkeypatch)
    for D, R, h, route in cases:
        calls.clear()
        got = crb_trace(D, R, h)
        assert calls == route
        assert got.ill_conditioned
        with monkeypatch.context() as m:
            m.setattr(fim, "_inverse_factor", full_svd_inverse_factor)
            assert got == crb_trace(D, R, h)


def test_the_triangular_inverse_and_the_full_svd_give_one_bound(rng):
    # R with a zero row appended, and Q R for an orthogonal Q, have the same
    # I = R^T R, but the one is not square and the other not triangular, so
    # crb_trace takes the full SVD for them. Both routes are backward stable
    # in R S, so they agree within k u kappa(R S), relative, with kappa(R S)^2
    # the reported condition number, for 12 paths (72 parameters, beyond
    # one leaf of the triangular inverse) on 64 x 16 UPAs with identity and
    # with hybrid observation
    u = np.finfo(float).eps / 2
    g_r, g_t = upa(4, 4), upa(8, 8)
    doas, dods = separated_directions(rng, 12, 0.3), separated_directions(rng, 12, 0.3)
    ps = PathSet(PathParams(rng.uniform(0.5, 2.0), rng.uniform(0, 6), a, d)
                 for a, d in zip(doas, dods))
    J, h = channel_jacobian(ps, g_r, g_t), synthesize(ps, g_r, g_t).vector
    W = rng.normal(size=(16, 8)) + 1j * rng.normal(size=(16, 8))
    for s in (identity_setup(64, 16, 0.1),
              ObservationSetup(orthogonal_pilots(64, 32, 1.0, "dft"), W, 0.1)):
        R, inverse = bound(J, s, h)
        k = R.shape[1]
        tol = k * u * math.sqrt(inverse.condition_number)
        assert not inverse.ill_conditioned
        for other in (np.vstack((R, np.zeros((1, k)))), orth(rng.normal(size=(k, k))) @ R):
            svd = crb_trace(J.dense(), other, h)
            assert not svd.ill_conditioned
            assert abs(inverse.value - svd.value) <= tol * svd.value
            assert abs(inverse.condition_number - svd.condition_number) <= (
                tol * svd.condition_number)


def test_crb_never_below_floor(rng):
    for _ in range(20):
        g_r, g_t = upa(2, 3), upa(3, 2)
        doas = separated_directions(rng, 2, 0.6)
        dods = separated_directions(rng, 2, 0.6)
        ps = PathSet(PathParams(rng.uniform(0.5, 2), rng.uniform(0, 6), a, d)
                     for a, d in zip(doas, dods))
        n_c = int(rng.integers(3, 7))
        W = orth(rng.normal(size=(6, n_c)) + 1j * rng.normal(size=(6, n_c)))
        s = ObservationSetup(np.eye(6), W, 0.3)
        h = synthesize(ps, g_r, g_t).vector
        _, res = bound(channel_jacobian(ps, g_r, g_t), s, h)
        if not res.ill_conditioned:
            assert res.value >= optimal_bound(2, snr(s, h)) - 1e-9


def test_optimal_bound_values():
    assert optimal_bound(10, 10.0) == 3.0
    assert optimal_bound(1, 3.0) == 1.0
    assert optimal_bound(8, 5.0) == 2.0 * optimal_bound(4, 5.0)
    with pytest.raises(ValueError):
        optimal_bound(0, 1.0)
    with pytest.raises(ValueError):
        optimal_bound(1, 0.0)


def dense_residual(D, s):
    """The reference ||(Id - P) D||_F / ||D||_F, through the projection of all of D."""
    return frobenius_norm(projection_apply(s, D) - D, "(Id - P) D") / frobenius_norm(D, "D")


def small_array(kind, rng):
    if kind == "ula":
        return ula(int(rng.integers(1, 6)), 0.5, str(rng.choice(["x", "y", "z"])))
    if kind == "upa":
        return upa(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
    return random_geometry(rng, int(rng.integers(1, 6)))


def random_complex(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(arrays=st.tuples(*[st.sampled_from(["ula", "upa", "custom"])] * 2),
       n_paths=st.integers(1, 4), duplicate=st.booleans(),
       pilots=st.sampled_from(["identity", "dft", "explicit"]),
       combiners=st.sampled_from(["identity", "explicit", "steering"]),
       seed=st.integers(0, 2 ** 16))
def test_optimal_observation_residual_matches_the_dense_projection(arrays, n_paths, duplicate,
                                                                   pilots, combiners, seed):
    # The factored residual against the projection of the whole Jacobian, for
    # orthogonal DFT pilots with n_s < n_t, non-orthogonal explicit pilots
    # (where X X^H / alpha2 is no projector) and rank-one combiners. A lossless
    # setup read through a non-identity basis leaves rounding noise on both
    # routes, hence the 1e-14 of ||D|| beside the 1e-12 relative.
    rng = np.random.default_rng(seed)
    g_r, g_t = (small_array(kind, rng) for kind in arrays)
    paths = [random_path(rng) for _ in range(n_paths)]
    ps = PathSet(paths + paths[:1] if duplicate else paths)
    n_r, n_t = g_r.n_antennas, g_t.n_antennas
    if pilots == "dft" and n_t > 1:
        X = orthogonal_pilots(n_t, int(rng.integers(1, n_t)), 1.5, "dft")
    elif pilots == "explicit":
        X = random_complex(rng, n_t, int(rng.integers(1, n_t + 3)))
    else:
        X = np.eye(n_t)
    if combiners == "explicit":
        W = random_complex(rng, n_r, int(rng.integers(1, n_r + 1)))
    elif combiners == "steering":
        W = steering_vector(g_r, ps[0].doa)[:, None]
    else:
        W = np.eye(n_r)
    s = ObservationSetup(X, W, 1.0)
    J = channel_jacobian(ps, g_r, g_t)
    r = check_optimal_observation(J, s)
    if pilots == combiners == "identity":
        assert r == 0.0
    ref = dense_residual(J.dense(), s)
    assert abs(r - ref) <= 1e-12 * ref + 1e-14


def test_optimal_observation_residual_identity(rng):
    g_r, g_t = upa(2, 2), upa(2, 3)
    ps = PathSet([random_path(rng)])
    s = identity_setup(6, 4, 1.0)
    assert check_optimal_observation(channel_jacobian(ps, g_r, g_t), s) == 0.0


def test_optimal_observation_residual_rank_one_combiner(rng):
    # W spanning only the true steering vector misses its derivatives
    g_r, g_t = upa(2, 2), upa(2, 2)
    p = random_path(rng)
    W = steering_vector(g_r, p.doa)[:, None]
    s = ObservationSetup(np.eye(4), W, 1.0)
    assert check_optimal_observation(channel_jacobian(PathSet([p]), g_r, g_t), s) > 0.1
    # and it holds at gains whose squares overflow (a NaN residual) or
    # underflow (0 / 0): the dense residual of D / 2^e is the reference
    for rho in (2.0 ** -600, 2.0 ** 600):
        ps = PathSet([PathParams(rho, p.phi, p.doa, p.dod)])
        J = channel_jacobian(ps, g_r, g_t)
        ref = dense_residual(exact_scale(J.dense())[0], s)
        assert abs(check_optimal_observation(J, s) - ref) <= 1e-12 * ref + 1e-14


def test_optimal_observation_residual_span_setup(rng):
    g_r, g_t = upa(2, 3), upa(3, 3)
    ps = PathSet(random_path(rng) for _ in range(2))
    s = ObservationSetup(span_pilots(ps, g_t), span_combiners(ps, g_r), 1.0)
    J = channel_jacobian(ps, g_r, g_t)
    assert check_optimal_observation(J, s) <= 1e-10
    # and the bound then reaches its floor
    h = synthesize(ps, g_r, g_t).vector
    _, res = bound(J, s, h)
    assert abs(res.value - optimal_bound(2, snr(s, h))) <= 1e-9 * res.value


def test_subspace_restriction_never_helps(rng):
    # projection ordering: any proper combiner subspace can only raise the bound
    g_r, g_t = upa(2, 3), upa(2, 2)
    doas = separated_directions(rng, 2, 0.6)
    dods = separated_directions(rng, 2, 0.6)
    ps = PathSet(PathParams(1.0, 0.0, a, d) for a, d in zip(doas, dods))
    J = channel_jacobian(ps, g_r, g_t)
    h = synthesize(ps, g_r, g_t).vector
    _, full = bound(J, identity_setup(4, 6, 0.5), h)
    assert not full.ill_conditioned
    for _ in range(5):
        W = orth(rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5)))
        _, restricted = bound(J, ObservationSetup(np.eye(4), W, 0.5), h)
        if not restricted.ill_conditioned:
            assert restricted.value >= full.value - 1e-9 * full.value


def test_isotropic_array_direction_independent_bound(rng):
    # three mutually orthogonal equal ULAs give A A^T = beta^2 * Id
    n = 4
    legs = [ula(n, 0.5, ax).scaled_positions for ax in ("x", "y", "z")]
    from mimolab.geometry import ArrayGeometry

    g_iso = ArrayGeometry(np.concatenate(legs, axis=1))
    A = g_iso.scaled_positions
    gram = A @ A.T
    beta2 = gram[0, 0]
    assert np.allclose(gram, beta2 * np.eye(3), atol=1e-10)
    s = identity_setup(4, 3 * n, 0.5)
    g_t = upa(2, 2)
    traces = []
    for _ in range(50):
        p = random_path(rng)
        block = intra_path_block(p, g_iso, g_t, 1.0, 0.5)
        doa_block = block[2:4, 2:4]
        expected = (2 * p.rho ** 2 / 0.5) * (beta2 / (3 * n)) * np.eye(2)
        assert np.allclose(doa_block, expected, atol=1e-8 * beta2)
        # normalize out the gain so the spread reflects direction only
        traces.append(np.trace(np.linalg.inv(doa_block / (2 * p.rho ** 2 / 0.5))))
    spread = (max(traces) - min(traces)) / abs(np.mean(traces))
    assert spread <= 1e-8


def test_inter_path_coupling_mass(rng):
    g_r, g_t = upa(2, 2), upa(2, 2)
    ps1 = PathSet([random_path(rng)])
    I1 = fisher_matrix(channel_jacobian(ps1, g_r, g_t), identity_setup(4, 4, 1.0))
    assert inter_path_coupling_mass(I1) == 0.0
    doas = separated_directions(rng, 2, 0.7)
    dods = separated_directions(rng, 2, 0.7)
    ps2 = PathSet(PathParams(1.0, 0.0, a, d) for a, d in zip(doas, dods))
    I2 = fisher_matrix(channel_jacobian(ps2, g_r, g_t), identity_setup(4, 4, 1.0))
    mass = inter_path_coupling_mass(I2)
    assert 0.0 <= mass < 1.0


def test_crb_report_contents(rng):
    g_r, g_t = upa(2, 2), upa(2, 3)
    doas = separated_directions(rng, 2, 0.6)
    dods = separated_directions(rng, 2, 0.6)
    ps = PathSet(PathParams(1.0, 0.5, a, d) for a, d in zip(doas, dods))
    s = identity_setup(6, 4, 0.2)
    report = crb_report(ps, g_r, g_t, s, include_blocks=True)
    assert report["n_p"] == 12
    assert report["crb_relative"] >= report["floor_3p_over_snr"] - 1e-9
    assert report["optimal_observation_residual"] <= 1e-12
    assert not report["ill_conditioned"]
    assert len(report["per_path_blocks"]) == 2
    assert len(report["per_path_blocks"][0]) == 6


def test_bound_does_not_depend_on_the_thread(rng):
    # 64 x 16 arrays: D has 1024 rows, so crb_trace sums 8 blocks; a seed's
    # bound runs alone on whichever thread runs the seed
    g_r, g_t = upa(4, 4), upa(8, 8)
    ps = PathSet(random_path(rng) for _ in range(6))
    J, h = channel_jacobian(ps, g_r, g_t), synthesize(ps, g_r, g_t).vector
    W = rng.normal(size=(16, 8)) + 1j * rng.normal(size=(16, 8))
    hybrid = ObservationSetup(orthogonal_pilots(64, 32, 1.0, "dft"), W, 0.1)
    for s in (identity_setup(64, 16, 0.1), hybrid):
        R, result = bound(J, s, h)
        with ThreadPoolExecutor(max_workers=1) as executor:
            for _ in range(3):
                R_worker, on_worker = executor.submit(bound, J, s, h).result()
                assert np.array_equal(R_worker, R) and on_worker == result


def test_bound_forms_the_dense_jacobian_after_the_factor_on_the_calling_thread(monkeypatch):
    # D and the factor's workspace are not held at once, and no other thread
    # takes part
    calls = []
    fisher_factor, dense = fim.fisher_factor, fim.Jacobian.dense

    def factor(J, s):
        calls.append(("factor", threading.get_ident()))
        return fisher_factor(J, s)

    def recording_dense(J):
        calls.append(("dense", threading.get_ident()))
        return dense(J)

    monkeypatch.setattr(fim, "fisher_factor", factor)
    monkeypatch.setattr(fim.Jacobian, "dense", recording_dense)
    g_r, g_t = upa(2, 2), upa(2, 3)
    ps = two_paths()
    bound(channel_jacobian(ps, g_r, g_t), identity_setup(6, 4, 1.0), synthesize(ps, g_r, g_t).vector)
    assert calls == [("factor", threading.get_ident()), ("dense", threading.get_ident())]


def test_crb_report_computes_the_steering_derivatives_once_per_array(monkeypatch):
    # the bound and the optimal-observation residual read the same factors
    calls = []
    derivatives = fim.steering_derivatives

    def counting(g, directions):
        calls.append(g.n_antennas)
        return derivatives(g, directions)

    monkeypatch.setattr(fim, "steering_derivatives", counting)
    crb_report(two_paths(), upa(2, 2), upa(2, 3), identity_setup(6, 4, 1.0))
    assert sorted(calls) == [4, 6]


def two_paths(rho=1.0):
    return PathSet([PathParams(rho, 0.3, Direction(0.5, -0.2), Direction(-1.0, 0.4)),
                    PathParams(rho, 1.1, Direction(-0.4, 0.3), Direction(0.6, -0.5))])


@pytest.mark.parametrize("sigma2", [1e-306, 1e-300, 1e-200, 1e200, 1e300, 1e307])
def test_crb_report_is_scale_free_in_the_noise_level(sigma2):
    # Lossless observation, so the bound is its floor at every noise level.
    # At 1e-300 the norm of the Fisher matrix overflowed (coupling mass NaN)
    # and below it the column norms of R in crb_trace (condition number inf).
    g_r, g_t = upa(2, 2), upa(8, 8)
    ref = crb_report(two_paths(), g_r, g_t, identity_setup(64, 4, 1.0),
                     include_blocks=True)
    report = crb_report(two_paths(), g_r, g_t, identity_setup(64, 4, sigma2),
                        include_blocks=True)
    assert not report["ill_conditioned"]
    assert report["crb_relative"] == pytest.approx(report["floor_3p_over_snr"], rel=1e-8)
    for key in ("condition_number", "inter_path_coupling_mass"):
        assert report[key] == pytest.approx(ref[key], rel=1e-12)
    blocks = np.array(report["per_path_blocks"])
    assert np.isfinite(blocks).all()
    ref_blocks = np.array(ref["per_path_blocks"])
    assert np.abs(blocks * sigma2 - ref_blocks).max() <= 1e-12 * np.abs(ref_blocks).max()


@pytest.mark.parametrize("X, W", [
    (np.eye(4), np.eye(6)),   # X and W swapped: n_r n_t is 24 either way
    (np.eye(5), np.eye(4)),   # X one row short of the transmit array
])
def test_a_setup_that_does_not_fit_the_arrays_raises(X, W):
    ps, g_r, g_t = PathSet([two_paths()[0]]), upa(2, 2), upa(2, 3)
    s = ObservationSetup(X, W, 1.0)
    rows = f"pilot matrix X has {X.shape[0]} rows, but the transmit array has 6 antennas"
    J = channel_jacobian(ps, g_r, g_t)
    for call in (lambda: crb_report(ps, g_r, g_t, s), lambda: check_optimal_observation(J, s),
                 lambda: fisher_factor(J, s)):
        with pytest.raises(ValueError, match=rows):
            call()


@pytest.mark.parametrize("snr_linear", [math.nan, math.inf, "x", None, True, 0.0, -1.0])
def test_optimal_bound_rejects_an_snr_that_is_not_a_positive_finite_number(snr_linear):
    # NaN returned NaN, and a string raised TypeError
    with pytest.raises(ValueError, match="SNR must be a positive finite number"):
        optimal_bound(1, snr_linear)


def test_fisher_factor_rejects_a_jacobian_of_the_wrong_length():
    J = channel_jacobian(two_paths(), upa(2, 2), upa(2, 3))
    with pytest.raises(ValueError, match="pilot matrix X has 5 rows, but the transmit array has 6"):
        fisher_factor(J, identity_setup(5, 4, 1.0))


@pytest.mark.parametrize("sigma2", [0.0, 5e-324, 1e-320, 1e-309])
def test_fisher_factor_rejects_a_noise_level_whose_information_overflows(sigma2):
    # 2 / sigma2 overflowed to inf: a RuntimeWarning, then SVD did not converge
    J = channel_jacobian(two_paths(), upa(2, 2), upa(2, 2))
    with pytest.raises(ValueError, match=f"noiseless setup, sigma2 = {sigma2}"):
        fisher_factor(J, identity_setup(4, 4, sigma2))


@pytest.mark.parametrize("rho, sigma2, include_blocks, message", [
    (1.0, 1e-307, True, "per-path blocks exceed the largest float"),
    (3.0, 2e-308, False, "SNR exceeds the largest float"),
])
def test_crb_report_rejects_values_beyond_the_floats(rho, sigma2, include_blocks, message):
    g_r, g_t = upa(2, 2), upa(8, 8)
    with pytest.raises(ValueError, match=message):
        crb_report(two_paths(rho), g_r, g_t, identity_setup(64, 4, sigma2),
                   include_blocks=include_blocks)
    if include_blocks:   # the rest of the report is representable
        crb_report(two_paths(rho), g_r, g_t, identity_setup(64, 4, sigma2))


def test_crb_trace_rejects_a_bound_beyond_the_floats():
    # a weak path under loud noise: 3 P / SNR is above the largest float
    ps = PathSet([PathParams(1e-7, 0.3, Direction(0.5, -0.2), Direction(-1.0, 0.4))])
    g_r, g_t = upa(2, 2), upa(2, 2)
    J = channel_jacobian(ps, g_r, g_t)
    with pytest.raises(ValueError, match="the bound exceeds the largest float"):
        crb_trace(J.dense(), fisher_factor(J, identity_setup(4, 4, 1e300)),
                  synthesize(ps, g_r, g_t).vector)
    # an information of 1e-600 on the second parameter makes the sum of squares
    # inf where numpy's overflow is silent, and math.ldexp(inf, n) returns inf
    D, R = np.ones((1, 2), dtype=complex), np.diag([1.0, 1e-300])
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="the bound exceeds the largest float"):
            crb_trace(D, R, np.ones(1))
