import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import orth

from mimolab.channel import PathParams, PathSet, steering_vector, synthesize
from mimolab.fim import (channel_jacobian, check_optimal_observation, crb_report,
                         crb_trace, fim_block, fisher_factor, fisher_matrix,
                         intra_path_block, inter_path_coupling_mass, optimal_bound)
from mimolab.geometry import Direction, ula, upa
from mimolab.observation import ObservationSetup, identity_setup, snr, span_combiners, span_pilots

from conftest import (fd_jacobian, random_geometry, random_path,
                      separated_directions)


def test_jacobian_phase_column_definitional(rng):
    g_r, g_t = random_geometry(rng, 4), random_geometry(rng, 5)
    ps = PathSet([random_path(rng)])
    D = channel_jacobian(ps, g_r, g_t)
    e_r = steering_vector(g_r, ps[0].doa)
    e_t = steering_vector(g_t, ps[0].dod)
    h_p = ps[0].gain * np.kron(e_t.conj(), e_r)
    assert np.array_equal(D[:, 1], 1j * h_p)
    assert np.allclose(D[:, 1], 1j * synthesize(ps, g_r, g_t).vector, rtol=0, atol=1e-15)
    assert np.allclose(D[:, 0], h_p / ps[0].rho)


def test_jacobian_single_antennas_have_zero_direction_columns(rng):
    ps = PathSet([random_path(rng)])
    D = channel_jacobian(ps, ula(1), ula(1))
    assert np.all(D[:, 2:] == 0.0)


def test_jacobian_matches_finite_differences(rng):
    for _ in range(20):
        g_r = random_geometry(rng, int(rng.integers(2, 7)))
        g_t = random_geometry(rng, int(rng.integers(2, 7)))
        ps = PathSet(random_path(rng) for _ in range(int(rng.integers(1, 4))))
        D = channel_jacobian(ps, g_r, g_t)
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
    D = channel_jacobian(ps, g_r, g_t)
    I1 = fisher_matrix(D, identity_setup(4, 4, 0.5))
    I2 = fisher_matrix(D, identity_setup(4, 4, 0.1))
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
    D = channel_jacobian(ps, g_r, g_t)
    h = synthesize(ps, g_r, g_t).vector
    res = crb_trace(D, fisher_factor(D, s), h)
    floor = optimal_bound(3, snr(s, h))
    assert not res.ill_conditioned
    assert abs(res.value - floor) <= 1e-9 * floor


def test_crb_trace_flags_duplicate_paths(rng):
    g_r, g_t = upa(2, 2), upa(2, 2)
    d_a, d_d = Direction(0.2, 0.3), Direction(-0.5, 0.1)
    ps = PathSet([PathParams(1.0, 0.1, d_a, d_d), PathParams(0.7, 1.0, d_a, d_d)])
    s = identity_setup(4, 4, 0.5)
    D = channel_jacobian(ps, g_r, g_t)
    res = crb_trace(D, fisher_factor(D, s), synthesize(ps, g_r, g_t).vector)
    assert res.ill_conditioned
    assert res.condition_number > 1e12
    assert math.isfinite(res.value)  # pseudo-inverse value still reported


def test_crb_condition_number_free_of_gain_scale(rng):
    # the raw Fisher matrix of one path scales its gain rows by 1/rho^2
    g_r, g_t = upa(2, 2), upa(2, 3)
    results = []
    for rho in (1.0, 1e-7, 1e5):
        ps = PathSet([PathParams(rho, 0.4, Direction(0.3, -0.2), Direction(-0.6, 0.5))])
        D = channel_jacobian(ps, g_r, g_t)
        h = synthesize(ps, g_r, g_t).vector
        s = identity_setup(6, 4, 0.5)
        res = crb_trace(D, fisher_factor(D, s), h)
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
    D = channel_jacobian(ps, g_r, g_t)
    s = ObservationSetup(np.eye(6), W, 0.3)
    A, I = fisher_factor(D, s), fisher_matrix(D, s)
    h = synthesize(ps, g_r, g_t).vector
    res = crb_trace(D, A, h)
    direct = np.trace(np.linalg.solve(I, D.conj().T @ D)).real / np.vdot(h, h).real
    assert not res.ill_conditioned
    assert abs(res.value - direct) <= 1e-10 * direct
    S = np.diag(1 / np.sqrt(np.diag(I)))
    w = np.linalg.eigvalsh(S @ I @ S)
    assert res.condition_number == pytest.approx(w[-1] / w[0], rel=1e-10)
    assert crb_trace(D, A, h, cond_threshold=0.5 * res.condition_number).ill_conditioned


def test_crb_trace_flags_non_positive_diagonal(rng):
    # a zero column of A is a zero diagonal entry of I = A^T A; fewer rows
    # than parameters leave I singular as well
    g_r, g_t = upa(2, 2), upa(2, 2)
    ps = PathSet([random_path(rng)])
    D = channel_jacobian(ps, g_r, g_t)
    A = fisher_factor(D, identity_setup(4, 4, 0.5))
    h = synthesize(ps, g_r, g_t).vector
    zero_column = A.copy(order="F")
    zero_column[:, 3] = 0.0
    for B in (zero_column, A[:5]):
        res = crb_trace(D, B, h)
        assert res.ill_conditioned and res.condition_number == math.inf
        assert 0.0 <= res.value < math.inf
    # the zero column's parameter drops out: the bound of the other five
    kept = [0, 1, 2, 4, 5]
    assert crb_trace(D, zero_column, h).value == pytest.approx(
        crb_trace(D[:, kept], A[:, kept], h).value, rel=1e-12)


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
    # condition numbers 1.2e8 to 2.3e11 (they grow as eps^-4), all below the
    # threshold. The reference inverts A^T A exactly as given, at 50 digits;
    # an equilibrated solve with the Fisher matrix itself misses it by up to
    # 2.6e-6 here.
    g_r, g_t = upa(2, 3), upa(3, 2)
    W = orth(rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5)))
    s = ObservationSetup(np.eye(6), W, 0.3)
    doas, dods = separated_directions(rng, 2, 0.6), separated_directions(rng, 2, 0.6)
    for eps in (1e-2, 3e-3, 1.5e-3):
        twin = PathParams(0.8, 2.0, Direction(doas[1].azimuth, doas[1].elevation + eps),
                          Direction(dods[1].azimuth, dods[1].elevation + eps))
        ps = PathSet([PathParams(1.0, 0.4, doas[0], dods[0]),
                      PathParams(1.3, 1.1, doas[1], dods[1]), twin])
        D = channel_jacobian(ps, g_r, g_t)
        A = fisher_factor(D, s)
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
        D = channel_jacobian(ps, g_r, g_t)
        h = synthesize(ps, g_r, g_t).vector
        res = crb_trace(D, fisher_factor(D, s), h)
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


def test_optimal_observation_residual_identity(rng):
    g_r, g_t = upa(2, 2), upa(2, 3)
    ps = PathSet([random_path(rng)])
    D = channel_jacobian(ps, g_r, g_t)
    assert check_optimal_observation(D, identity_setup(6, 4, 1.0)) == 0.0


def test_optimal_observation_residual_rank_one_combiner(rng):
    # W spanning only the true steering vector misses its derivatives
    g_r, g_t = upa(2, 2), upa(2, 2)
    p = random_path(rng)
    ps = PathSet([p])
    W = steering_vector(g_r, p.doa)[:, None]
    s = ObservationSetup(np.eye(4), W, 1.0)
    D = channel_jacobian(ps, g_r, g_t)
    assert check_optimal_observation(D, s) > 0.1


def test_optimal_observation_residual_span_setup(rng):
    g_r, g_t = upa(2, 3), upa(3, 3)
    ps = PathSet(random_path(rng) for _ in range(2))
    s = ObservationSetup(span_pilots(ps, g_t), span_combiners(ps, g_r), 1.0)
    D = channel_jacobian(ps, g_r, g_t)
    assert check_optimal_observation(D, s) <= 1e-10
    # and the bound then reaches its floor
    h = synthesize(ps, g_r, g_t).vector
    res = crb_trace(D, fisher_factor(D, s), h)
    assert abs(res.value - optimal_bound(2, snr(s, h))) <= 1e-9 * res.value


def test_subspace_restriction_never_helps(rng):
    # projection ordering: any proper combiner subspace can only raise the bound
    g_r, g_t = upa(2, 3), upa(2, 2)
    doas = separated_directions(rng, 2, 0.6)
    dods = separated_directions(rng, 2, 0.6)
    ps = PathSet(PathParams(1.0, 0.0, a, d) for a, d in zip(doas, dods))
    D = channel_jacobian(ps, g_r, g_t)
    h = synthesize(ps, g_r, g_t).vector
    s_full = identity_setup(4, 6, 0.5)
    full = crb_trace(D, fisher_factor(D, s_full), h)
    assert not full.ill_conditioned
    for _ in range(5):
        W = orth(rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5)))
        restricted = crb_trace(D, fisher_factor(D, ObservationSetup(np.eye(4), W, 0.5)), h)
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


def test_fim_block_indexing(rng):
    g_r, g_t = upa(2, 2), upa(2, 2)
    ps = PathSet(random_path(rng) for _ in range(2))
    I = fisher_matrix(channel_jacobian(ps, g_r, g_t), identity_setup(4, 4, 1.0))
    assert fim_block(I, 0, 0).shape == (6, 6)
    assert np.array_equal(fim_block(I, 1, 0), I[6:12, 0:6])


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


@pytest.mark.parametrize("sigma2", [0.0, 5e-324, 1e-320, 1e-309])
def test_fisher_factor_rejects_a_noise_level_whose_information_overflows(sigma2):
    # 2 / sigma2 overflowed to inf: a RuntimeWarning, then SVD did not converge
    D = channel_jacobian(two_paths(), upa(2, 2), upa(2, 2))
    with pytest.raises(ValueError, match=f"noiseless setup, sigma2 = {sigma2}"):
        fisher_factor(D, identity_setup(4, 4, sigma2))


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
    D = channel_jacobian(ps, g_r, g_t)
    with pytest.raises(ValueError, match="the bound exceeds the largest float"):
        crb_trace(D, fisher_factor(D, identity_setup(4, 4, 1e300)), synthesize(ps, g_r, g_t).vector)


def test_crb_rejects_bad_cond_threshold(rng):
    g_r, g_t = upa(2, 2), upa(2, 3)
    ps = PathSet([PathParams(1.0, 0.4, Direction(0.3, -0.2), Direction(-0.6, 0.5))])
    s = identity_setup(6, 4, 0.5)
    D = channel_jacobian(ps, g_r, g_t)
    A, h = fisher_factor(D, s), synthesize(ps, g_r, g_t).vector
    for value in (math.nan, -1.0, 0.5, math.inf, True, "1e12", None):
        with pytest.raises(ValueError, match="cond_threshold"):
            crb_trace(D, A, h, cond_threshold=value)
        with pytest.raises(ValueError, match="cond_threshold"):
            crb_report(ps, g_r, g_t, s, cond_threshold=value)
    assert crb_trace(D, A, h, cond_threshold=np.float64(1e12)) == crb_trace(D, A, h)
