"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The full-scale
benchmark comparison (criterion 6) is the slowest; the whole file takes a
few seconds (about 3 s on 2 vCPUs).
"""

import math
import time

import numpy as np
import pytest

from mimolab.bench import ScenarioConfig, monte_carlo
from mimolab.channel import PathParams, PathSet, synthesize
from mimolab.estimation import (DirectionGrid, build_dictionaries, hemisphere_directions,
                                joint_select, matching_pursuit, sequential_select)
from mimolab.fim import bound, channel_jacobian, fisher_matrix, intra_path_block, optimal_bound
from mimolab.channel import merge_paths
from mimolab.geometry import Direction, upa
from mimolab.observation import identity_setup, observe, projection_matrix, snr, orthogonal_pilots, ObservationSetup

from conftest import (fd_jacobian, random_geometry, random_path,
                      separated_directions)


def _verdict(number: int, description: str, ok: bool):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def benchmark_rows():
    cfg = ScenarioConfig(n_t=64, n_r=16, trials=20, base_seed=0)
    assert cfg.m == cfg.n == 2500
    assert cfg.P_budgets == (5, 10, 20)
    assert cfg.physical_paths == 40
    assert cfg.snr_db == 10.0
    return monte_carlo(cfg, threads=2)


def test_criterion_1_crb_floor_equality():
    rng = np.random.default_rng(101)
    g_t, g_r = upa(4, 4), upa(2, 4)  # n_t = 16, n_r = 8
    s = identity_setup(16, 8, 0.3)
    start = time.perf_counter()
    worst = 0.0
    for P in (1, 4, 10):
        doas = separated_directions(rng, P, 0.45)
        dods = separated_directions(rng, P, 0.45)
        ps = PathSet(PathParams(rng.uniform(0.5, 1.5), rng.uniform(0, 2 * math.pi), a, d)
                     for a, d in zip(doas, dods))
        h = synthesize(ps, g_r, g_t).vector
        _, res = bound(channel_jacobian(ps, g_r, g_t), s, h)
        floor = optimal_bound(P, snr(s, h))
        assert not res.ill_conditioned
        worst = max(worst, abs(res.value - floor) / floor)
    elapsed = time.perf_counter() - start
    _verdict(1, f"identity-observation bound equals 3P/SNR "
                f"(worst rel err {worst:.2e}, {elapsed:.2f}s)",
             worst <= 1e-9 and elapsed < 1.0)


def test_criterion_2_closed_form_vs_numeric_fim():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        g_r = random_geometry(rng, int(rng.integers(2, 9)))
        g_t = random_geometry(rng, int(rng.integers(2, 9)))
        p = random_path(rng)
        sigma2 = float(rng.uniform(0.05, 2.0))
        s = identity_setup(g_t.n_antennas, g_r.n_antennas, sigma2)
        generic = fisher_matrix(channel_jacobian(PathSet([p]), g_r, g_t), s)
        closed = intra_path_block(p, g_r, g_t, s.alpha2, sigma2)
        worst = max(worst, np.linalg.norm(generic - closed) / np.linalg.norm(closed))
    _verdict(2, f"closed-form intra-path block matches numeric FIM on 200 "
                f"single-path scenarios (worst rel err {worst:.2e})", worst <= 1e-10)


def test_criterion_3_jacobian_vs_finite_differences():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        g_r = random_geometry(rng, int(rng.integers(2, 7)))
        g_t = random_geometry(rng, int(rng.integers(2, 7)))
        ps = PathSet(random_path(rng) for _ in range(int(rng.integers(1, 4))))
        D = channel_jacobian(ps, g_r, g_t).dense()
        FD = fd_jacobian(ps, g_r, g_t, step=1e-6)
        for k in range(D.shape[1]):
            scale = max(np.linalg.norm(D[:, k]), 1e-9)
            worst = max(worst, np.linalg.norm(D[:, k] - FD[:, k]) / scale)
    _verdict(3, f"analytic Jacobian columns match central finite differences "
                f"on 100 scenarios (worst rel err {worst:.2e})", worst <= 1e-5)


def test_criterion_4_parameter_orthogonality():
    rng = np.random.default_rng(404)
    worst = 0.0
    groups = (slice(0, 2), slice(2, 4), slice(4, 6))
    for _ in range(50):
        g_r = random_geometry(rng, int(rng.integers(2, 12)), scale=rng.uniform(0.3, 3.0))
        g_t = random_geometry(rng, int(rng.integers(2, 12)), scale=rng.uniform(0.3, 3.0))
        p = random_path(rng)
        s = identity_setup(g_t.n_antennas, g_r.n_antennas, 0.4)
        I = fisher_matrix(channel_jacobian(PathSet([p]), g_r, g_t), s)
        bound = I.diagonal().max()
        for a in range(3):
            for b in range(3):
                if a != b:
                    worst = max(worst, np.abs(I[groups[a], groups[b]]).max() / bound)
    _verdict(4, f"gain/DoA/DoD groups uncoupled for arbitrary centered arrays "
                f"(worst coupling {worst:.2e} x max diagonal)", worst <= 1e-12)


def test_criterion_5_complexity_counters(benchmark_rows):
    rows = {(r.strategy, r.P_budget): r for r in benchmark_rows}
    ok = True
    for P in (5, 10, 20):
        ok = ok and rows[("joint", P)].mean_score_evals == 2500 * 2500 * P
        ok = ok and rows[("sequential", P)].mean_score_evals == (2500 + 2500) * P
        ratio = rows[("joint", P)].mean_score_evals / rows[("sequential", P)].mean_score_evals
        ok = ok and ratio == 1250.0
    _verdict(5, "joint/sequential score counters are exactly m*n*P and (m+n)*P "
                "with ratio 1250 at m=n=2500", ok)


def test_criterion_6_full_scale_benchmark(benchmark_rows):
    joint = {r.P_budget: r for r in benchmark_rows if r.strategy == "joint"}
    seq = {r.P_budget: r for r in benchmark_rows if r.strategy == "sequential"}
    decreasing = (joint[5].mean_rmse > joint[10].mean_rmse > joint[20].mean_rmse
                  and seq[5].mean_rmse > seq[10].mean_rmse > seq[20].mean_rmse)
    ratios = {P: seq[P].mean_rmse / joint[P].mean_rmse for P in (5, 10, 20)}
    accuracy_close = all(r <= 1.5 for r in ratios.values())
    speedup = joint[20].mean_wall_time_s / seq[20].mean_wall_time_s
    details = (f"joint rMSE {joint[5].mean_rmse:.4f}/{joint[10].mean_rmse:.4f}/"
               f"{joint[20].mean_rmse:.4f}, sequential "
               f"{seq[5].mean_rmse:.4f}/{seq[10].mean_rmse:.4f}/{seq[20].mean_rmse:.4f}, "
               f"rMSE ratios {ratios[5]:.3f}/{ratios[10]:.3f}/{ratios[20]:.3f}, "
               f"speedup at P=20 {speedup:.1f}x")
    _verdict(6, f"benchmark comparison: rMSE decreases with P, sequential within "
                f"1.5x joint, sequential >= 5x faster ({details})",
             decreasing and accuracy_close and speedup >= 5.0)


def test_criterion_7_exact_recovery_limit():
    grid = DirectionGrid.product(400, 400)
    g_r, g_t = upa(4, 4), upa(8, 8)
    true_i, true_j = 123, 321
    dirs = hemisphere_directions(20, 20)
    p = PathParams(0.9, 2.2, dirs[true_i], dirs[true_j])
    H = synthesize(PathSet([p]), g_r, g_t)
    s = identity_setup(64, 16, 0.0)
    Y = observe(H, s, 0)
    d = build_dictionaries(grid, s, g_r, g_t)
    sel_j = joint_select(Y, d)
    sel_s = sequential_select(Y, d)
    pairs_ok = ((sel_j.doa_index, sel_j.dod_index) == (true_i, true_j)
                and (sel_s.doa_index, sel_s.dod_index) == (true_i, true_j))
    rmse_j = matching_pursuit(Y, d, 1, "joint").reading(1, H, g_r, g_t).rmse
    rmse_s = matching_pursuit(Y, d, 1, "sequential").reading(1, H, g_r, g_t).rmse
    _verdict(7, f"noiseless on-grid path recovered exactly by both strategies "
                f"(rMSE {rmse_j:.2e}/{rmse_s:.2e})",
             pairs_ok and rmse_j <= 1e-10 and rmse_s <= 1e-10)


def test_criterion_8_projection_identities():
    rng = np.random.default_rng(808)
    worst_idem, worst_herm = 0.0, 0.0
    for _ in range(25):
        n_t, n_r = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        n_s, n_c = int(rng.integers(1, n_t + 1)), int(rng.integers(1, n_r + 1))
        X = orthogonal_pilots(n_t, n_s, alpha=float(rng.uniform(0.5, 2.0)),
                              basis=("identity", "dft")[int(rng.integers(2))])
        W = rng.normal(size=(n_r, n_c)) + 1j * rng.normal(size=(n_r, n_c))
        P = projection_matrix(ObservationSetup(X, W, 1.0))
        worst_idem = max(worst_idem, np.linalg.norm(P @ P - P))
        worst_herm = max(worst_herm, np.linalg.norm(P - P.conj().T))
    _verdict(8, f"orthogonal-pilot projection is Hermitian idempotent "
                f"(||P^2-P|| {worst_idem:.2e}, ||P-P^H|| {worst_herm:.2e})",
             worst_idem <= 1e-10 and worst_herm <= 1e-12)


def test_criterion_9_identifiability_failure_and_merge():
    g_r, g_t = upa(2, 4), upa(4, 4)
    d_a, d_d = Direction(0.4, -0.2), Direction(-0.8, 0.5)
    p = PathParams(1.0, 0.3, d_a, d_d)
    q = PathParams(0.6, 1.7, d_a, d_d)
    s = identity_setup(16, 8, 0.2)
    ps = PathSet([p, q])
    _, res_dup = bound(channel_jacobian(ps, g_r, g_t), s, synthesize(ps, g_r, g_t).vector)
    merged = PathSet([merge_paths([p, q])])
    _, res_merged = bound(channel_jacobian(merged, g_r, g_t), s,
                          synthesize(merged, g_r, g_t).vector)
    _verdict(9, f"coincident paths flagged (cond {res_dup.condition_number:.2e}), "
                f"virtual-path merge restores conditioning "
                f"(cond {res_merged.condition_number:.2e})",
             res_dup.ill_conditioned and res_dup.condition_number > 1e12
             and not res_merged.ill_conditioned
             and res_merged.condition_number < 1e6)
