"""Tests of the benchmark's own checks: each must reject a corrupted output.

    python3 -m pytest perfbench
"""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference as ref  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from mimolab import bench, channel, estimation, fim, geometry  # noqa: E402
from mimolab.observation import identity_setup  # noqa: E402

SNR_AGG = 10.0 * wl.N_R * wl.N_T
BUDGETS = (5, 10, 20)


def good_table():
    rows = []
    for p in BUDGETS:
        for s, per_pick, rmse in (("joint", wl.M * wl.N, 0.5 / p), ("sequential", wl.M + wl.N, 0.6 / p)):
            rows.append(bench.BenchRow(s, p, rmse, 0.1, float(per_pick * p), 3.0 * p / SNR_AGG,
                                       3.0 * wl.N_PATHS / SNR_AGG, 0, 1))
    return rows


def table_problems(rows):
    return wl.check_table(rows, BUDGETS, ("joint", "sequential"), 1, SNR_AGG, 1e-8)


def corrupt(rows, index, **changes):
    rows = list(rows)
    rows[index] = dataclasses.replace(rows[index], **changes)
    return rows


def test_table_accepts_a_consistent_table():
    assert table_problems(good_table()) == []


@pytest.mark.parametrize("index, changes", [
    (4, {"mean_rmse": 0.5 / 5}),                 # joint P=20 no better than P=5
    (1, {"mean_rmse": float("nan")}),
    (0, {"mean_score_evals": wl.M * wl.N * 5 + 1.0}),
    (3, {"mean_score_evals": 2.0 * (wl.M + wl.N) * 10}),
    (2, {"crb_floor": 3.0 * 11 / SNR_AGG}),
    (5, {"mean_true_crb": 3.0 * wl.N_PATHS / SNR_AGG * (1 + 1e-6)}),
    (0, {"trials": 2}),
])
def test_table_rejects_a_corrupted_cell(index, changes):
    assert table_problems(corrupt(good_table(), index, **changes))


def test_table_accepts_a_rise_between_intermediate_budgets():
    assert table_problems(corrupt(good_table(), 4, mean_rmse=0.5 / 9)) == []


def test_table_rejects_a_missing_row():
    assert table_problems(good_table()[:-1])


# -- estimate ------------------------------------------------------------------

POS_R, POS_T = ref.square_upa_positions(wl.N_R), ref.square_upa_positions(wl.N_T)


def estimate_case(noiseless=False):
    rng = np.random.default_rng(5)
    if noiseless:
        true = [{"rho": 1.3, "phi": 0.4, "doa": wl.grid_centre(rng), "dod": wl.grid_centre(rng)}]
        est, P = [dict(true[0])], 1
    else:
        true = wl.clustered_paths(rng)
        est, P = [dict(p, rho=p["rho"] * 0.9) for p in true[:20]], 20
    rmse = ref.relative_error(ref.synthesize(true, POS_R, POS_T), ref.synthesize(est, POS_R, POS_T))
    payload = {"strategy": "sequential", "P": P, "rmse": rmse, "wall_time_s": 0.01,
               "score_evals": (wl.M + wl.N) * P, "estimated_paths": est}
    csv_row = {k: str(payload[k]) for k in ("strategy", "P", "rmse", "wall_time_s", "score_evals")}
    return payload, [csv_row], true, P, noiseless


@pytest.mark.parametrize("noiseless", [False, True])
def test_estimate_accepts_consistent_output(noiseless):
    payload, rows, true, P, nl = estimate_case(noiseless)
    assert wl.check_estimate(payload, rows, true, P, nl, POS_R, POS_T) == []


@pytest.mark.parametrize("corruption", ["rmse", "score_evals", "csv", "path", "noiseless"])
def test_estimate_rejects_corrupted_output(corruption):
    payload, rows, true, P, noiseless = estimate_case(corruption == "noiseless")
    if corruption == "rmse":
        payload["rmse"] *= 1 + 1e-7
    elif corruption == "score_evals":
        payload["score_evals"] += 1
    elif corruption == "csv":
        rows[0]["wall_time_s"] = "0.02"
    elif corruption == "path":
        payload["estimated_paths"][0] = dict(payload["estimated_paths"][0], phi=1.0)
    else:
        payload["estimated_paths"][0] = dict(payload["estimated_paths"][0], rho=1.2)
        payload["rmse"] = ref.relative_error(
            ref.synthesize(true, POS_R, POS_T),
            ref.synthesize(payload["estimated_paths"], POS_R, POS_T))
    assert wl.check_estimate(payload, rows, true, P, noiseless, POS_R, POS_T)


# -- crb -----------------------------------------------------------------------

def crb_report(kind, **changes):
    snr = 1000.0
    floor = 3.0 * wl.N_PATHS / snr
    report = {"n_p": 6 * wl.N_PATHS, "snr": snr, "floor_3p_over_snr": floor,
              "crb_relative": floor if kind == "identity" else 1.7 * floor,
              "optimal_observation_residual": 1e-15 if kind == "identity" else 0.4,
              "ill_conditioned": False}
    report.update(changes)
    return report


@pytest.mark.parametrize("kind", ["identity", "hybrid"])
def test_crb_accepts_consistent_reports(kind):
    assert wl.check_crb(crb_report(kind), kind, wl.N_PATHS, 1000.0, 1e-8) == []


@pytest.mark.parametrize("kind, changes", [
    ("identity", {"crb_relative": 0.12 * (1 + 1e-6)}),
    ("identity", {"optimal_observation_residual": 1e-8}),
    ("identity", {"snr": 1000.0 * (1 + 1e-9)}),
    ("identity", {"n_p": 6 * wl.N_PATHS - 6}),
    ("hybrid", {"crb_relative": 0.12 * 0.99}),
    ("hybrid", {"floor_3p_over_snr": 0.13}),
    ("hybrid", {"crb_relative": float("inf")}),
])
def test_crb_rejects_corrupted_reports(kind, changes):
    assert wl.check_crb(crb_report(kind, **changes), kind, wl.N_PATHS, 1000.0, 1e-8)


def test_table_skips_the_theorem_for_flagged_trials_only():
    off = 3.0 * wl.N_PATHS / SNR_AGG * (1 + 1e-6)
    assert table_problems(corrupt(good_table(), 5, mean_true_crb=off, ill_conditioned_trials=1)) == []
    assert table_problems(corrupt(good_table(), 5, mean_true_crb=off, ill_conditioned_trials=0))


def test_crb_theorem_tolerance_follows_the_attainable_accuracy():
    report = crb_report("identity", crb_relative=0.12 * (1 + 1e-6))
    assert wl.check_crb(report, "identity", wl.N_PATHS, 1000.0, ref.attainable_accuracy(1e11)) == []
    assert wl.check_crb(report, "identity", wl.N_PATHS, 1000.0, ref.attainable_accuracy(1e3))


def test_crb_lets_a_flagged_hybrid_report_sit_below_the_floor():
    report = crb_report("hybrid", crb_relative=0.1, ill_conditioned=True)
    assert wl.check_crb(report, "hybrid", wl.N_PATHS, 1000.0, 1e-8) == []


# -- selections and the reference itself ---------------------------------------

@pytest.fixture(scope="module")
def small_dictionary():
    g_r, g_t = geometry.upa(2, 2), geometry.upa(3, 3)
    grid = estimation.DirectionGrid.product(36, 25)
    dictionary = estimation.build_dictionaries(grid, identity_setup(9, 4, 1.0), g_r, g_t)
    return dictionary, ref.upa_positions(2, 2), ref.upa_positions(3, 3)


def test_picks_accept_the_package_selections(small_dictionary):
    dictionary, pos_r, pos_t = small_dictionary
    R = np.random.default_rng(1).standard_normal((4, 9, 2)) @ np.array([1, 1j])
    picks = [(s, R, dictionary, sel(R, dictionary)) for s, sel in
             (("joint", estimation.joint_select), ("sequential", estimation.sequential_select))]
    assert wl.check_picks(picks, pos_r, pos_t) == (2, [])


@pytest.mark.parametrize("strategy", ["joint", "sequential"])
def test_picks_reject_a_swapped_pick(small_dictionary, strategy):
    dictionary, pos_r, pos_t = small_dictionary
    R = np.random.default_rng(2).standard_normal((4, 9, 2)) @ np.array([1, 1j])
    select = {"joint": estimation.joint_select, "sequential": estimation.sequential_select}
    sel = select[strategy](R, dictionary)
    swapped = dataclasses.replace(sel, doa_index=(sel.doa_index + 1) % dictionary.m)
    _, problems = wl.check_picks([(strategy, R, dictionary, swapped)], pos_r, pos_t)
    assert problems


def test_reference_synthesis_matches_the_package():
    paths = wl.clustered_paths(np.random.default_rng(3))
    g_r = geometry.ArrayGeometry.from_json(wl.ARRAYS["rx"])
    g_t = geometry.ArrayGeometry.from_json(wl.ARRAYS["tx"])
    H = channel.synthesize(channel.PathSet.from_json(paths), g_r, g_t).matrix
    assert np.allclose(ref.synthesize(paths, POS_R, POS_T), H, rtol=0, atol=1e-13)


def test_reference_fisher_condition_matches_the_package():
    paths = wl.clustered_paths(np.random.default_rng(6))[:6]
    g_r = geometry.ArrayGeometry.from_json(wl.ARRAYS["rx"])
    g_t = geometry.ArrayGeometry.from_json(wl.ARRAYS["tx"])
    I = fim.fisher_matrix(fim.channel_jacobian(channel.PathSet.from_json(paths), g_r, g_t),
                          identity_setup(wl.N_T, wl.N_R, 1.0))
    d = 1 / np.sqrt(np.diag(I))
    expected = np.linalg.cond(I * d[:, None] * d[None, :])
    assert ref.lossless_fisher_condition(paths, POS_R, POS_T) == pytest.approx(expected, rel=1e-6)


def test_reference_fisher_condition_ignores_gain_scale_and_sees_coincident_paths():
    path = {"rho": 1.0, "phi": 0.3, "doa": {"az": 0.5, "el": -0.2}, "dod": {"az": -1.0, "el": 0.4}}
    single = ref.lossless_fisher_condition([path], POS_R, POS_T)
    assert single < 10
    assert ref.lossless_fisher_condition([dict(path, rho=1e-7)], POS_R, POS_T) == pytest.approx(single)
    twin = dict(path, phi=1.0, doa={"az": 0.5 + 1e-6, "el": -0.2})
    assert ref.lossless_fisher_condition([path, twin], POS_R, POS_T) > 1e8


def test_grid_centres_are_grid_directions():
    grid = estimation.hemisphere_directions(wl.GRID_SIDE, wl.GRID_SIDE)
    centre = wl.grid_centre(np.random.default_rng(4))
    assert min(math.hypot(d.azimuth - centre["az"], d.elevation - centre["el"])
               for d in grid) < 1e-15


# -- tracing -------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    t = spans.Tracer()
    t.spans = [(1, "bench.monte_carlo", 0.0, 10.0, None),
               (2, "bench.run_trial", 1.0, 5.0, 1), (3, "bench.run_trial", 3.0, 6.0, 1),
               (4, "fim.crb_trace", 2.0, 3.0, 2)]
    self_t = t.self_times()
    assert self_t[1] == pytest.approx(5.0) and self_t[2] == pytest.approx(3.0)


def test_tracer_counts_and_restores_the_package():
    cfg = bench.ScenarioConfig(n_t=4, n_r=4, n_clusters=2, paths_per_cluster=1, m=16, n=16,
                               P_budgets=(1, 2), trials=2)
    originals = (bench.run_trial, estimation._SELECTORS["joint"], geometry.unit_vector,
                 estimation.DirectionGrid.__dict__["product"])
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        with tracer.installed():
            tracer.wrap(bench.monte_carlo, "bench.monte_carlo")(cfg, threads=2)
        counts.append(tracer.counters())
    assert counts[0] == counts[1]
    assert counts[0]["bench.crb_evals_per_seed"] == 4
    assert counts[0]["bench.pursuit_iterations_per_seed"] == 3
    assert counts[0]["estimation.score_evals"] == 2 * (16 * 16 + 32) * 3
    assert originals == (bench.run_trial, estimation._SELECTORS["joint"], geometry.unit_vector,
                         estimation.DirectionGrid.__dict__["product"])
