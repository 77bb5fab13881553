import io
import json
import math
import threading

import numpy as np
import pytest

from mimolab import bench, fim
from mimolab.bench import (BenchRow, ScenarioConfig, _canonical_angles, draw_scenario,
                           format_table, generate_paths, monte_carlo, rows_to_json, run_trial)
from mimolab.blas import blas_threads
from mimolab.channel import synthesize
from mimolab.estimation import DirectionGrid, build_dictionaries, matching_pursuit
from mimolab.geometry import HALF_PI, unit_vector, unit_vectors_from_angles
from mimolab.observation import identity_setup, noise_for_snr, observe


def tiny_config(**overrides):
    base = dict(n_t=16, n_r=4, m=100, n=100, n_clusters=3, paths_per_cluster=2,
                P_budgets=(1, 2), strategies=("joint", "sequential"), trials=2,
                base_seed=7)
    base.update(overrides)
    return ScenarioConfig(**base)


def tiny_dictionary(cfg):
    g_t, g_r = cfg.geometries()
    return build_dictionaries(DirectionGrid.product(cfg.m, cfg.n),
                              identity_setup(cfg.n_t, cfg.n_r, 1.0), g_r, g_t)


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(trials=0)
    with pytest.raises(ValueError):
        tiny_config(strategies=("joint", "magic"))
    with pytest.raises(ValueError):
        tiny_config(P_budgets=())
    with pytest.raises(ValueError):
        tiny_config(n_t=15)  # not a square, no array spec
    with pytest.raises(ValueError):
        tiny_config(tx_array={"type": "upa", "nx": 2, "ny": 2})  # 4 != 16
    with pytest.raises(ValueError):
        tiny_config(base_seed=-1)
    with pytest.raises(ValueError):
        ScenarioConfig.from_json({"n_t": 16, "n_r": 4, "bogus": 1})
    with pytest.raises(ValueError):
        ScenarioConfig.from_json({"n_t": 16})


@pytest.mark.parametrize("field, value", [
    ("strategies", "joint"), ("strategies", "sequential"), ("P_budgets", "5"),
    ("snr_db", "10"), ("snr_db", math.nan), ("snr_db", math.inf), ("snr_db", None),
    ("snr_db", True), ("angular_spread_deg", "5"), ("angular_spread_deg", math.nan),
    ("gain_decay_db_per_cluster", "5"), ("gain_decay_db_per_cluster", -math.inf),
])
def test_config_rejects_mistyped_fields(field, value):
    with pytest.raises(ValueError, match=field):
        tiny_config(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("strategies", {"joint": 1}), ("strategies", 3), ("strategies", None),
    ("P_budgets", {"1": 0}), ("P_budgets", 3), ("P_budgets", {1, 2}),
])
def test_config_rejects_fields_that_are_not_lists(field, value):
    # a dict ran as its keys, and an int raised TypeError: 'int' object is not iterable
    with pytest.raises(ValueError, match=f"{field} must be a list"):
        tiny_config(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("P_budgets", (2.7,)), ("P_budgets", (True,)), ("P_budgets", (5, math.nan)),
    ("P_budgets", ("5",)), ("m", 100.5), ("trials", True), ("n_clusters", "3"),
    ("base_seed", 7.5), ("base_seed", math.inf),
])
def test_config_rejects_non_integers(field, value):
    # int() used to truncate these silently (2.7 ran as 2, True as 1)
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        tiny_config(**{field: value})


def test_config_accepts_integral_floats_as_ints():
    cfg = tiny_config(P_budgets=(1.0, np.int64(2)), m=100.0, trials=np.int32(2), base_seed=7.0)
    assert cfg.P_budgets == (1, 2) and cfg.m == 100 and cfg.trials == 2 and cfg.base_seed == 7
    assert all(type(v) is int for v in (*cfg.P_budgets, cfg.m, cfg.trials, cfg.base_seed))


def test_config_accepts_integer_and_numpy_numbers():
    cfg = tiny_config(snr_db=10, angular_spread_deg=np.float64(2.5),
                      gain_decay_db_per_cluster=np.int64(3))
    assert cfg.snr_linear == 10.0


@pytest.mark.parametrize("field, value", [("strategies", ("joint", "joint")),
                                          ("strategies", ("sequential", "joint", "sequential")),
                                          ("P_budgets", (2, 2)), ("P_budgets", (5, 10, 5.0))])
def test_config_rejects_repeated_entries(field, value):
    # a repeated entry ran every pursuit twice and returned duplicate rows
    with pytest.raises(ValueError, match=f"{field} must not repeat"):
        tiny_config(**{field: value})


def test_config_json_round_trip():
    cfg = tiny_config()
    cfg2 = ScenarioConfig.from_json(json.loads(json.dumps(cfg.to_json())))
    assert cfg2.to_json() == cfg.to_json()


def test_generate_paths_deterministic_and_counted():
    cfg = tiny_config(n_clusters=8, paths_per_cluster=5)
    ps1 = generate_paths(cfg, 3)
    ps2 = generate_paths(cfg, 3)
    assert len(ps1) == 40
    assert ps1.to_json() == ps2.to_json()
    ps3 = generate_paths(cfg, 4)
    assert ps1.to_json() != ps3.to_json()


def test_generate_paths_gain_normalization():
    cfg = tiny_config()
    ps = generate_paths(cfg, 5)
    assert abs(sum(p.rho ** 2 for p in ps) - 1.0) < 1e-12
    assert all(p.rho > 0 for p in ps)


def test_generate_paths_zero_spread_collapses_clusters():
    cfg = tiny_config(angular_spread_deg=0.0, n_clusters=2, paths_per_cluster=3)
    ps = generate_paths(cfg, 9)
    for cluster in (ps[0:3], ps[3:6]):
        assert all(p.doa == cluster[0].doa for p in cluster)
        assert all(p.dod == cluster[0].dod for p in cluster)


def test_generate_paths_directions_valid():
    cfg = tiny_config(angular_spread_deg=40.0)  # large spread exercises folding
    ps = generate_paths(cfg, 12)
    for p in ps:
        for d in (p.doa, p.dod):
            assert -math.pi <= d.azimuth < math.pi
            assert -math.pi / 2 <= d.elevation <= math.pi / 2
            assert abs(np.linalg.norm(unit_vector(d)) - 1.0) < 1e-12


def test_generate_paths_folds_any_elevation():
    # one fold over the pole left an elevation jittered past 3 pi / 2 out of
    # range: 3, 113, 278 and 300 of these seeds raised, in that order
    for spread in (60.0, 90.0, 120.0, 1000.0):
        cfg = ScenarioConfig(n_t=4, n_r=4, m=16, n=16, angular_spread_deg=spread)
        for seed in range(300):
            generate_paths(cfg, seed)   # every Direction checks its elevation
    for el in np.linspace(-60.0, 60.0, 241):
        az, folded = _canonical_angles(0.3, float(el))
        assert -HALF_PI <= folded <= HALF_PI
        assert np.allclose(unit_vectors_from_angles(az, folded),
                           unit_vectors_from_angles(0.3, el), rtol=0.0, atol=1e-13)


def test_run_trial_counters_and_determinism():
    cfg = tiny_config()
    dictionary = tiny_dictionary(cfg)
    scenario = draw_scenario(cfg, 7)
    t1 = run_trial(cfg, scenario, "sequential", dictionary)
    t2 = run_trial(cfg, draw_scenario(cfg, 7), "sequential", dictionary)
    assert t1.at(2).rmse == t2.at(2).rmse
    assert t1.at(2).score_evals == (100 + 100) * 2
    t3 = run_trial(cfg, scenario, "joint", dictionary)
    assert t3.at(2).score_evals == 100 * 100 * 2


def test_run_trial_flags_ill_conditioned_truth_without_failing():
    # zero spread duplicates directions inside each cluster: singular FIM
    cfg = tiny_config(angular_spread_deg=0.0, P_budgets=(1,))
    scenario = draw_scenario(cfg, 1)
    assert scenario.true_crb.ill_conditioned
    assert math.isfinite(scenario.true_crb.value)
    assert run_trial(cfg, scenario, "sequential", tiny_dictionary(cfg)).at(1).score_evals == 200


def test_monte_carlo_rows_and_reduction():
    cfg = tiny_config()
    rows = monte_carlo(cfg)
    assert len(rows) == len(cfg.P_budgets) * len(cfg.strategies)
    keys = [(r.P_budget, r.strategy) for r in rows]
    assert keys == sorted(keys)
    for row in rows:
        assert row.trials == cfg.trials
        expected = (100 * 100 if row.strategy == "joint" else 200) * row.P_budget
        assert row.mean_score_evals == expected
        assert row.crb_floor == 3 * row.P_budget / (cfg.snr_linear * cfg.n_t * cfg.n_r)
    joint = {r.P_budget: r for r in rows if r.strategy == "joint"}
    seq = {r.P_budget: r for r in rows if r.strategy == "sequential"}
    for p in cfg.P_budgets:
        ratio = joint[p].mean_score_evals / seq[p].mean_score_evals
        assert ratio == (100 * 100) / (100 + 100)


def test_monte_carlo_single_trial_reduces_to_run_trial():
    cfg = tiny_config(trials=1, P_budgets=(2,), strategies=("sequential",))
    row = monte_carlo(cfg)[0]
    scenario = draw_scenario(cfg, cfg.base_seed)
    trial = run_trial(cfg, scenario, "sequential", tiny_dictionary(cfg))
    assert row.mean_rmse == trial.at(2).rmse
    assert row.mean_score_evals == trial.at(2).score_evals
    assert row.mean_true_crb == scenario.true_crb.value


def test_monte_carlo_builds_the_arrays_once_for_the_dictionary_and_once_per_seed(monkeypatch):
    # each scenario carries the arrays it was synthesized on, and every
    # strategy's trial reads them there
    calls = []
    geometries = ScenarioConfig.geometries

    def counting(cfg):
        calls.append(1)
        return geometries(cfg)

    cfg = tiny_config(trials=3, P_budgets=(1,), strategies=("joint", "sequential"))
    monkeypatch.setattr(ScenarioConfig, "geometries", counting)
    monte_carlo(cfg)
    assert len(calls) == 1 + 3
    scenario = draw_scenario(cfg, 7)
    for g, ref in zip((scenario.g_t, scenario.g_r), geometries(cfg)):
        assert np.array_equal(g.scaled_positions, ref.scaled_positions)


@pytest.mark.parametrize("threads", [1, 2])
def test_monte_carlo_bounds_each_seed_once(monkeypatch, threads):
    # every strategy of a seed shares its scenario, so its CRB is solved once
    calls = []
    crb_trace = fim.crb_trace

    def counting(*args):
        calls.append(1)
        return crb_trace(*args)

    monkeypatch.setattr(fim, "crb_trace", counting)
    cfg = tiny_config(trials=3, P_budgets=(1,), strategies=("joint", "sequential"))
    rows = monte_carlo(cfg, threads=threads)
    assert len(calls) == 3
    assert all(r.trials == 3 for r in rows)


def test_strategies_of_a_seed_pursue_one_observation(monkeypatch):
    seen = []
    pursue = bench.matching_pursuit

    def recording(Y, *args, **kwargs):
        seen.append((Y, args[2]))
        return pursue(Y, *args, **kwargs)

    monkeypatch.setattr(bench, "matching_pursuit", recording)
    cfg = tiny_config(trials=2, P_budgets=(1,))
    monte_carlo(cfg, threads=2)
    by_observation = {}
    for Y, strategy in seen:
        by_observation.setdefault(id(Y), (Y, []))[1].append(strategy)
    assert len(by_observation) == cfg.trials
    for Y, strategies in by_observation.values():
        assert sorted(strategies) == ["joint", "sequential"]
        assert not Y.flags.writeable
    first, second = (Y for Y, _ in by_observation.values())
    assert not np.array_equal(first, second)


@pytest.mark.parametrize("threads", [0, -1])
def test_monte_carlo_rejects_non_positive_threads(threads):
    with pytest.raises(ValueError, match="threads must be a positive worker count"):
        monte_carlo(tiny_config(trials=1), threads=threads)


@pytest.mark.parametrize("strategy", ["joint", "sequential"])
def test_monte_carlo_prefix_rows_equal_independent_pursuits(strategy):
    # rows are read off one pursuit per seed; each must equal a pursuit run
    # from scratch at that budget
    cfg = tiny_config(P_budgets=(4, 1, 3), strategies=(strategy,), trials=2)
    rows = monte_carlo(cfg)
    grid = DirectionGrid.product(cfg.m, cfg.n)
    g_t, g_r = cfg.geometries()
    observed = []
    for seed in range(cfg.base_seed, cfg.base_seed + cfg.trials):
        H = synthesize(generate_paths(cfg, seed), g_r, g_t)
        s = identity_setup(cfg.n_t, cfg.n_r,
                           noise_for_snr(cfg.observation_snr_linear, 1.0, H.vector))
        observed.append((H, build_dictionaries(grid, s, g_r, g_t),
                         observe(H, s, np.random.default_rng([seed, 1]))))
    assert [r.P_budget for r in rows] == [1, 3, 4]
    for row in rows:
        readings = [matching_pursuit(Y, d, row.P_budget, strategy).reading(row.P_budget, H,
                                                                            g_r, g_t)
                    for H, d, Y in observed]
        assert row.mean_rmse == float(np.mean([r.rmse for r in readings]))
        assert row.mean_score_evals == float(np.mean([r.score_evals for r in readings]))
    walls = [r.mean_wall_time_s for r in rows]
    assert walls == sorted(walls)


def test_monte_carlo_deterministic_across_threads():
    # two trials on two threads split seeds; one trial on two or three
    # threads splits its bound (mean_true_crb); two on three do both (one
    # thread idles)
    for trials, thread_counts in ((2, (2, 3)), (1, (2, 3))):
        cfg = tiny_config(trials=trials)
        rows1 = monte_carlo(cfg, threads=1)
        for threads in thread_counts:
            rows2 = monte_carlo(cfg, threads=threads)
            assert len(rows1) == len(rows2)
            for a, b in zip(rows1, rows2):
                assert a.mean_rmse == b.mean_rmse
                assert a.mean_score_evals == b.mean_score_evals
                assert a.mean_true_crb == b.mean_true_crb


@pytest.mark.parametrize("trials, threads", [(1, 2), (1, 3), (2, 3), (3, 2), (2, 2)])
def test_monte_carlo_keeps_to_its_thread_budget(monkeypatch, trials, threads):
    # seed work and the bound's two tasks record the threads doing them; no
    # more than `threads` may be busy at once, and the calling thread runs a
    # seed
    lock = threading.Lock()
    busy, peak, seed_threads = {}, [0], set()

    def recording(fn, seed_work):
        def record(*args, **kwargs):
            me = threading.get_ident()
            with lock:
                busy[me] = busy.get(me, 0) + 1
                peak[0] = max(peak[0], len(busy))
                if seed_work:
                    seed_threads.add(me)
            try:
                return fn(*args, **kwargs)
            finally:
                with lock:
                    busy[me] -= 1
                    if not busy[me]:
                        del busy[me]
        return record

    monkeypatch.setattr(bench, "run_trial", recording(bench.run_trial, True))
    monkeypatch.setattr(fim, "fisher_factor", recording(fim.fisher_factor, False))
    monkeypatch.setattr(fim.Jacobian, "dense", recording(fim.Jacobian.dense, False))
    cfg = tiny_config(trials=trials, m=400, strategies=("joint",))
    monte_carlo(cfg, threads=threads)
    assert 1 <= peak[0] <= threads
    assert threading.get_ident() in seed_threads
    assert len(seed_threads) <= min(trials, threads)


def test_monte_carlo_seed_changes_results():
    cfg1 = tiny_config(P_budgets=(1,), strategies=("sequential",))
    cfg2 = tiny_config(P_budgets=(1,), strategies=("sequential",), base_seed=99)
    r1, r2 = monte_carlo(cfg1)[0], monte_carlo(cfg2)[0]
    assert r1.mean_rmse != r2.mean_rmse


def test_rows_serialization():
    cfg = tiny_config(trials=1, P_budgets=(1,), strategies=("sequential",))
    rows = monte_carlo(cfg)
    payload = rows_to_json(cfg, rows, 2)
    assert payload["config"]["n_t"] == 16
    assert payload["rows"][0]["strategy"] == "sequential"
    assert payload["env"] == {"trial_workers": 2, "scan_threads": 2,
                              "blas_threads": blas_threads(), "numpy": np.__version__}
    assert rows_to_json(tiny_config(trials=2), rows, 3)["env"]["scan_threads"] == 1
    assert rows_to_json(tiny_config(trials=1), rows, 3)["env"]["scan_threads"] == 3


def test_format_table_layout():
    rows = [
        BenchRow("joint", 5, 0.077, 1.24, 31250000.0, 0.1, 0.2, 0, 20),
        BenchRow("sequential", 5, 0.092, 0.11, 25000.0, 0.1, 0.2, 0, 20),
        BenchRow("joint", 10, 0.031, 2.40, 62500000.0, 0.2, 0.2, 0, 20),
        BenchRow("sequential", 10, 0.039, 0.16, 50000.0, 0.2, 0.2, 0, 20),
    ]
    table = format_table(rows)
    lines = table.splitlines()
    assert "joint estimation" in lines[0]
    assert "sequential estimation" in lines[0]
    assert lines[2].startswith("     P=5")
    assert "0.0770" in lines[2] and "0.0920" in lines[2]
    assert lines[3].startswith("    P=10")
