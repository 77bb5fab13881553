import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mimolab
from mimolab.bench import ScenarioConfig, generate_paths
from mimolab.cli import _build_arrays, _build_paths, main


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def crb_config(n_paths=10, **observation):
    obs = observation or {"target_snr_db": 10.0}
    rng = np.random.default_rng(5)
    paths = []
    for _ in range(n_paths):
        paths.append({"rho": float(rng.uniform(0.5, 1.5)),
                      "phi": float(rng.uniform(0, 2 * math.pi)),
                      "doa": {"az": float(rng.uniform(-1.2, 1.2)),
                              "el": float(rng.uniform(-1.0, 1.0))},
                      "dod": {"az": float(rng.uniform(-1.2, 1.2)),
                              "el": float(rng.uniform(-1.0, 1.0))}})
    return {
        "arrays": {"tx": {"type": "upa", "nx": 4, "ny": 4},
                   "rx": {"type": "upa", "nx": 2, "ny": 4}},
        "paths": paths,
        "observation": obs,
    }


def test_crb_identity_snr10_floor(tmp_path, capsys):
    cfg = write_config(tmp_path, crb_config())
    out = tmp_path / "report.json"
    assert main(["crb", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert abs(report["floor_3p_over_snr"] - 3.0) < 1e-12
    assert report["crb_relative"] >= report["floor_3p_over_snr"] - 1e-9
    assert report["n_p"] == 60
    assert report["optimal_observation_residual"] <= 1e-12


def test_crb_stdout_when_no_out(tmp_path, capsys):
    cfg = write_config(tmp_path, crb_config(n_paths=2))
    assert main(["crb", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_p"] == 12


def test_crb_duplicate_paths_strict_exit_3(tmp_path):
    obj = crb_config(n_paths=1)
    obj["paths"].append(dict(obj["paths"][0], rho=0.4))  # same directions
    cfg = write_config(tmp_path, obj)
    out = tmp_path / "r.json"
    assert main(["crb", "--config", cfg, "--out", str(out), "--strict"]) == 3
    report = json.loads(out.read_text())  # report still written
    assert report["ill_conditioned"]
    # without --strict the same config exits 0
    assert main(["crb", "--config", cfg, "--out", str(out)]) == 0


def test_crb_generated_paths_and_seed_override(tmp_path):
    obj = crb_config()
    obj["paths"] = {"generator": {"n_clusters": 2, "paths_per_cluster": 2}, "seed": 1}
    cfg = write_config(tmp_path, obj)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["crb", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["crb", "--config", cfg, "--out", str(out2), "--seed", "2"]) == 0
    r1, r2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    # identity observation puts both bounds on the same 3P/SNR floor, so the
    # override shows in the conditioning of the paths it draws
    assert r1["crb_relative"] == pytest.approx(r2["crb_relative"], rel=1e-12)
    assert r1["condition_number"] != r2["condition_number"]


def test_crb_seed_rejected_for_explicit_paths(tmp_path):
    cfg = write_config(tmp_path, crb_config(n_paths=2))
    assert main(["crb", "--config", cfg, "--seed", "3"]) == 2


def test_crb_bad_cond_threshold_exit_2(tmp_path, capsys):
    # one well-separated path reads condition number about 2; each of these
    # used to flag it, and --strict then exited 3
    obj = crb_config(n_paths=1)
    for value in (math.nan, -1, True, False, 0.5, math.inf, "1e12", None, [1e12]):
        cfg = write_config(tmp_path, dict(obj, cond_threshold=value))
        assert main(["crb", "--config", cfg, "--strict"]) == 2, value
        assert "cond_threshold must be a finite number of at least 1" in capsys.readouterr().err
    # the smallest threshold is accepted and flags the path; 1e12 does not
    out = tmp_path / "r.json"
    for value, code in ((1, 3), (1e12, 0)):
        cfg = write_config(tmp_path, dict(obj, cond_threshold=value))
        assert main(["crb", "--config", cfg, "--out", str(out), "--strict"]) == code
        report = json.loads(out.read_text())
        assert report["ill_conditioned"] == (code == 3)
        assert 1.5 < report["condition_number"] < 3.0


def test_crb_include_blocks_must_be_a_boolean(tmp_path, capsys):
    obj = crb_config(n_paths=2)
    for value in ("false", "true", 0, 1, None):
        cfg = write_config(tmp_path, dict(obj, include_blocks=value))
        assert main(["crb", "--config", cfg]) == 2, value
        assert "include_blocks must be true or false" in capsys.readouterr().err
    out = tmp_path / "r.json"
    for value in (True, False):
        cfg = write_config(tmp_path, dict(obj, include_blocks=value))
        assert main(["crb", "--config", cfg, "--out", str(out)]) == 0
        assert ("per_path_blocks" in json.loads(out.read_text())) == value


def test_config_errors_exit_2(tmp_path):
    assert main(["crb", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["crb", "--config", str(bad)]) == 2
    # schema violations
    assert main(["crb", "--config", write_config(tmp_path, {"paths": []})]) == 2
    obj = crb_config(n_paths=1)
    obj["observation"] = {"sigma2": 0.1, "target_snr_db": 10}
    assert main(["crb", "--config", write_config(tmp_path, obj, "dup.json")]) == 2
    obj["observation"] = {}
    assert main(["crb", "--config", write_config(tmp_path, obj, "none.json")]) == 2


def test_crb_non_finite_azimuth_exit_2(tmp_path, capsys):
    obj = crb_config(n_paths=2)
    obj["paths"][1]["doa"]["az"] = math.nan
    assert main(["crb", "--config", write_config(tmp_path, obj)]) == 2
    assert "azimuth" in capsys.readouterr().err


def test_crb_non_finite_gain_or_noise_exit_2(tmp_path, capsys):
    # each used to end in LinAlgError: SVD did not converge (exit 1)
    for field, value, message in (("phi", math.nan, "phase"),
                                  ("rho", math.inf, "gain magnitude"),
                                  ("sigma2", math.nan, "sigma2"),
                                  ("sigma2", math.inf, "sigma2")):
        obj = crb_config(n_paths=2)
        if field == "sigma2":
            obj["observation"] = {"sigma2": value}
        else:
            obj["paths"][1][field] = value
        assert main(["crb", "--config", write_config(tmp_path, obj)]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("observation, second_path, field", [
    ({"target_snr_db": 600}, True, None),
    ({"target_snr_db": 1500}, True, None),            # coupling mass NaN, exit 0
    ({"target_snr_db": 2999}, False, "target_snr_db"),
    ({"target_snr_db": 3000}, False, "target_snr_db"),  # SVD did not converge
    ({"sigma2": 1e-320}, False, "sigma2"),              # SVD did not converge
    ({"target_snr_db": 3090}, False, "target_snr_db"),  # (34, 'Numerical result out of range')
    ({"target_snr_db": 4000}, False, "target_snr_db"),
    ({"target_snr_db": -3090}, False, "target_snr_db"),  # crb_relative NaN, exit 0
], ids=["600dB", "1500dB", "2999dB", "3000dB", "sigma2_1e-320", "3090dB", "4000dB", "-3090dB"])
def test_crb_at_extreme_noise_levels(tmp_path, capsys, observation, second_path, field):
    # a weak lossless path: the report is its floor, or the noise level is named
    path = {"rho": 1e-7, "phi": 0.3, "doa": {"az": 0.5, "el": -0.2},
            "dod": {"az": -1.0, "el": 0.4}}
    second = {"rho": 1e-7, "phi": 1.1, "doa": {"az": -0.4, "el": 0.3},
              "dod": {"az": 0.6, "el": -0.5}}
    paths = [path, second] if second_path else [path]
    obj = {"arrays": {"tx": {"type": "upa", "nx": 2, "ny": 2},
                      "rx": {"type": "upa", "nx": 2, "ny": 2}},
           "paths": paths, "observation": observation, "include_blocks": second_path}
    code = main(["crb", "--config", write_config(tmp_path, obj)])
    out, err = capsys.readouterr()
    if field is not None:
        assert code == 2 and field in err and out == ""
        return
    assert code == 0 and err == ""
    report = json.loads(out, parse_constant=lambda name: pytest.fail(f"report holds {name}"))
    assert not report["ill_conditioned"]
    assert report["crb_relative"] == pytest.approx(report["floor_3p_over_snr"], rel=1e-8)
    assert 0.0 < report["inter_path_coupling_mass"] < 1.0


def test_malformed_values_exit_2(tmp_path, capsys):
    # each of these ended in a traceback (exit 1)
    crb, est = crb_config(n_paths=1), estimate_config()
    cases = [("crb", dict(crb, arrays={"tx": math.nan, "rx": crb["arrays"]["rx"]})),
             ("crb", dict(crb, observation="identity")),
             ("crb", dict(crb, observation={"target_snr_db": math.inf})),
             ("crb", dict(crb, observation={"target_snr_db": 1e5})),
             ("crb", dict(crb, observation={"sigma2": 0.0})),
             ("crb", dict(crb, cond_threshold="high")),
             ("estimate", dict(est, grid={"m": math.inf, "n": 100})),
             ("estimate", dict(est, grid="small")),
             ("estimate", dict(est, paths={"generator": "x", "seed": 4})),
             ("estimate", dict(est, paths={"generator": {}, "seed": math.inf})),
             ("estimate", dict(est, P_budget=None)),
             ("estimate", dict(est, seed=-1))]
    for command, obj in cases:
        assert main([command, "--config", write_config(tmp_path, obj)]) == 2, obj
        assert "config error" in capsys.readouterr().err


def test_integer_fields_reject_bools_and_fractions(tmp_path, capsys):
    # int() truncated each of these silently: P_budget 2.7 ran P = 2, true P = 1
    crb, est = crb_config(n_paths=1), estimate_config()
    tx = {"type": "upa", "nx": 2.5, "ny": 4}
    cases = [("estimate", dict(est, P_budget=2.7)),
             ("estimate", dict(est, P_budget=True)),
             ("estimate", dict(est, seed=1.5)),
             ("estimate", dict(est, grid={"m": 100, "n": 100.5})),
             ("estimate", dict(est, grid={"m": False, "n": 100})),
             ("estimate", dict(est, paths={"generator": {}, "seed": True})),
             ("estimate", dict(est, paths={"generator": {"n_clusters": 2.5}, "seed": 4})),
             ("crb", dict(crb, arrays={"tx": tx, "rx": crb["arrays"]["rx"]})),
             ("crb", dict(crb, observation={"pilots": "orthogonal", "n_s": 3.5,
                                            "sigma2": 1.0})),
             ("bench", dict(bench_config(), P_budgets=[2.7])),
             ("bench", dict(bench_config(), trials=True))]
    for command, obj in cases:
        assert main([command, "--config", write_config(tmp_path, obj)]) == 2, obj
        assert "must be an integer" in capsys.readouterr().err, obj


def test_integral_floats_accepted(tmp_path):
    cfg = write_config(tmp_path, dict(estimate_config(), P_budget=3.0, seed=2.0))
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "est")]) == 0
    assert json.loads((tmp_path / "est.json").read_text())["P"] == 3


def estimate_config():
    return {
        "arrays": {"tx": {"type": "upa", "nx": 4, "ny": 4},
                   "rx": {"type": "upa", "nx": 2, "ny": 2}},
        "paths": {"generator": {"n_clusters": 2, "paths_per_cluster": 2,
                                "angular_spread_deg": 3.0}, "seed": 4},
        "observation": {"target_snr_db": 20.0},
        "grid": {"m": 100, "n": 100},
        "strategy": "sequential",
        "P_budget": 3,
    }


def test_estimate_run_and_outputs(tmp_path):
    cfg = write_config(tmp_path, estimate_config())
    base = str(tmp_path / "est")
    assert main(["estimate", "--config", cfg, "--out", base]) == 0
    row = json.loads((tmp_path / "est.json").read_text())
    assert row["strategy"] == "sequential"
    assert row["P"] == 3
    assert row["score_evals"] == 200 * 3
    assert len(row["estimated_paths"]) <= 3
    header = (tmp_path / "est.csv").read_text().splitlines()[0]
    assert header == "strategy,P,rmse,wall_time_s,score_evals"


def test_estimate_override_strategy(tmp_path):
    cfg = write_config(tmp_path, estimate_config())
    base = str(tmp_path / "joint")
    assert main(["estimate", "--config", cfg, "--out", base,
                 "strategy=joint", "P_budget=1"]) == 0
    row = json.loads((tmp_path / "joint.json").read_text())
    assert row["strategy"] == "joint"
    assert row["score_evals"] == 100 * 100


def test_estimate_non_finite_observation_exit_2(tmp_path, capsys):
    obj = dict(estimate_config(), observation={"sigma2": math.nan})
    cfg = write_config(tmp_path, obj)
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "est")]) == 2
    assert "NaN or inf" in capsys.readouterr().err
    assert not (tmp_path / "est.json").exists()


def bench_config():
    return {"n_t": 16, "n_r": 4, "m": 100, "n": 100, "n_clusters": 3,
            "paths_per_cluster": 2, "P_budgets": [1, 2], "trials": 2,
            "base_seed": 3}


def test_bench_smoke_outputs(tmp_path, capsys):
    import time

    cfg = write_config(tmp_path, bench_config())
    base = str(tmp_path / "bench")
    start = time.perf_counter()
    assert main(["bench", "--config", cfg, "--out", base, "--emit-table"]) == 0
    assert time.perf_counter() - start < 10.0
    printed = capsys.readouterr().out
    assert "joint estimation" in printed and "P=1" in printed
    payload = json.loads((tmp_path / "bench.json").read_text())
    assert len(payload["rows"]) == 4  # two strategies x two budgets
    csv_lines = (tmp_path / "bench.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 5


@pytest.mark.parametrize("command", ["estimate", "bench"])
def test_csv_rows_equal_json_rows(tmp_path, capsys, command):
    # one writer for both: the header is the JSON row's keys in the record's
    # order, and every cell is the JSON value as written
    if command == "estimate":
        obj = dict(estimate_config(), strategy="joint", P_budget=2)
        header = ["strategy", "P", "rmse", "wall_time_s", "score_evals"]
        first = ["joint", "2"]
    else:
        obj = bench_config()
        header = ["strategy", "P_budget", "mean_rmse", "mean_wall_time_s", "mean_score_evals",
                  "crb_floor", "mean_true_crb", "ill_conditioned_trials", "trials"]
        first = ["joint", "1"]   # rows sorted by (P_budget, strategy)
    base = str(tmp_path / command)
    assert main([command, "--config", write_config(tmp_path, obj), "--out", base]) == 0
    assert capsys.readouterr().out == f"wrote {base}.json and {base}.csv\n"
    payload = json.loads(Path(base + ".json").read_text())
    json_rows = payload["rows"] if command == "bench" else [payload]
    with open(base + ".csv", newline="") as fh:
        lines = list(csv.reader(fh))
    assert lines[0] == header
    assert len(lines) == 1 + len(json_rows)
    for cells, row in zip(lines[1:], json_rows):
        assert set(row) - {"estimated_paths"} == set(header)
        assert cells == [str(row[key]) for key in header]
    assert lines[1][:2] == first


def test_bench_wide_angular_spread_exit_0(tmp_path):
    # seed 14 jitters an elevation past 3 pi / 2, which ended in a traceback
    cfg = write_config(tmp_path, dict(bench_config(), angular_spread_deg=90.0, base_seed=14))
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "wide")]) == 0


@pytest.mark.parametrize("command", ["bench", "estimate", "crb"])
def test_outputs_reproducible_except_walltime(tmp_path, command):
    # bench and estimate are compared, JSON and CSV, without their wall-time
    # fields; crb reports no timing, so its JSON must match byte for byte
    obj = {"bench": bench_config(), "estimate": estimate_config(),
           "crb": crb_config(n_paths=2)}[command]
    cfg = write_config(tmp_path, obj)
    threads = ["--threads", "2"] if command == "bench" else []
    wall = {"bench": "mean_wall_time_s", "estimate": "wall_time_s"}.get(command)
    outs = []
    for name in ("one", "two"):
        base = str(tmp_path / name)
        assert main([command, "--config", cfg, "--out", base, *threads]) == 0
        if command == "crb":
            outs.append(Path(base).read_bytes())
            continue
        payload = json.loads(Path(base + ".json").read_text())
        with open(base + ".csv", newline="") as fh:
            csv_rows = list(csv.DictReader(fh))
        for row in (payload["rows"] if command == "bench" else [payload]) + csv_rows:
            row.pop(wall)
        outs.append((payload, csv_rows))
    assert outs[0] == outs[1]


def test_bench_rows_independent_of_blas_threads(tmp_path):
    # The bound's last digits used to follow the environment's BLAS thread
    # count (0.011718750000032759 on two threads, 0.011718750000002555 on
    # one, for this config); monte_carlo now always runs on one.
    cfg = write_config(tmp_path, {"n_t": 64, "n_r": 16, "m": 100, "n": 100,
                                  "P_budgets": [5], "trials": 2, "base_seed": 5})
    src = str(Path(mimolab.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    payloads = []
    for env in (dict(base, OPENBLAS_NUM_THREADS="1"), base):
        out = str(tmp_path / f"run{len(payloads)}")
        subprocess.run([sys.executable, "-m", "mimolab.cli", "bench", "--config", cfg,
                        "--out", out, "--threads", "2"], env=env, check=True,
                       capture_output=True, timeout=120)
        payloads.append(json.loads(Path(out + ".json").read_text()))
    for payload in payloads:
        for row in payload["rows"]:
            row.pop("mean_wall_time_s")
    assert payloads[0]["rows"] == payloads[1]["rows"]
    assert payloads[0]["env"] == payloads[1]["env"]
    assert payloads[0]["env"]["trial_workers"] == 2


def test_bench_seed_override_changes_values_not_schema(tmp_path):
    cfg = write_config(tmp_path, bench_config())
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["bench", "--config", cfg, "--out", a]) == 0
    assert main(["bench", "--config", cfg, "--out", b, "--seed", "77"]) == 0
    ra = json.loads((tmp_path / "a.json").read_text())["rows"]
    rb = json.loads((tmp_path / "b.json").read_text())["rows"]
    assert [set(r) for r in ra] == [set(r) for r in rb]
    assert any(x["mean_rmse"] != y["mean_rmse"] for x, y in zip(ra, rb))


def test_bench_invalid_config_exit_2(tmp_path):
    cfg = write_config(tmp_path, dict(bench_config(), strategies=["magic"]))
    assert main(["bench", "--config", cfg]) == 2


def test_bench_mistyped_fields_exit_2(tmp_path, capsys):
    for field, value in (("strategies", "joint"), ("P_budgets", "5"), ("snr_db", "10"),
                         ("snr_db", math.nan), ("angular_spread_deg", math.nan),
                         ("gain_decay_db_per_cluster", "5"), ("snr_db", 10 ** 400)):
        cfg = write_config(tmp_path, dict(bench_config(), **{field: value}))
        assert main(["bench", "--config", cfg]) == 2
        assert field in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("strategies", {"joint": 1}),          # exit 0, running the object's keys
    ("P_budgets", {"1": 0}),               # "P_budgets must be an integer, got '1'"
    ("strategies", 3),                     # "'int' object is not iterable"
    ("P_budgets", 3),
])
def test_bench_list_fields_that_are_not_lists_exit_2(tmp_path, capsys, field, value):
    obj = {"n_t": 4, "n_r": 4, "m": 16, "n": 16, "trials": 2, "P_budgets": [1, 2],
           "n_clusters": 1, "paths_per_cluster": 2, field: value}
    assert main(["bench", "--config", write_config(tmp_path, obj)]) == 2
    assert f"{field} must be a list" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("m", 3),                              # ValueError from DirectionGrid.product
    ("snr_db", -4000),                     # "target SNR must be positive"
    ("snr_db", 4000),                      # OverflowError
    ("gain_decay_db_per_cluster", 4000),   # "path gain magnitude must be positive"
])
def test_bench_config_monte_carlo_cannot_run_exit_2(tmp_path, capsys, field, value):
    # each ended in a traceback (exit 1) once monte_carlo started
    obj = {"n_t": 4, "n_r": 4, "m": 4, "n": 4, "trials": 1, "P_budgets": [1], field: value}
    assert main(["bench", "--config", write_config(tmp_path, obj)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["0", "-2"])
def test_bench_non_positive_threads_exit_2(tmp_path, capsys, flag):
    cfg = write_config(tmp_path, dict(bench_config(), trials=1, P_budgets=[1],
                                      strategies=["sequential"]))
    out = str(tmp_path / "run")
    assert main(["bench", "--config", cfg, "--out", out, "--threads", flag]) == 2
    err = capsys.readouterr().err
    assert "positive worker count" in err
    assert "--threads" in err
    assert not os.path.exists(out + ".json")


def test_observation_matrix_of_wrong_size_exit_2(tmp_path, capsys):
    # a 3-row W for a 4-antenna receiver used to fail deep inside the
    # projection or the observation, naming neither the matrix nor the sizes
    def explicit(rows):   # rows x 2, full column rank
        return [[[float(i == j), 0.0] for j in range(2)] for i in range(rows)]

    for command, obj, n_r in (("crb", crb_config(n_paths=2), 8),
                              ("estimate", estimate_config(), 4)):
        for mode, key, name, side, n in (("pilots", "X", "pilot matrix X", "transmit", 16),
                                         ("combiners", "W", "combiner matrix W", "receive",
                                          n_r)):
            obj["observation"] = {mode: "explicit", key: explicit(n - 1),
                                  "target_snr_db": 20.0}
            assert main([command, "--config", write_config(tmp_path, obj)]) == 2
            assert (f"config error: {name} has {n - 1} rows, but the {side} array has "
                    f"{n} antennas") in capsys.readouterr().err


def test_cli_rejects_flags_of_other_subcommands(tmp_path, capsys):
    # each flag is declared on the one subcommand it applies to; elsewhere
    # argparse rejects it with exit 2 before the config is read
    crb = write_config(tmp_path, crb_config(n_paths=1), "crb.json")
    estimate = write_config(tmp_path, estimate_config(), "estimate.json")
    for argv in (["crb", "--config", crb, "--threads", "2"],
                 ["crb", "--config", crb, "--emit-table"],
                 ["estimate", "--config", estimate, "--strict"],
                 ["estimate", "--config", estimate, "--threads", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_bench_repeated_entries_exit_2(tmp_path, capsys):
    for field, value in (("strategies", ["joint", "joint"]), ("P_budgets", [2, 2])):
        cfg = write_config(tmp_path, dict(bench_config(), **{field: value}))
        assert main(["bench", "--config", cfg]) == 2
        assert f"{field} must not repeat" in capsys.readouterr().err


def _custom_positions(n, bad):
    positions = [[0.5 * i for i in range(n)], [0.0] * n, [0.0] * n]
    positions[1][n - 1] = bad
    return {"type": "custom", "positions": positions}


@pytest.mark.parametrize("tx_array, message", [
    ("upa", "array spec must be a JSON object"),
    ([4, 4], "array spec must be a JSON object"),
    ({"type": "upa", "nx": 4}, "upa array spec requires 'ny'"),
    ({"type": "ula"}, "ula array spec requires 'n'"),
    ({"type": "upa", "nx": 4, "ny": 4, "spacing": math.nan}, "spacing must be positive and finite"),
    ({"type": "upa", "nx": 4, "ny": 4, "spacing": math.inf}, "spacing must be positive and finite"),
    ({"type": "ula", "n": 16, "spacing": math.nan}, "spacing must be positive and finite"),
    (_custom_positions(16, math.nan), "antenna positions must be finite"),
    (_custom_positions(16, -math.inf), "antenna positions must be finite"),
])
def test_bench_malformed_array_spec_exit_2(tmp_path, capsys, tx_array, message):
    # these ended in AttributeError, KeyError or "every DoD grid direction is
    # annihilated" tracebacks
    cfg = write_config(tmp_path, dict(bench_config(), tx_array=tx_array))
    assert main(["bench", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("tx, message", [
    ({"type": "upa", "nx": 4, "ny": 4, "spacing": math.nan}, "spacing must be positive and finite"),
    (_custom_positions(16, math.nan), "antenna positions must be finite"),
])
def test_crb_and_estimate_name_a_non_finite_array_spec(tmp_path, capsys, tx, message):
    # both exited 2, but on a failed eigenvalue solve or a NaN observation
    for command, obj in (("crb", crb_config(n_paths=2)), ("estimate", estimate_config())):
        obj["arrays"]["tx"] = tx
        assert main([command, "--config", write_config(tmp_path, obj)]) == 2
        assert f"invalid array spec: {message}" in capsys.readouterr().err


def test_override_parsing_errors(tmp_path):
    cfg = write_config(tmp_path, bench_config())
    assert main(["bench", "--config", cfg, "trials"]) == 2


@pytest.mark.parametrize("key, entry, name", [
    ("X", math.nan, "pilot matrix X"),
    ("W", math.inf, "combiner matrix W"),
])
def test_crb_and_estimate_name_a_non_finite_observation_matrix(tmp_path, capsys, key, entry,
                                                              name):
    # a NaN X ended in "SVD did not converge" (crb) or "every DoD grid
    # direction is annihilated" (estimate); an inf W read "full column rank"
    for command, obj in (("crb", crb_config(n_paths=2)), ("estimate", estimate_config())):
        n = obj["arrays"]["tx" if key == "X" else "rx"]
        M = [[[float(i == j), 0.0] for j in range(n["nx"] * n["ny"])]
             for i in range(n["nx"] * n["ny"])]
        M[1][1][0] = entry
        mode = "pilots" if key == "X" else "combiners"
        obj["observation"] = {mode: "explicit", key: M, "target_snr_db": 20.0}
        assert main([command, "--config", write_config(tmp_path, obj)]) == 2
        assert f"{name} has a NaN or inf entry" in capsys.readouterr().err


def _scaled_identity(n, scale):
    return [[[scale * (i == j), 0.0] for j in range(n)] for i in range(n)]


def _estimated_directions(payload):
    return [(p["doa"], p["dod"]) for p in payload["estimated_paths"]]


@pytest.mark.parametrize("scale", [1e-13, 1e160, 1e-170])
def test_estimate_with_combiners_at_any_scale_picks_as_identity_combiners(tmp_path, capsys,
                                                                          scale):
    # 1e-13 I and 1e-170 I exited 2 with "every DoA grid direction is
    # annihilated", and 1e160 I overflowed the atoms' norms and exited 2 with
    # "K_r column 0 does not have unit norm"
    runs = []
    for W in (_scaled_identity(4, 1.0), _scaled_identity(4, scale)):
        obj = dict(estimate_config(), observation={"combiners": "explicit", "W": W,
                                                   "target_snr_db": 20.0})
        assert main(["estimate", "--config", write_config(tmp_path, obj)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        runs.append(json.loads(out))
    assert _estimated_directions(runs[1]) == _estimated_directions(runs[0])
    assert runs[1]["rmse"] == pytest.approx(runs[0]["rmse"], rel=1e-9)


@pytest.mark.parametrize("command, observation, message", [
    # overflowed alpha2 with a RuntimeWarning, then exited 2 with "K_t
    # column 0 does not have unit norm" (estimate) or blamed sigma2 (crb)
    ("estimate", {"pilots": "orthogonal", "alpha": 1e160, "sigma2": 1.0}, "pilot matrix X"),
    ("crb", {"pilots": "orthogonal", "alpha": 1e160, "sigma2": 1.0}, "pilot matrix X"),
    # alpha2 underflowed to 0: "X must carry nonzero transmit power"
    ("estimate", {"pilots": "orthogonal", "alpha": 1e-170, "sigma2": 1.0}, "pilot matrix X"),
    ("crb", {"pilots": "orthogonal", "alpha": 1e-170, "target_snr_db": 10.0}, "pilot matrix X"),
    # atom norms of 1e-320 lose their digits: "every DoA grid direction is annihilated"
    ("estimate", {"combiners": "explicit", "W": _scaled_identity(4, 1e-320),
                  "target_snr_db": 20.0}, "combiner matrix W"),
], ids=["estimate_alpha_1e160", "crb_alpha_1e160", "estimate_alpha_1e-170", "crb_alpha_1e-170",
        "estimate_W_1e-320"])
def test_observation_matrices_beyond_the_float_range_are_named(tmp_path, capsys, command,
                                                               observation, message):
    obj = crb_config(n_paths=2) if command == "crb" else estimate_config()
    obj["observation"] = observation
    assert main([command, "--config", write_config(tmp_path, obj)]) == 2
    err = capsys.readouterr().err
    assert message in err and "range of normal floats" in err


@pytest.mark.parametrize("field, value", [
    ("sigma2", True), ("sigma2", "0.1"), ("target_snr_db", True), ("target_snr_db", "10"),
    ("alpha", True), ("alpha", math.nan),
])
def test_observation_numbers_reject_bools_and_strings(tmp_path, capsys, field, value):
    # each was read as a number (true as 1, "0.1" as 0.1) and exited 0
    obs = {field: value}
    if field == "alpha":
        obs.update(pilots="orthogonal", sigma2=0.1)
    cfg = write_config(tmp_path, crb_config(n_paths=2, **obs))
    assert main(["crb", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err


def _identity_entries(n, entry):
    M = [[[float(i == j), 0.0] for j in range(n)] for i in range(n)]
    M[1][1][0] = entry
    return M


def _set_field(obj, field, value):
    if field in ("rho", "phi"):
        obj["paths"][1][field] = value
    elif field in ("az", "el"):
        obj["paths"][1]["doa"][field] = value
    elif field == "spacing":
        obj["arrays"]["tx"]["spacing"] = value
    elif field == "positions":
        obj["arrays"]["tx"] = _custom_positions(16, value)
    elif field == "X":
        obj["observation"] = {"pilots": "explicit", "X": _identity_entries(16, value),
                              "target_snr_db": 20.0}
    else:
        obj["observation"] = {"combiners": "explicit", "W": _identity_entries(8, value),
                              "target_snr_db": 20.0}


@pytest.mark.parametrize("value", ["0.5", True])
@pytest.mark.parametrize("field, name", [
    ("rho", "path gain magnitude"), ("phi", "path phase"), ("az", "azimuth"),
    ("el", "elevation"), ("spacing", "spacing"), ("positions", "antenna positions"),
    ("X", "pilot matrix X"), ("W", "combiner matrix W"),
])
def test_crb_rejects_a_string_or_bool_for_a_number(tmp_path, capsys, field, name, value):
    # each was read as a number through float() or np.asarray and exited 0
    obj = crb_config(n_paths=2)
    _set_field(obj, field, value)
    assert main(["crb", "--config", write_config(tmp_path, obj)]) == 2
    err = capsys.readouterr().err
    assert name in err and repr(value) in err and "Traceback" not in err


def test_path_generator_rejects_keys_only_bench_reads(tmp_path, capsys):
    # trials was ignored (exit 0) and m = 0 read "m must be positive"
    for gen, unknown in (({"trials": 7}, ["trials"]),
                         ({"m": 0, "n_clusters": 2, "snr_db": 3.0}, ["m", "snr_db"])):
        obj = dict(crb_config(), paths={"generator": gen, "seed": 1})
        assert main(["crb", "--config", write_config(tmp_path, obj)]) == 2
        assert f"unknown paths.generator keys {unknown}" in capsys.readouterr().err


def command_config(command):
    return crb_config(n_paths=2) if command == "crb" else estimate_config()


def assert_unknown_key(tmp_path, capsys, command, obj, message):
    assert main([command, "--config", write_config(tmp_path, obj)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["crb", "estimate"])
def test_misspelt_generator_key_exits_2(tmp_path, capsys, command):
    # drew the default 8x5 scenario and exited 0
    obj = dict(command_config(command), paths={"generatr": {"n_clusters": 1}, "seed": 2})
    assert_unknown_key(tmp_path, capsys, command, obj, "unknown paths keys ['generatr']")


@pytest.mark.parametrize("command", ["crb", "estimate"])
def test_misspelt_top_level_key_exits_2(tmp_path, capsys, command):
    # crb wrote a report without blocks and exited 0
    obj = dict(command_config(command), include_block=True)
    assert_unknown_key(tmp_path, capsys, command, obj, "unknown config keys ['include_block']")


@pytest.mark.parametrize("command", ["crb", "estimate"])
def test_misspelt_observation_key_exits_2(tmp_path, capsys, command):
    # ran identity pilots and exited 0
    obj = dict(command_config(command),
               observation={"pilot": "orthogonal", "n_s": 8, "target_snr_db": 10.0})
    assert_unknown_key(tmp_path, capsys, command, obj, "unknown observation keys ['pilot']")


@pytest.mark.parametrize("command", ["crb", "estimate"])
def test_unknown_arrays_key_exits_2(tmp_path, capsys, command):
    obj = command_config(command)
    obj["arrays"] = dict(obj["arrays"], txx={"type": "ula", "n": 4})
    assert_unknown_key(tmp_path, capsys, command, obj, "unknown arrays keys ['txx']")


def test_unknown_grid_key_and_keys_of_the_other_command_exit_2(tmp_path, capsys):
    est = estimate_config()
    assert_unknown_key(tmp_path, capsys, "estimate", dict(est, grid={"m": 100, "nn": 100}),
                       "unknown grid keys ['nn']")
    assert_unknown_key(tmp_path, capsys, "estimate", dict(est, include_blocks=True),
                       "unknown config keys ['include_blocks']")
    assert_unknown_key(tmp_path, capsys, "crb", dict(crb_config(n_paths=2), grid=est["grid"]),
                       "unknown config keys ['grid']")


@pytest.mark.parametrize("grid", [
    {"m_az": 3, "m_el": 3, "m": 16},   # ran a 16 x 2500 product grid and exited 0
    {"m_az": 3, "m_el": 3},
    {"m_az": 3, "m_el": 3, "n_az": 4},
    {"n_el": 4, "n": 16},
    {"m_az": 3, "m_el": 3, "n_az": 4, "n_el": 4, "n": 16},
])
def test_estimate_partial_or_mixed_grid_layout_exits_2(tmp_path, capsys, grid):
    assert_unknown_key(tmp_path, capsys, "estimate", dict(estimate_config(), grid=grid),
                       f"grid gives {sorted(grid)}; give all of "
                       "['m_az', 'm_el', 'n_az', 'n_el'] or only m, n")


@pytest.mark.parametrize("tx", [
    {"type": "ula", "n": 6, "spacing": 0.4, "axis": "y"},
    {"type": "upa", "nx": 2, "ny": 3, "plane": "xz"},
    _custom_positions(5, 0.25),
])
def test_path_generator_draws_the_scenario_paths(tx):
    gen = {"n_clusters": 2, "paths_per_cluster": 3, "angular_spread_deg": 4.0,
           "gain_decay_db_per_cluster": 2.0}
    rx = {"type": "upa", "nx": 2, "ny": 2}
    cfg = {"arrays": {"tx": tx, "rx": rx}, "paths": {"generator": gen, "seed": 9}}
    g_t, g_r = _build_arrays(cfg)
    scen = ScenarioConfig(n_t=g_t.n_antennas, n_r=4, tx_array=tx, rx_array=rx, **gen)
    assert _build_paths(cfg, g_t, g_r).to_json() == generate_paths(scen, 9).to_json()


def test_import_leaves_scipy_unloaded():
    # scipy.linalg alone took about 0.3 s of a fresh `import mimolab`; the
    # package loads its eight modules and no others (not the CLI)
    src = str(Path(mimolab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, mimolab; print('scipy' in sys.modules); "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'mimolab'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    scipy_loaded, modules = done.stdout.splitlines()
    assert scipy_loaded == "False"
    assert modules.split() == ["mimolab"] + [f"mimolab.{name}" for name in (
        "bench", "blas", "channel", "estimation", "fim", "geometry", "observation", "workers")]
