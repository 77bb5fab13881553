import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mimolab
from mimolab import cli
from mimolab.bench import ScenarioConfig, generate_paths
from mimolab.channel import steering_derivatives
from mimolab.cli import _build_arrays, _build_paths, main
from mimolab.geometry import Direction, upa

from test_cli_fuzz import README_CRB


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


@pytest.mark.parametrize("observation", [
    {"target_snr_db": 30.0},
    {"pilots": "orthogonal", "n_s": 32, "basis": "dft", "target_snr_db": 30.0},
], ids=["identity", "dft_pilots"])
def test_crb_report_bytes_do_not_depend_on_the_helper(tmp_path, monkeypatch, observation):
    # run_crb hands crb_report one helper thread, which fills the dense Jacobian
    # and takes half of crb_trace's blocks; without it the report is the same
    obj = dict(crb_config(), arrays=_ARRAYS_64_16, observation=observation)
    cfg = write_config(tmp_path, obj)
    assert main(["crb", "--config", cfg, "--out", str(tmp_path / "helper.json")]) == 0
    crb_report = cli.crb_report
    monkeypatch.setattr(cli, "crb_report", lambda *args: crb_report(*args[:-1], None))
    assert main(["crb", "--config", cfg, "--out", str(tmp_path / "alone.json")]) == 0
    assert (tmp_path / "helper.json").read_bytes() == (tmp_path / "alone.json").read_bytes()


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
    assert main(["crb", "--config", cfg, "--out", str(out2), "paths.seed=2"]) == 0
    r1, r2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    # identity observation puts both bounds on the same 3P/SNR floor, so the
    # override shows in the conditioning of the paths it draws
    assert r1["crb_relative"] == pytest.approx(r2["crb_relative"], rel=1e-12)
    assert r1["condition_number"] != r2["condition_number"]


def test_crb_seed_rejected_for_explicit_paths(tmp_path, capsys):
    cfg = write_config(tmp_path, crb_config(n_paths=2))
    assert main(["crb", "--config", cfg, "paths.seed=3"]) == 2
    assert "override path 'paths.seed' crosses a non-object" in capsys.readouterr().err


def test_crb_bad_cond_threshold_exit_2(tmp_path, capsys):
    # the flag threshold is the fixed fim.COND_THRESHOLD: a config that still
    # sets one is refused, naming the key, rather than run at another threshold
    obj = crb_config(n_paths=1)
    for value in (1, 1e12, "1e12"):
        cfg = write_config(tmp_path, dict(obj, cond_threshold=value))
        assert main(["crb", "--config", cfg, "--strict"]) == 2, value
        out, err = capsys.readouterr()
        assert out == "" and "unknown config keys ['cond_threshold']" in err


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


_ARRAYS_2X2 = {"tx": {"type": "upa", "nx": 2, "ny": 2}, "rx": {"type": "upa", "nx": 2, "ny": 2}}
_ARRAYS_64_16 = {"tx": {"type": "upa", "nx": 8, "ny": 8}, "rx": {"type": "upa", "nx": 4, "ny": 4}}


@pytest.mark.parametrize("rho, observation, second_path, field, arrays", [
    (1e-7, {"target_snr_db": 600}, True, None, _ARRAYS_2X2),
    (1e-7, {"target_snr_db": 1500}, True, None, _ARRAYS_2X2),  # coupling mass NaN, exit 0
    (1e-7, {"target_snr_db": 2999}, False, "target_snr_db", _ARRAYS_2X2),
    (1e-7, {"target_snr_db": 3000}, False, "target_snr_db", _ARRAYS_2X2),  # SVD did not converge
    (1e-7, {"sigma2": 1e-320}, False, "sigma2", _ARRAYS_2X2),  # SVD did not converge
    # (34, 'Numerical result out of range')
    (1e-7, {"target_snr_db": 3090}, False, "target_snr_db", _ARRAYS_2X2),
    (1e-7, {"target_snr_db": 4000}, False, "target_snr_db", _ARRAYS_2X2),
    (1e-7, {"target_snr_db": -3090}, False, "target_snr_db", _ARRAYS_2X2),  # crb_relative NaN
    # the channel energy used to be squared unscaled
    (1e-158, {"sigma2": 1e-300}, False, None, _ARRAYS_2X2),    # crb_relative Infinity, exit 0
    (1e-160, {"sigma2": 1e-300}, False, None, _ARRAYS_2X2),    # snr off by 1e-3
    (1e-162, {"sigma2": 1e-300}, False, None, _ARRAYS_2X2),    # "zero channel"
    (1e155, {"target_snr_db": 20}, False, None, _ARRAYS_2X2),  # "sigma2 must be ... got nan"
    (1e-170, {"target_snr_db": 20}, False, "sigma2", _ARRAYS_2X2),  # sigma2 1e-342 underflows
    # the rho column of R, far below the others, was taken on their scale: a
    # RuntimeWarning at 1 / norms and "SVD did not converge" (2 x 2), or one at the
    # division by sigma and "the bound exceeds the largest float" (8 of 64 DFT pilots)
    (1e308, {"sigma2": 1e308}, False, None, _ARRAYS_2X2),
    (1e307, {"pilots": "orthogonal", "n_s": 8, "basis": "dft", "sigma2": 1e308}, False, None,
     _ARRAYS_64_16),
], ids=["600dB", "1500dB", "2999dB", "3000dB", "sigma2_1e-320", "3090dB", "4000dB", "-3090dB",
        "rho_1e-158", "rho_1e-160", "rho_1e-162", "rho_1e155", "rho_1e-170", "rho_1e308",
        "rho_1e307_dft_pilots"])
def test_crb_at_extreme_noise_levels(tmp_path, capsys, rho, observation, second_path, field,
                                     arrays):
    # a path, weak or strong: the report is its floor under lossless observation and above
    # it under fewer pilots, or the noise level is named
    path = {"rho": rho, "phi": 0.3, "doa": {"az": 0.5, "el": -0.2},
            "dod": {"az": -1.0, "el": 0.4}}
    second = {"rho": 1e-7, "phi": 1.1, "doa": {"az": -0.4, "el": 0.3},
              "dod": {"az": 0.6, "el": -0.5}}
    paths = [path, second] if second_path else [path]
    obj = {"arrays": arrays, "paths": paths, "observation": observation,
           "include_blocks": second_path}
    code = main(["crb", "--config", write_config(tmp_path, obj)])
    out, err = capsys.readouterr()
    if field is not None:
        assert code == 2 and field in err and out == ""
        return
    assert code == 0 and err == ""
    report = json.loads(out, parse_constant=lambda name: pytest.fail(f"report holds {name}"))
    assert not report["ill_conditioned"]
    if report["optimal_observation_residual"] == 0.0:
        assert report["crb_relative"] == pytest.approx(report["floor_3p_over_snr"], rel=1e-12)
    else:
        assert report["crb_relative"] > report["floor_3p_over_snr"]
    assert 0.0 <= report["inter_path_coupling_mass"] < 1.0
    assert (report["inter_path_coupling_mass"] > 0.0) == second_path


def test_malformed_values_exit_2(tmp_path, capsys):
    # each of these ended in a traceback (exit 1)
    crb, est = crb_config(n_paths=1), estimate_config()
    cases = [("crb", []),   # a root that is not an object exited 2 already, untested
             ("crb", dict(crb, arrays={"tx": math.nan, "rx": crb["arrays"]["rx"]})),
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
             ("estimate", dict(est, seed=-1)),
             # unknown strategies, one of them unhashable
             ("estimate", dict(est, strategy="greedy")),
             ("estimate", dict(est, strategy=["joint"]))]
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


TOO_LARGE = "a 1000000000000000 x 1000000000000000 grid of directions is too large to allocate"


@pytest.mark.parametrize("command, change, message", [
    ("estimate", {"grid": {"m": -4, "n": 4}}, "invalid grid: m must be positive, got -4"),
    ("estimate", {"grid": {"m": 100, "n": 0}}, "invalid grid: n must be positive, got 0"),
    ("estimate", {"grid": {"m": 10 ** 30, "n": 100}}, "invalid grid: " + TOO_LARGE),
    ("bench", {"m": 10 ** 30, "trials": 1, "P_budgets": [1]}, TOO_LARGE),
])
def test_grid_sizes_exit_2_naming_the_quantity(tmp_path, capsys, command, change, message):
    # a negative size read "isqrt() argument must be nonnegative", and 10^30
    # DoAs ended in numpy's MemoryError traceback
    obj = dict({"estimate": estimate_config, "bench": bench_config}[command](), **change)
    out = tmp_path / "run"
    assert main([command, "--config", write_config(tmp_path, obj), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "run.json").exists()


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
    assert main(["bench", "--config", cfg, "--out", b, "base_seed=77"]) == 0
    ra = json.loads((tmp_path / "a.json").read_text())["rows"]
    rb = json.loads((tmp_path / "b.json").read_text())["rows"]
    assert [set(r) for r in ra] == [set(r) for r in rb]
    assert any(x["mean_rmse"] != y["mean_rmse"] for x, y in zip(ra, rb))


def test_bench_invalid_config_exit_2(tmp_path):
    cfg = write_config(tmp_path, dict(bench_config(), strategies=["magic"]))
    assert main(["bench", "--config", cfg]) == 2


@pytest.mark.parametrize("strategies", [["greedy"], [["joint"]]])
def test_bench_unknown_strategy_exit_2(tmp_path, capsys, strategies):
    cfg = write_config(tmp_path, dict(bench_config(), strategies=strategies))
    assert main(["bench", "--config", cfg]) == 2
    assert "unknown strategy" in capsys.readouterr().err


def test_estimate_unknown_strategy_exits_2_before_any_synthesis(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("ran past the strategy check")

    monkeypatch.setattr(cli, "synthesize", never)
    monkeypatch.setattr(cli, "build_dictionaries", never)
    cfg = write_config(tmp_path, dict(estimate_config(), strategy="greedy"))
    assert main(["estimate", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "config error: unknown strategy 'greedy'\n"


def test_a_bug_inside_the_library_is_not_reported_as_a_config_error(tmp_path, monkeypatch):
    # a TypeError raised inside generate_paths exited 2 as "config error:
    # invalid path generator: ..."
    def broken(*args, **kwargs):
        raise TypeError("a bug, not a config error")

    monkeypatch.setattr(cli, "generate_paths", broken)
    obj = dict(crb_config(), paths={"generator": {"n_clusters": 2}, "seed": 1})
    with pytest.raises(TypeError, match="a bug"):
        main(["crb", "--config", write_config(tmp_path, obj)])


def _explicit_identity(n):
    return [[[float(i == j), 0.0] for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("path, quantity", [
    (("paths", 0, "rho"), "path gain magnitude"),
    (("paths", 0, "phi"), "path phase"),
    (("paths", 0, "doa", "az"), "azimuth"),
    (("arrays", "tx", "spacing"), "spacing"),
    (("observation", "X", 3, 5, 0), "pilot matrix X"),
])
def test_an_integer_beyond_float_range_exits_2_naming_the_quantity(tmp_path, capsys, path,
                                                                     quantity):
    # each read only "int too large to convert to float"
    obj = json.loads(json.dumps(README_CRB))
    obj["observation"].update(pilots="explicit", X=_explicit_identity(16))
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = 10 ** 400
    assert main(["crb", "--config", write_config(tmp_path, obj)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and quantity in err
    assert "too large" not in err


@pytest.mark.parametrize("command", ["crb", "estimate", "bench"])
def test_unwritable_out_exits_2_naming_the_path(tmp_path, capsys, command):
    # each ended in a FileNotFoundError traceback (exit 1) after the whole run
    obj = {"crb": crb_config(n_paths=2), "estimate": estimate_config(),
           "bench": dict(bench_config(), trials=1, P_budgets=[1])}[command]
    out = str(tmp_path / "missing" / "run")
    assert main([command, "--config", write_config(tmp_path, obj), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and out in err and "Traceback" not in err


def test_crb_on_one_antenna_arrays_is_strict_json(tmp_path, capsys):
    # the equilibrated Fisher matrix is singular here; the report wrote Infinity
    obj = dict(crb_config(n_paths=1), arrays={"tx": {"type": "ula", "n": 1},
                                              "rx": {"type": "ula", "n": 1}})
    assert main(["crb", "--config", write_config(tmp_path, obj)]) == 0
    report = json.loads(capsys.readouterr().out,
                        parse_constant=lambda name: pytest.fail(f"report holds {name}"))
    assert report["ill_conditioned"] and report["condition_number"] is None


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
    # rejected by ScenarioConfig before monte_carlo starts
    ("strategies", []),
    ("angular_spread_deg", -1.0),
    ("gain_decay_db_per_cluster", -5.0),
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
    ({"type": "custom", "positions": []}, "scaled_positions must be a 3 x n matrix"),
    ({"type": "custom", "positions": [[], [], []]}, "array needs at least one antenna"),
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


_UPA_2X2 = {"type": "upa", "nx": 2, "ny": 2}
_ESTIMATE_ONE_PATH = {"grid": {"m": 100, "n": 100}, "P_budget": 2}


@pytest.mark.parametrize("command, arrays, rho, observation, message", [
    # wrote "rmse": Infinity after "RuntimeWarning: overflow encountered in dot"
    ("estimate", (_UPA_2X2, _UPA_2X2), 1.0,
     {"pilots": "orthogonal", "n_s": 4, "sigma2": 1.7e308}, "sigma2"),
    ("estimate", (_UPA_2X2, _UPA_2X2), 1.0,
     {"pilots": "orthogonal", "n_s": 4, "alpha": 1.5e-154, "sigma2": 100.0}, "sigma2"),
    # RuntimeWarnings from crb_trace, then "SVD did not converge"; at rho 100
    # the whitened Jacobian's product overflowed as well
    ("crb", ({"type": "upa", "nx": 8, "ny": 8}, {"type": "upa", "nx": 4, "ny": 4}), 1.0,
     {"pilots": "orthogonal", "n_s": 64, "alpha": 1e154, "sigma2": 1.2e-308},
     "pilot power alpha2 = 1e+308 and noise variance sigma2 = 1.2e-308"),
    ("crb", ({"type": "upa", "nx": 8, "ny": 8}, {"type": "upa", "nx": 4, "ny": 4}), 100.0,
     {"pilots": "orthogonal", "n_s": 64, "alpha": 1e154, "sigma2": 1.2e-308},
     "pilot power alpha2 = 1e+308 and noise variance sigma2 = 1.2e-308"),
    # "zero channel": the channel energy 1e-340 underflowed, and the sigma2
    # 1e-342 that realizes 20 dB does too
    ("estimate", (_UPA_2X2, _UPA_2X2), 1e-170, {"target_snr_db": 20}, "sigma2"),
    # a RuntimeWarning in crb_trace, then "the bound exceeds the largest float": it is
    # the SNR alpha2 ||h||^2 / sigma2, 1e614, that lies beyond the floats
    ("crb", (_ARRAYS_64_16["tx"], _ARRAYS_64_16["rx"]), 1e307,
     {"pilots": "orthogonal", "n_s": 8, "basis": "dft", "sigma2": 1.0},
     "SNR exceeds the largest float, or falls below the smallest, at sigma2 = 1.0"),
    # "RuntimeWarning: overflow encountered in matmul": X^T D, 1e450, was formed
    # outside the errstate that guards the whitened derivative
    ("crb", ({"type": "upa", "nx": 2, "ny": 1},) * 2, 1e300,
     {"pilots": "orthogonal", "n_s": 2, "alpha": 1e150, "basis": "dft", "sigma2": 1},
     "Fisher information overflows at pilot power alpha2 = 9.999999999999999e+299 "
     "and noise variance sigma2 = 1"),
], ids=["estimate_sigma2_1.7e308", "estimate_alpha_1.5e-154", "crb_alpha_1e154",
        "crb_alpha_1e154_rho_100", "estimate_rho_1e-170", "crb_rho_1e307_dft_pilots",
        "crb_rho_1e300_alpha_1e150"])
def test_results_beyond_the_float_range_exit_2_naming_the_noise_level(
        tmp_path, capsys, command, arrays, rho, observation, message):
    obj = {"arrays": dict(zip(("tx", "rx"), arrays)), "observation": observation,
           "paths": [{"rho": rho, "phi": 0.3, "doa": {"az": 0.2, "el": 0.1},
                      "dod": {"az": -0.4, "el": 0.3}}],
           **(_ESTIMATE_ONE_PATH if command == "estimate" else {})}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--config", write_config(tmp_path, obj)])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and message in err


def _pilot_orthogonal_to(span: int) -> list:
    """One unit pilot, as explicit X, orthogonal to the first span of e_t and its two
    tangent derivatives on the 2 x 2 UPA at DoD (-1.0, 0.4), up to rounding."""
    columns = steering_derivatives(upa(2, 2), [Direction(-1.0, 0.4)])[:span]
    pilot = np.linalg.svd(np.concatenate(columns, axis=1))[0][:, -1]
    return [[[float(z.real), float(z.imag)]] for z in pilot]


@pytest.mark.parametrize("command, X, message", [
    # every parameter is rounding noise: exit 0 with a condition number below 100
    # and a bound near 1e33, unflagged
    ("crb", _pilot_orthogonal_to(3),
     "the pilot matrix X and the combiner matrix W annihilate every parameter"),
    # only the gain and arrival parameters are: also exit 0 and unflagged, at a
    # condition number of 1e2 to 1e4
    ("crb", _pilot_orthogonal_to(1), None),
    # the only DoD of a 1 x 1 grid: a warning that dropped it came before the exit 2
    ("estimate", [[[1.0, 0.0]], [[-1.0, 0.0]], [[0.0, 0.0]], [[0.0, 0.0]]],
     "every DoD grid direction is annihilated"),
], ids=["crb_every_parameter", "crb_gain_and_doa", "estimate_1x1_grid"])
def test_parameters_or_directions_a_pilot_annihilates(tmp_path, capsys, command, X, message):
    obj = {"arrays": {"tx": _UPA_2X2, "rx": _UPA_2X2},
           "paths": [{"rho": 1.0, "phi": 0.3, "doa": {"az": 0.5, "el": -0.2},
                      "dod": {"az": -1.0, "el": 0.4}}],
           "observation": {"pilots": "explicit", "X": X, "sigma2": 1.0},
           **({"grid": {"m": 1, "n": 1}, "P_budget": 1} if command == "estimate" else {})}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--config", write_config(tmp_path, obj)])
    out, err = capsys.readouterr()
    if message is not None:
        assert code == 2 and out == "" and message in err
        return
    # the annihilated parameters leave the information singular: flagged, with the
    # pseudo-inverse bound of the two departure angles
    assert code == 0 and err == ""
    report = json.loads(out, parse_constant=lambda name: pytest.fail(f"report holds {name}"))
    assert report["ill_conditioned"] and report["condition_number"] is None
    assert 0.0 < report["crb_relative"] < 1e3


def test_estimate_at_an_extreme_gain_picks_as_at_unit_gain(tmp_path, capsys):
    # at rho 1e155 the channel energy overflowed and target_snr_db 20 exited 2
    # with "sigma2 must be ... got nan"; the true sigma2 is 1e308
    runs = []
    for rho in (1.0, 1e155):
        obj = {"arrays": {"tx": _UPA_2X2, "rx": _UPA_2X2}, "observation": {"target_snr_db": 20},
               "paths": [{"rho": rho, "phi": 0.3, "doa": {"az": 0.5, "el": -0.2},
                          "dod": {"az": -1.0, "el": 0.4}}], **_ESTIMATE_ONE_PATH}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["estimate", "--config", write_config(tmp_path, obj)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        runs.append(json.loads(out, parse_constant=lambda name: pytest.fail(f"output holds {name}")))
    assert _estimated_directions(runs[1]) == _estimated_directions(runs[0])
    assert runs[1]["rmse"] == pytest.approx(runs[0]["rmse"], rel=1e-9)


@pytest.mark.parametrize("strategy", ["joint", "sequential"])
def test_estimate_on_an_observation_norm_beyond_the_floats_exits_2(tmp_path, capsys, strategy):
    # two aligned paths of gain 1.5e308 give a finite noiseless Y whose Frobenius
    # norm, about 3e308, exceeds the largest float: the pursuit ended in an
    # OverflowError from its residual norm, and the gain fit would overflow too
    path = {"rho": 1.5e308, "phi": 0.0, "doa": {"az": 0.2, "el": 0.1},
            "dod": {"az": -0.4, "el": 0.3}}
    obj = {"arrays": {"tx": _UPA_2X2, "rx": _UPA_2X2}, "paths": [path, path],
           "observation": {"sigma2": 0}, "grid": {"m": 16, "n": 16}, "P_budget": 2,
           "strategy": strategy}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["estimate", "--config", write_config(tmp_path, obj)])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "Traceback" not in err
    assert err == "config error: observation Y has a Frobenius norm beyond the largest float\n"


@pytest.mark.parametrize("strategy", ["joint", "sequential"])
@pytest.mark.parametrize("phi", [0.3, 2.356, 5.5])
def test_estimate_fits_a_gain_near_the_largest_float(tmp_path, capsys, strategy, phi):
    # one path of gain 1.5e308 on 1 x 1 UPAs: Y and its Frobenius norm are
    # finite, but subtracting c k_r k_t^H from the residual ended in
    # "RuntimeWarning: overflow encountered in multiply" once |c| exceeded
    # about the largest float over sqrt(2); the pursuit subtracts on R / 2^e
    upa = {"type": "upa", "nx": 1, "ny": 1}
    path = {"rho": 1.5e308, "phi": phi, "doa": {"az": 0.2, "el": 0.1},
            "dod": {"az": -0.4, "el": 0.3}}
    obj = {"arrays": {"tx": upa, "rx": upa}, "paths": [path], "observation": {"sigma2": 1},
           "grid": {"m": 16, "n": 16}, "P_budget": 2, "strategy": strategy}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["estimate", "--config", write_config(tmp_path, obj)])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    report = json.loads(out, parse_constant=lambda name: pytest.fail(f"output holds {name}"))
    (fitted,) = report["estimated_paths"]
    assert fitted["rho"] == pytest.approx(1.5e308, rel=1e-12)
    assert report["rmse"] <= 1e-24


_UNSCALED_PRODUCTS = {
    # "RuntimeWarning: overflow encountered in matmul" at W^H H X in observe:
    # 2 x 2 UPAs, rho 1e300 and 2 DFT pilots of alpha 1e150
    "observe": ({"arrays": {"tx": _UPA_2X2, "rx": _UPA_2X2},
                 "paths": [{"rho": 1e300, "phi": 0.3, "doa": {"az": 0.2, "el": 0.1},
                            "dod": {"az": -0.4, "el": 0.3}}],
                 "observation": {"pilots": "orthogonal", "n_s": 2, "alpha": 1e150,
                                 "basis": "dft", "sigma2": 1}},
                "observation Y = W^H (H X + N) has an entry beyond the largest float at channel "
                "gain ||H||_F = 1e+300, pilot power alpha2 = 9.999999999999999e+299 and noise "
                "variance sigma2 = 1"),
    # the same at E_r diag(c) E_t^H in synthesize: 1 x 1 UPAs, two aligned paths
    # of rho 1.5e308, whose one entry is 3e308
    "synthesize": ({"arrays": {"tx": {"type": "upa", "nx": 1, "ny": 1},
                               "rx": {"type": "upa", "nx": 1, "ny": 1}},
                    "paths": [{"rho": 1.5e308, "phi": 0.0, "doa": {"az": 0.2, "el": 0.1},
                               "dod": {"az": -0.4, "el": 0.3}}] * 2,
                    "observation": {"sigma2": 1}},
                   "the channel E_r diag(c) E_t^H has an entry beyond the largest float at path "
                   "gains up to rho = 1.5e+308"),
}


@pytest.mark.parametrize("command", ["estimate", "crb"])
@pytest.mark.parametrize("product", sorted(_UNSCALED_PRODUCTS))
def test_a_channel_or_observation_beyond_the_floats_exits_2_naming_the_gain(
        tmp_path, capsys, command, product):
    obj, message = _UNSCALED_PRODUCTS[product]
    if command == "estimate":
        obj = dict(obj, grid={"m": 16, "n": 16}, P_budget=2)
    elif product == "observe":   # crb observes nothing: the bound's own check names alpha2
        message = ("Fisher information overflows at pilot power alpha2 = "
                   "9.999999999999999e+299 and noise variance sigma2 = 1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--config", write_config(tmp_path, obj)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"config error: {message}\n"


@pytest.mark.parametrize("field, value", [
    ("sigma2", True), ("sigma2", "0.1"), ("target_snr_db", True), ("target_snr_db", "10"),
    ("alpha", True), ("alpha", math.nan), ("basis", "hadamard"),
])
def test_observation_numbers_reject_bools_and_strings(tmp_path, capsys, field, value):
    # each was read as a number (true as 1, "0.1" as 0.1) and exited 0; an
    # unknown pilot basis is named too
    obs = {field: value}
    if field in ("alpha", "basis"):
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
