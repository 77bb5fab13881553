"""Batch command-line front end: CRB reports, single estimations, benchmarks.

Every subcommand reads one self-describing JSON config, optionally patched
by key=value overrides, validates it fully, computes, and writes JSON (plus
CSV for tabular outputs). Exit codes: 0 success, 2 invalid config, 3
ill-conditioned Fisher matrix under --strict.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict

import numpy as np

from .bench import (KNOWN_STRATEGIES, ScenarioConfig, format_table, generate_paths,
                    monte_carlo, rows_to_json)
from .channel import PathSet, synthesize
from .estimation import DirectionGrid, build_dictionaries, matching_pursuit
from .fim import DEFAULT_COND_THRESHOLD, crb_report
from .geometry import ArrayGeometry, as_int, is_finite_real
from .observation import (ObservationSetup, complex_from_json, noise_for_snr, observe,
                          orthogonal_pilots, pilot_power)


class ConfigError(ValueError):
    """Configuration that fails validation; maps to exit code 2."""


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _apply_overrides(cfg: dict, overrides) -> None:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, raw = item.split("=", 1)
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {key!r} crosses a non-object")
        try:
            node[parts[-1]] = json.loads(raw)
        except json.JSONDecodeError:
            node[parts[-1]] = raw


# What converting a JSON value can raise: float() of a huge integer raises
# OverflowError.
_VALUE_ERRORS = (ValueError, KeyError, TypeError, OverflowError)


def _require(cfg: dict, key: str, context: str):
    if key not in cfg:
        raise ConfigError(f"{context} requires {key!r}")
    return cfg[key]


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {value!r}")
    return value


def _check_keys(obj: dict, known, name: str) -> None:
    """Reject a key of obj outside known: a misspelt key would fall back to a default."""
    unknown = [key for key in obj if key not in known]
    if unknown:
        raise ConfigError(f"unknown {name} keys {unknown}; expected some of {list(known)}")


# The top-level keys each subcommand reads; bench's are ScenarioConfig's fields.
_CRB_KEYS = ("arrays", "paths", "observation", "include_blocks", "cond_threshold")
_ESTIMATE_KEYS = ("arrays", "paths", "observation", "grid", "strategy", "P_budget", "seed")
_OBSERVATION_KEYS = ("pilots", "n_s", "alpha", "basis", "X", "combiners", "W", "sigma2",
                     "target_snr_db")
_GRID_KEYS = ("m", "n", "m_az", "m_el", "n_az", "n_el")


def _integer(cfg: dict, key: str, default: int) -> int:
    try:
        return as_int(cfg.get(key, default), key)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _build_arrays(cfg: dict) -> tuple[ArrayGeometry, ArrayGeometry]:
    arrays = _object(_require(cfg, "arrays", "config"), "arrays")
    _check_keys(arrays, ("tx", "rx"), "arrays")
    tx = _object(_require(arrays, "tx", "arrays"), "arrays.tx")
    rx = _object(_require(arrays, "rx", "arrays"), "arrays.rx")
    try:
        return ArrayGeometry.from_json(tx), ArrayGeometry.from_json(rx)
    except _VALUE_ERRORS as e:
        raise ConfigError(f"invalid array spec: {e}") from e


# The ScenarioConfig fields that shape a path draw; the rest only concern bench.
_GENERATOR_KEYS = ("n_clusters", "paths_per_cluster", "angular_spread_deg",
                   "gain_decay_db_per_cluster")


def _build_paths(cfg: dict, g_t: ArrayGeometry, g_r: ArrayGeometry) -> PathSet:
    spec = _require(cfg, "paths", "config")
    if isinstance(spec, list):
        try:
            return PathSet.from_json(spec)
        except _VALUE_ERRORS as e:
            raise ConfigError(f"invalid explicit paths: {e}") from e
    if isinstance(spec, dict):
        _check_keys(spec, ("generator", "seed"), "paths")
        gen = _object(spec.get("generator", {}), "paths.generator")
        _check_keys(gen, _GENERATOR_KEYS, "paths.generator")
        seed = _integer(spec, "seed", 0)
        try:
            arrays = cfg["arrays"]
            scen = ScenarioConfig(n_t=g_t.n_antennas, n_r=g_r.n_antennas,
                                  tx_array=arrays["tx"], rx_array=arrays["rx"], **gen)
            return generate_paths(scen, seed)
        except _VALUE_ERRORS as e:
            raise ConfigError(f"invalid path generator: {e}") from e
    raise ConfigError("paths must be a list of paths or a generator object")


def _parse_observation(cfg: dict, g_t: ArrayGeometry, g_r: ArrayGeometry,
                       h: np.ndarray) -> ObservationSetup:
    """The observation block as one setup; target_snr_db is realized for channel h."""
    obs = _object(_require(cfg, "observation", "config"), "observation")
    _check_keys(obs, _OBSERVATION_KEYS, "observation")
    n_t, n_r = g_t.n_antennas, g_r.n_antennas
    try:
        pilots = obs.get("pilots", "identity")
        if pilots == "identity":
            X = np.eye(n_t)
        elif pilots == "orthogonal":
            X = orthogonal_pilots(n_t, _integer(obs, "n_s", n_t), obs.get("alpha", 1.0),
                                  obs.get("basis", "identity"))
        elif pilots == "explicit":
            X = complex_from_json(_require(obs, "X", "explicit pilots"), "pilot matrix X")
        else:
            raise ConfigError(f"unknown pilots mode {pilots!r}")
        combiners = obs.get("combiners", "identity")
        if combiners == "identity":
            W = np.eye(n_r)
        elif combiners == "explicit":
            W = complex_from_json(_require(obs, "W", "explicit combiners"),
                                  "combiner matrix W")
        else:
            raise ConfigError(f"unknown combiners mode {combiners!r}")
        for name, M, side, n in (("pilot matrix X", X, "transmit", n_t),
                                 ("combiner matrix W", W, "receive", n_r)):
            if M.shape[0] != n:
                raise ConfigError(f"{name} has {M.shape[0]} rows, but the {side} array "
                                  f"has {n} antennas")
        if ("sigma2" in obs) == ("target_snr_db" in obs):
            raise ConfigError("observation needs exactly one of sigma2, target_snr_db")
        if "sigma2" in obs:
            sigma2 = obs["sigma2"]
        else:
            target = obs["target_snr_db"]
            # keeps the linear SNR and its reciprocal finite, as bench's snr_db rule does
            if not (is_finite_real(target) and abs(target) < 3000.0):
                raise ConfigError("target_snr_db must be a number between -3000 and 3000, "
                                  f"got {target!r}")
            sigma2 = noise_for_snr(10.0 ** (target / 10.0), pilot_power(X), h)
        return ObservationSetup(X, W, sigma2)
    except ConfigError:
        raise
    except _VALUE_ERRORS as e:
        raise ConfigError(f"invalid observation: {e}") from e


def _write_json(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out is None:
        print(text)
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def write_csv(rows: list[dict], path: str) -> None:
    """Write rows as CSV under a header of the first row's keys; path is replaced."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _write_outputs(payload: dict, rows: list[dict], out: str) -> None:
    """payload as <out>.json and rows as <out>.csv."""
    _write_json(payload, out + ".json")
    write_csv(rows, out + ".csv")
    print(f"wrote {out}.json and {out}.csv")


def run_crb(cfg: dict, out: str | None, strict: bool) -> int:
    _check_keys(cfg, _CRB_KEYS, "config")
    g_t, g_r = _build_arrays(cfg)
    paths = _build_paths(cfg, g_t, g_r)
    setup = _parse_observation(cfg, g_t, g_r, synthesize(paths, g_r, g_t).vector)
    include_blocks = cfg.get("include_blocks", False)
    if not isinstance(include_blocks, bool):
        raise ConfigError(f"include_blocks must be true or false, got {include_blocks!r}")
    try:
        report = crb_report(paths, g_r, g_t, setup, include_blocks=include_blocks,
                            cond_threshold=cfg.get("cond_threshold", DEFAULT_COND_THRESHOLD))
    except ValueError as e:   # a noise level out of range or a bad cond_threshold
        raise ConfigError(str(e)) from e
    _write_json(report, out)
    if strict and report["ill_conditioned"]:
        print("Fisher matrix is ill-conditioned at this parameter point",
              file=sys.stderr)
        return 3
    return 0


def _build_grid(cfg: dict) -> DirectionGrid:
    grid = _object(cfg.get("grid", {}), "grid")
    _check_keys(grid, _GRID_KEYS, "grid")
    layout = _GRID_KEYS[2:]
    if set(grid) & set(layout) and set(grid) != set(layout):
        raise ConfigError(f"grid gives {sorted(grid)}; give all of {list(layout)} or only m, n")
    try:
        if layout[0] in grid:
            return DirectionGrid(*(_integer(grid, key, 0) for key in layout))
        return DirectionGrid.product(_integer(grid, "m", 2500), _integer(grid, "n", 2500))
    except _VALUE_ERRORS as e:
        raise ConfigError(f"invalid grid: {e}") from e


def run_estimate(cfg: dict, out: str | None) -> int:
    _check_keys(cfg, _ESTIMATE_KEYS, "config")
    g_t, g_r = _build_arrays(cfg)
    paths = _build_paths(cfg, g_t, g_r)
    H = synthesize(paths, g_r, g_t)
    setup = _parse_observation(cfg, g_t, g_r, H.vector)
    strategy = cfg.get("strategy", "sequential")
    P_budget = _integer(cfg, "P_budget", 10)
    seed = _integer(cfg, "seed", 0)
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    if strategy not in KNOWN_STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}")
    grid = _build_grid(cfg)
    try:
        Y = observe(H, setup, np.random.default_rng([seed, 1]))
        dictionary = build_dictionaries(grid, setup, g_r, g_t)
        report = matching_pursuit(Y, dictionary, P_budget, strategy)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    row = {"strategy": strategy, **asdict(report.reading(P_budget, H, g_r, g_t))}
    payload = dict(row, estimated_paths=[p.to_json() for p in report.estimated])
    if out is None:
        _write_json(payload, None)
    else:
        _write_outputs(payload, [row], out)
    return 0


def run_bench(cfg: dict, out: str | None, threads: int, emit_table: bool) -> int:
    if threads < 1:
        raise ConfigError(f"--threads must be a positive worker count, got {threads}")
    try:
        scen = ScenarioConfig.from_json(cfg)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"invalid scenario config: {e}") from e
    rows = monte_carlo(scen, threads=threads)
    if emit_table:
        print(format_table(rows), end="")
    payload = rows_to_json(scen, rows, threads)
    if out is None:
        if not emit_table:
            _write_json(payload, None)
    else:
        _write_outputs(payload, payload["rows"], out)
    return 0


def _apply_seed(cfg: dict, command: str, seed: int | None) -> None:
    if seed is None:
        return
    if command == "bench":
        cfg["base_seed"] = seed
    elif command == "estimate":
        cfg["seed"] = seed
    else:
        if isinstance(cfg.get("paths"), dict):
            cfg["paths"]["seed"] = seed
        else:
            raise ConfigError("--seed only applies to generated paths")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimolab",
        description="Sparse MIMO channel estimation lab: CRB analysis, "
                    "single-shot estimation, Monte-Carlo benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("crb", "Fisher/CRB report for a configured scenario"),
                      ("estimate", "one Matching Pursuit estimation run"),
                      ("bench", "Monte-Carlo benchmark over seeded trials")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None,
                       help="output path (crb: JSON file; estimate/bench: "
                            "basename for .json/.csv)")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        if name == "crb":
            p.add_argument("--strict", action="store_true",
                           help="exit 3 when the Fisher matrix is ill-conditioned")
        if name == "bench":
            p.add_argument("--threads", type=int, default=1,
                           help="threads for the trials and, with fewer trials "
                                "than threads, their joint scans (default 1)")
            p.add_argument("--emit-table", action="store_true",
                           help="print an aligned text table")
        p.add_argument("overrides", nargs="*", metavar="key=value",
                       help="dotted-path config overrides, values parsed as JSON")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        _apply_overrides(cfg, args.overrides)
        _apply_seed(cfg, args.command, args.seed)
        if args.command == "crb":
            return run_crb(cfg, args.out, args.strict)
        if args.command == "estimate":
            return run_estimate(cfg, args.out)
        return run_bench(cfg, args.out, args.threads, args.emit_table)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
