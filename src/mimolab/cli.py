"""Batch command-line front end: CRB reports, single estimations, benchmarks.

Every subcommand reads one self-describing JSON config, optionally patched
by key=value overrides, validates it fully, computes, and writes JSON (plus
CSV for tabular outputs). The CLI checks the config's shape (keys, objects,
modes); every value rule belongs to the library function that reads the
value, which raises ValueError naming it, and the CLI only prefixes the
block it came from. Exit codes: 0 success, 2 invalid or unreadable config
(a ValueError) or unwritable output, 3 ill-conditioned Fisher matrix under
--strict; any other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np

from .bench import ScenarioConfig, format_table, generate_paths, monte_carlo, rows_to_json
from .channel import PathSet, synthesize
from .estimation import DirectionGrid, build_dictionaries, matching_pursuit, selector
from .fim import crb_report
from .geometry import ArrayGeometry, as_int, is_finite_real, json_fields
from .observation import (ObservationSetup, complex_from_json, noise_for_snr, observe,
                          orthogonal_pilots, pilot_power)
from .workers import Helpers


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ValueError(f"cannot read config {path}: {e}") from e
    if not isinstance(cfg, dict):
        raise ValueError("config root must be a JSON object")
    return cfg


def _apply_overrides(cfg: dict, overrides) -> None:
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not key=value")
        key, raw = item.split("=", 1)
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValueError(f"override path {key!r} crosses a non-object")
        try:
            node[parts[-1]] = json.loads(raw)
        except json.JSONDecodeError:
            node[parts[-1]] = raw


def _require(cfg: dict, key: str, context: str):
    return json_fields(cfg, (key,), context)[0]


def _object(value, name: str, known) -> dict:
    """value, if it is a JSON object of keys in known only: a misspelt key would
    fall back to a default."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {value!r}")
    unknown = [key for key in value if key not in known]
    if unknown:
        raise ValueError(f"unknown {name} keys {unknown}; expected some of {list(known)}")
    return value


# The top-level keys each subcommand reads; bench's are ScenarioConfig's fields.
_CRB_KEYS = ("arrays", "paths", "observation", "include_blocks")
_ESTIMATE_KEYS = ("arrays", "paths", "observation", "grid", "strategy", "P_budget", "seed")
_OBSERVATION_KEYS = ("pilots", "n_s", "alpha", "basis", "X", "combiners", "W", "sigma2",
                     "target_snr_db")
_GRID_KEYS = ("m", "n", "m_az", "m_el", "n_az", "n_el")


def _build_arrays(cfg: dict) -> tuple[ArrayGeometry, ArrayGeometry]:
    arrays = _object(_require(cfg, "arrays", "config"), "arrays", ("tx", "rx"))
    tx, rx = json_fields(arrays, ("tx", "rx"), "arrays")
    try:
        return ArrayGeometry.from_json(tx), ArrayGeometry.from_json(rx)
    except ValueError as e:
        raise ValueError(f"invalid array spec: {e}") from e


# The ScenarioConfig fields that shape a path draw; the rest only concern bench.
_GENERATOR_KEYS = ("n_clusters", "paths_per_cluster", "angular_spread_deg",
                   "gain_decay_db_per_cluster")


def _build_paths(cfg: dict, g_t: ArrayGeometry, g_r: ArrayGeometry) -> PathSet:
    spec = _require(cfg, "paths", "config")
    if isinstance(spec, list):
        try:
            return PathSet.from_json(spec)
        except ValueError as e:
            raise ValueError(f"invalid explicit paths: {e}") from e
    if isinstance(spec, dict):
        _object(spec, "paths", ("generator", "seed"))
        gen = _object(spec.get("generator", {}), "paths.generator", _GENERATOR_KEYS)
        seed = as_int(spec.get("seed", 0), "seed")
        try:
            scen = ScenarioConfig(n_t=g_t.n_antennas, n_r=g_r.n_antennas,
                                  tx_array=cfg["arrays"]["tx"], rx_array=cfg["arrays"]["rx"],
                                  **gen)
            return generate_paths(scen, seed)
        except ValueError as e:
            raise ValueError(f"invalid path generator: {e}") from e
    raise ValueError("paths must be a list of paths or a generator object")


def _parse_observation(cfg: dict, g_t: ArrayGeometry, g_r: ArrayGeometry,
                       h: np.ndarray) -> ObservationSetup:
    """The observation block as one setup; target_snr_db is realized for channel h."""
    obs = _object(_require(cfg, "observation", "config"), "observation", _OBSERVATION_KEYS)
    n_t, n_r = g_t.n_antennas, g_r.n_antennas
    try:
        pilots = obs.get("pilots", "identity")
        if pilots == "identity":
            X = np.eye(n_t)
        elif pilots == "orthogonal":
            X = orthogonal_pilots(n_t, obs.get("n_s", n_t), obs.get("alpha", 1.0),
                                  obs.get("basis", "identity"))
        elif pilots == "explicit":
            X = complex_from_json(_require(obs, "X", "explicit pilots"), "pilot matrix X")
        else:
            raise ValueError(f"unknown pilots mode {pilots!r}")
        combiners = obs.get("combiners", "identity")
        if combiners == "identity":
            W = np.eye(n_r)
        elif combiners == "explicit":
            W = complex_from_json(_require(obs, "W", "explicit combiners"),
                                  "combiner matrix W")
        else:
            raise ValueError(f"unknown combiners mode {combiners!r}")
        if ("sigma2" in obs) == ("target_snr_db" in obs):
            raise ValueError("observation needs exactly one of sigma2, target_snr_db")
        if "sigma2" in obs:
            sigma2 = obs["sigma2"]
        else:
            target = obs["target_snr_db"]
            # keeps the linear SNR and its reciprocal finite, as bench's snr_db rule does
            if not (is_finite_real(target) and abs(target) < 3000.0):
                raise ValueError("target_snr_db must be a number between -3000 and 3000, "
                                 f"got {target!r}")
            sigma2 = noise_for_snr(10.0 ** (target / 10.0), pilot_power(X), h)
        return ObservationSetup(X, W, sigma2)
    except ValueError as e:
        raise ValueError(f"invalid observation: {e}") from e


def _write_json(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
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
    _object(cfg, "config", _CRB_KEYS)
    g_t, g_r = _build_arrays(cfg)
    paths = _build_paths(cfg, g_t, g_r)
    setup = _parse_observation(cfg, g_t, g_r, synthesize(paths, g_r, g_t).vector)
    include_blocks = cfg.get("include_blocks", False)
    if not isinstance(include_blocks, bool):
        raise ValueError(f"include_blocks must be true or false, got {include_blocks!r}")
    # one helper thread shares the bound with this one (see fim.bound)
    with ThreadPoolExecutor(max_workers=1) as executor:
        report = crb_report(paths, g_r, g_t, setup, include_blocks, Helpers(executor, 1))
    _write_json(report, out)
    if strict and report["ill_conditioned"]:
        print("Fisher matrix is ill-conditioned at this parameter point",
              file=sys.stderr)
        return 3
    return 0


def _build_grid(cfg: dict) -> DirectionGrid:
    grid = _object(cfg.get("grid", {}), "grid", _GRID_KEYS)
    layout = _GRID_KEYS[2:]
    if set(grid) & set(layout) and set(grid) != set(layout):
        raise ValueError(f"grid gives {sorted(grid)}; give all of {list(layout)} or only m, n")
    try:
        if layout[0] in grid:
            return DirectionGrid(*(grid[key] for key in layout))
        return DirectionGrid.product(grid.get("m", 2500), grid.get("n", 2500))
    except ValueError as e:
        raise ValueError(f"invalid grid: {e}") from e


def run_estimate(cfg: dict, out: str | None) -> int:
    _object(cfg, "config", _ESTIMATE_KEYS)
    strategy = cfg.get("strategy", "sequential")
    selector(strategy)
    g_t, g_r = _build_arrays(cfg)
    paths = _build_paths(cfg, g_t, g_r)
    H = synthesize(paths, g_r, g_t)
    setup = _parse_observation(cfg, g_t, g_r, H.vector)
    P_budget = as_int(cfg.get("P_budget", 10), "P_budget")
    seed = as_int(cfg.get("seed", 0), "seed")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    grid = _build_grid(cfg)
    Y = observe(H, setup, np.random.default_rng([seed, 1]))
    dictionary = build_dictionaries(grid, setup, g_r, g_t)
    report = matching_pursuit(Y, dictionary, P_budget, strategy)
    row = {"strategy": strategy, **asdict(report.reading(P_budget, H, g_r, g_t))}
    payload = dict(row, estimated_paths=[p.to_json() for p in report.estimated])
    if out is None:
        _write_json(payload, None)
    else:
        _write_outputs(payload, [row], out)
    return 0


def run_bench(cfg: dict, out: str | None, threads: int, emit_table: bool) -> int:
    if threads < 1:
        raise ValueError(f"--threads must be a positive worker count, got {threads}")
    try:
        scen = ScenarioConfig.from_json(cfg)
    except ValueError as e:
        raise ValueError(f"invalid scenario config: {e}") from e
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
    """The one place a ValueError or an OSError (an unwritable --out) becomes exit 2."""
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        _apply_overrides(cfg, args.overrides)
        if args.command == "crb":
            return run_crb(cfg, args.out, args.strict)
        if args.command == "estimate":
            return run_estimate(cfg, args.out)
        return run_bench(cfg, args.out, args.threads, args.emit_table)
    except (ValueError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
