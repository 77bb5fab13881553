"""The three workloads: inputs made from a seed, the timed call, the checks.

Each workload prepares a round of operations from the benchmark seed and
the round's index; a run makes whole rounds, each with the same mix of
operations. The package sees only the generated inputs:
ScenarioConfig objects for `bench.monte_carlo`, JSON config files for
`cli.main`. Checks compare outputs with properties the method must have or
with `reference`, never with stored output.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import reference as ref
from mimolab import bench, cli

N_T, N_R = 64, 16
GRID_SIDE = 50                       # 50 x 50 cell centres = the default 2500 grid
M = N = GRID_SIDE * GRID_SIDE
N_CLUSTERS, PATHS_PER_CLUSTER = 8, 5
N_PATHS = N_CLUSTERS * PATHS_PER_CLUSTER
ARRAYS = {"tx": {"type": "upa", "nx": 8, "ny": 8}, "rx": {"type": "upa", "nx": 4, "ny": 4}}
ENTRY_SNR_DB = (0.0, 10.0, 20.0)     # per received entry; estimate_sweep
AGGREGATE_SNR_DB = (20.0, 30.0, 40.0)  # alpha2 ||h||^2 / sigma2; crb_sweep
HYBRID_N_S, HYBRID_N_C = 32, 8
COMBINER_SEED = 2017                 # the hybrid combiners are the same in every run
PICK_REL_TOL = 1e-9


@dataclass
class Op:
    kind: str
    config: object                   # ScenarioConfig, or path of a JSON config
    paths: list = field(default_factory=list)
    out: str = ""
    strict: bool = False
    target_snr: float = 0.0


def _close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol


def _front_point(rng) -> tuple[float, float]:
    return rng.uniform(-math.pi / 2, math.pi / 2), math.asin(rng.uniform(-1.0, 1.0))


def _direction(az: float, el: float) -> dict:
    # fold an elevation past a pole back over it: the same unit vector
    if el > math.pi / 2:
        el, az = math.pi - el, az + math.pi
    elif el < -math.pi / 2:
        el, az = -math.pi - el, az + math.pi
    return {"az": float((az + math.pi) % (2 * math.pi) - math.pi), "el": float(el)}


def clustered_paths(rng) -> list[dict]:
    """40 paths in 8 clusters: 5 degree jitter, 5 dB per-cluster power decay.

    Squared gains sum to one, so every scenario carries unit channel energy.
    """
    spread, decay = math.radians(5.0), 10.0 ** -0.5
    records = []
    for k in range(N_CLUSTERS):
        doa_c, dod_c = _front_point(rng), _front_point(rng)
        for _ in range(PATHS_PER_CLUSTER):
            j = rng.normal(0.0, spread, 4)
            records.append((math.sqrt(decay ** k * rng.exponential()),
                            rng.uniform(0.0, 2 * math.pi),
                            _direction(doa_c[0] + j[0], doa_c[1] + j[1]),
                            _direction(dod_c[0] + j[2], dod_c[1] + j[3])))
    total = math.sqrt(sum(r[0] ** 2 for r in records))
    return [{"rho": rho / total, "phi": phi, "doa": doa, "dod": dod}
            for rho, phi, doa, dod in records]


def grid_centre(rng) -> dict:
    """A direction exactly on a cell centre of the default product grid."""
    ia, ie = rng.integers(0, GRID_SIDE, 2)
    step = math.pi / GRID_SIDE
    return {"az": float(-math.pi / 2 + (ia + 0.5) * step),
            "el": float(-math.pi / 2 + (ie + 0.5) * step)}


def _write_config(workdir: str, name: str, cfg: dict) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


class Workload:
    """One round of operations, the timed call and the checks of its output."""

    name = ""
    entry_name = ""      # span name of the public entry point the run calls
    workers = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed % 2 ** 64      # numpy seeds must be non-negative
        self.workdir = workdir
        self.pos_r = ref.square_upa_positions(N_R)
        self.pos_t = ref.square_upa_positions(N_T)

    def prepare(self, round_index: int = 0) -> list[Op]:
        raise NotImplementedError

    def entry(self):
        raise NotImplementedError

    def call(self, op: Op, entry):
        raise NotImplementedError

    def failed(self, op: Op, result) -> bool:
        return False

    def check(self, op: Op, result) -> list[str]:
        raise NotImplementedError

    def traced_extras(self, results) -> dict[str, float]:
        """The paper's table cells, read off a traced pass; 0 where no table is made."""
        return dict.fromkeys(("bench.pursuit_joint_s", "bench.pursuit_sequential_s",
                              "bench.rmse_joint", "bench.rmse_sequential"), 0.0)


class PaperTable(Workload):
    """monte_carlo at the paper's scale: 64/16 UPAs, 2500x2500 grids, 8x5
    paths, 10 dB per entry, budgets 5/10/20, joint and sequential, one trial
    seed per call, two trial workers on the environment's BLAS threads."""

    name = "paper_table"
    entry_name = "bench.monte_carlo"
    workers = 2
    trials = 1
    first_rows = None
    theorem_tol = None

    def prepare(self, round_index: int = 0) -> list[Op]:
        # Every call repeats the same table, so repeated calls can be
        # checked for identical deterministic columns.
        base_seed = int(np.random.default_rng([self.seed, 0]).integers(0, 1_000_000))
        cfg = bench.ScenarioConfig(n_t=N_T, n_r=N_R, trials=self.trials, base_seed=base_seed)
        return [Op("table", cfg)]

    def entry(self):
        return bench.monte_carlo

    def call(self, op: Op, entry):
        return entry(op.config, threads=self.workers)

    def check(self, op: Op, rows) -> list[str]:
        cfg = op.config
        if self.theorem_tol is None:
            self.theorem_tol = max(
                ref.attainable_accuracy(ref.lossless_fisher_condition(
                    bench.generate_paths(cfg, cfg.base_seed + t).to_json(), self.pos_r, self.pos_t))
                for t in range(cfg.trials))
        problems = check_table(rows, cfg.P_budgets, cfg.strategies, cfg.trials,
                               cfg.snr_linear * N_R * N_T, self.theorem_tol)
        deterministic = [{k: v for k, v in r.to_json_row().items() if k != "mean_wall_time_s"}
                         for r in rows]
        if self.first_rows is None:
            self.first_rows = deterministic
        elif deterministic != self.first_rows:
            problems.append("a repeated monte_carlo call changed a deterministic column")
        return problems

    def traced_extras(self, results) -> dict[str, float]:
        rows = results[0]
        top = max(r.P_budget for r in rows)
        cell = {r.strategy: r for r in rows if r.P_budget == top}
        return {"bench.pursuit_joint_s": cell["joint"].mean_wall_time_s,
                "bench.pursuit_sequential_s": cell["sequential"].mean_wall_time_s,
                "bench.rmse_joint": cell["joint"].mean_rmse,
                "bench.rmse_sequential": cell["sequential"].mean_rmse}


def check_table(rows, budgets, strategies, trials, snr_agg, theorem_tol) -> list[str]:
    """Properties every monte_carlo table must have under full observation.

    theorem_tol is the relative accuracy the true-point bounds can attain
    (`reference.attainable_accuracy` of the worst trial).
    """
    problems = []
    cell = {(r.strategy, r.P_budget): r for r in rows}
    if sorted(cell) != sorted((s, p) for s in strategies for p in budgets):
        return [f"table rows {sorted(cell)} do not cover every strategy and budget"]
    per_pick = {"joint": M * N, "sequential": M + N}
    for (s, p), r in sorted(cell.items()):
        if r.trials != trials:
            problems.append(f"{s} P={p}: {r.trials} trials, expected {trials}")
        if r.mean_score_evals != per_pick[s] * p:
            problems.append(f"{s} P={p}: {r.mean_score_evals} score evaluations, "
                            f"expected {per_pick[s] * p}")
        if not _close(r.crb_floor, 3.0 * p / snr_agg, 1e-12):
            problems.append(f"{s} P={p}: crb_floor {r.crb_floor} is not 3P/SNR")
        # A flagged trial's bound comes from the pseudo-inverse fallback,
        # which loses accuracy a solve keeps (see CHANGES.md, FOUND).
        if (not r.ill_conditioned_trials
                and not _close(r.mean_true_crb, 3.0 * N_PATHS / snr_agg, theorem_tol)):
            problems.append(f"{s} P={p}: mean_true_crb {r.mean_true_crb} is not "
                            f"3*{N_PATHS}/SNR = {3.0 * N_PATHS / snr_agg}")
        if not (math.isfinite(r.mean_rmse) and r.mean_rmse > 0):
            problems.append(f"{s} P={p}: mean_rmse {r.mean_rmse} is not finite and positive")
    # Pursuit can fit noise, so a single trial's rMSE may rise from one budget
    # to the next; from the smallest budget to the largest it must fall.
    lo, hi = min(budgets), max(budgets)
    for s in strategies:
        if len(budgets) > 1 and not cell[(s, hi)].mean_rmse < cell[(s, lo)].mean_rmse:
            problems.append(f"{s}: mean_rmse at P={hi} is not below P={lo}")
    return problems


class EstimateSweep(Workload):
    """In-process `mimolab estimate` calls, sequential strategy, default
    2500x2500 grid: three noisy 40-path scenarios at 0/10/20 dB per
    received entry with P=20, then one noiseless single path on grid cell
    centres with P=1."""

    name = "estimate_sweep"
    entry_name = "cli.main"
    noisy, on_grid = 3, 1

    def prepare(self, round_index: int = 0) -> list[Op]:
        rng = np.random.default_rng([self.seed, 1, round_index])
        gain_db = 10.0 * math.log10(N_R * N_T)
        ops = []
        for k in range(self.noisy + self.on_grid):
            noisy = k < self.noisy
            if noisy:
                paths = clustered_paths(rng)
                obs = {"target_snr_db": ENTRY_SNR_DB[k % len(ENTRY_SNR_DB)] + gain_db}
            else:
                paths = [{"rho": float(rng.uniform(0.5, 2.0)),
                          "phi": float(rng.uniform(0.0, 2 * math.pi)),
                          "doa": grid_centre(rng), "dod": grid_centre(rng)}]
                obs = {"sigma2": 0}
            cfg = {"arrays": ARRAYS, "paths": paths, "observation": obs,
                   "grid": {"m": M, "n": N}, "strategy": "sequential",
                   "P_budget": 20 if noisy else 1,
                   "seed": int(rng.integers(0, 2 ** 31))}
            name = f"estimate_{k}"
            ops.append(Op("noisy" if noisy else "on_grid",
                          _write_config(self.workdir, name, cfg), paths=paths,
                          out=os.path.join(self.workdir, name + "_out")))
        return ops

    def entry(self):
        return cli.main

    def call(self, op: Op, entry):
        return entry(["estimate", "--config", op.config, "--out", op.out])

    def failed(self, op: Op, code) -> bool:
        return code != 0

    def check(self, op: Op, code) -> list[str]:
        with open(op.out + ".json") as fh:
            payload = json.load(fh)
        with open(op.out + ".csv", newline="") as fh:
            csv_rows = list(csv.DictReader(fh))
        P = 20 if op.kind == "noisy" else 1
        return check_estimate(payload, csv_rows, op.paths, P, op.kind == "on_grid",
                              self.pos_r, self.pos_t)


def check_estimate(payload, csv_rows, true_paths, P, noiseless, pos_r, pos_t) -> list[str]:
    problems = []
    if payload["strategy"] != "sequential" or payload["P"] != P:
        problems.append(f"estimate ran {payload['strategy']} P={payload['P']}, "
                        f"expected sequential P={P}")
    if payload["score_evals"] != (M + N) * P:
        problems.append(f"score_evals {payload['score_evals']} != (m+n)P = {(M + N) * P}")
    H = ref.synthesize(true_paths, pos_r, pos_t)
    H_hat = ref.synthesize(payload["estimated_paths"], pos_r, pos_t)
    rmse = ref.relative_error(H, H_hat)
    if not _close(payload["rmse"], rmse, 1e-9, 1e-15):
        problems.append(f"reported rmse {payload['rmse']} != {rmse} recomputed "
                        "from estimated_paths")
    if noiseless and max(payload["rmse"], rmse) > 1e-10:
        problems.append(f"noiseless on-grid path recovered with rmse {payload['rmse']}")
    if len(csv_rows) != 1:
        problems.append(f"CSV holds {len(csv_rows)} rows, expected 1")
    else:
        row = csv_rows[0]
        as_json = {"strategy": row["strategy"], "P": int(row["P"]), "rmse": float(row["rmse"]),
                   "wall_time_s": float(row["wall_time_s"]),
                   "score_evals": int(row["score_evals"])}
        if any(as_json[k] != payload[k] for k in as_json):
            problems.append(f"CSV row {row} disagrees with the JSON output")
    return problems


class CrbSweep(Workload):
    """In-process `mimolab crb` calls on 40-path scenarios: nine with identity
    observation, nine with 32 DFT pilots and 8 fixed random combiners, then
    two `--strict` reports on one well-separated path of gain 1e-7."""

    name = "crb_sweep"
    entry_name = "cli.main"
    identity, hybrid = 9, 9
    strict_paths = (
        {"rho": 1e-7, "phi": 0.3, "doa": {"az": 0.5, "el": -0.2}, "dod": {"az": -1.0, "el": 0.4}},
        {"rho": 1e-7, "phi": 2.0, "doa": {"az": -0.7, "el": 0.3}, "dod": {"az": 0.2, "el": -0.5}},
    )

    def prepare(self, round_index: int = 0) -> list[Op]:
        rng = np.random.default_rng([self.seed, 2, round_index])
        c_rng = np.random.default_rng(COMBINER_SEED)
        W = c_rng.standard_normal((N_R, HYBRID_N_C)) + 1j * c_rng.standard_normal((N_R, HYBRID_N_C))
        W_json = [[[float(z.real), float(z.imag)] for z in row] for row in W]
        ops = []
        for k in range(self.identity + self.hybrid):
            target = AGGREGATE_SNR_DB[k % len(AGGREGATE_SNR_DB)]
            if k < self.identity:
                kind, obs = "identity", {"pilots": "identity", "combiners": "identity"}
            else:
                kind, obs = "hybrid", {"pilots": "orthogonal", "n_s": HYBRID_N_S,
                                       "basis": "dft", "combiners": "explicit", "W": W_json}
            ops.append(self._op(f"crb_{k}", kind, clustered_paths(rng),
                                dict(obs, target_snr_db=target), target))
        for k, path in enumerate(self.strict_paths):
            ops.append(self._op(f"crb_strict_{k}", "identity", [path],
                                {"target_snr_db": 20.0}, 20.0, strict=True))
        return ops

    def _op(self, name, kind, paths, obs, target_db, strict=False) -> Op:
        cfg = {"arrays": ARRAYS, "paths": paths, "observation": obs}
        return Op(kind, _write_config(self.workdir, name, cfg), paths=paths,
                  out=os.path.join(self.workdir, name + "_report.json"), strict=strict,
                  target_snr=10.0 ** (target_db / 10.0))

    def entry(self):
        return cli.main

    def call(self, op: Op, entry):
        argv = ["crb", "--config", op.config, "--out", op.out]
        return entry(argv + ["--strict"] if op.strict else argv)

    def failed(self, op: Op, code) -> bool:
        return code != 0

    def check(self, op: Op, code) -> list[str]:
        with open(op.out) as fh:
            report = json.load(fh)
        tol = 1e-8
        # Only a point near the identifiability limit can miss 1e-8; the
        # conditioning reference costs more than the call, so ask it then.
        if op.kind == "identity" and not _close(report["crb_relative"],
                                                report["floor_3p_over_snr"], tol):
            tol = ref.attainable_accuracy(
                ref.lossless_fisher_condition(op.paths, self.pos_r, self.pos_t))
        return check_crb(report, op.kind, len(op.paths), op.target_snr, tol)


def check_crb(report, kind, n_paths, target_snr, theorem_tol) -> list[str]:
    """theorem_tol: the relative accuracy an identity-observation bound can
    attain (`reference.attainable_accuracy`)."""
    problems = []
    snr, crb, floor = report["snr"], report["crb_relative"], report["floor_3p_over_snr"]
    if report["n_p"] != 6 * n_paths:
        problems.append(f"n_p {report['n_p']} != 6 * {n_paths}")
    if not _close(snr, target_snr, 1e-12):
        problems.append(f"snr {snr} != target {target_snr}")
    if not _close(floor, 3.0 * n_paths / snr, 1e-12):
        problems.append(f"floor {floor} is not 3P/SNR")
    if not (math.isfinite(crb) and crb > 0):
        problems.append(f"crb_relative {crb} is not finite and positive")
    if kind == "identity":
        if not report["ill_conditioned"] and not _close(crb, floor, theorem_tol):
            problems.append(f"identity observation: crb {crb} != floor {floor}")
        if report["optimal_observation_residual"] > 1e-10:
            problems.append("identity observation: residual "
                            f"{report['optimal_observation_residual']} > 1e-10")
    elif not report["ill_conditioned"] and crb < floor * (1.0 - 1e-12):
        problems.append(f"hybrid observation: crb {crb} below the floor {floor}")
    return problems


def check_picks(selections, pos_r, pos_t) -> tuple[int, list[str]]:
    """Check captured selections against brute-force grid scores.

    Assumes full observation (identity pilots and combiners), which both
    workloads that run Matching Pursuit use: the dictionary atoms are then
    the unit-norm steering vectors themselves.
    """
    problems, atoms = [], {}
    for strategy, R, dictionary, sel in selections:
        if id(dictionary) not in atoms:
            A_r = ref.grid_atoms(pos_r, [dictionary.doa_of(i) for i in range(dictionary.m)])
            A_t = ref.grid_atoms(pos_t, [dictionary.dod_of(j) for j in range(dictionary.n)])
            if not (np.allclose(dictionary.K_r, A_r, rtol=0, atol=1e-12)
                    and np.allclose(dictionary.K_t, A_t, rtol=0, atol=1e-12)):
                problems.append("dictionary atoms differ from the reference steering vectors")
            atoms[id(dictionary)] = (A_r, A_t)
        A_r, A_t = atoms[id(dictionary)]
        i, j = sel.doa_index, sel.dod_index
        if strategy == "joint":
            best = ref.joint_scores_max(R, A_r, A_t)
            if not ref.attains(ref.pair_score(R, A_r[:, i], A_t[:, j]), best, PICK_REL_TOL):
                problems.append(f"joint pick ({i}, {j}) misses the brute-force maximum")
        else:
            energy = ref.marginal_energies(R, A_r)
            row = np.abs(A_r[:, i].conj() @ R @ A_t) ** 2
            if not (ref.attains(energy[i], energy.max(), PICK_REL_TOL)
                    and ref.attains(row[j], row.max(), PICK_REL_TOL)):
                problems.append(f"sequential pick ({i}, {j}) misses its stage maxima")
    return len(selections), problems


WORKLOADS = {w.name: w for w in (PaperTable, EstimateSweep, CrbSweep)}
