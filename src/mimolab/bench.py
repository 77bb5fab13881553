"""Clustered multipath scenarios and seeded Monte-Carlo estimator benchmarks.

Synthetic channels follow a clustered draw: cluster-center directions
uniform on the front hemisphere, per-path Gaussian angular jitter, uniform
phases, and exponentially decaying per-cluster powers. Each trial seeds the
path generator and the observation noise independently, so a configuration
(including its base seed) pins the whole experiment bit for bit, wall-clock
timings aside.
"""

from __future__ import annotations

import io
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .blas import blas_threads, one_blas_thread
from .channel import ChannelMatrix, PathParams, PathSet, synthesize
from .estimation import (_SELECTORS, Dictionary, DirectionGrid, Reading, build_dictionaries,
                         matching_pursuit)
from .fim import CrbResult, channel_jacobian, crb_trace, fisher_factor, optimal_bound
from .geometry import HALF_PI, TWO_PI, ArrayGeometry, Direction, as_int, is_finite_real
from .observation import identity_setup, noise_for_snr, observe
from .workers import Helpers, shared_map

KNOWN_STRATEGIES = tuple(_SELECTORS)


def _default_square_upa(n_antennas: int) -> dict:
    side = math.isqrt(n_antennas)
    if side * side != n_antennas:
        raise ValueError(f"no array spec given and {n_antennas} antennas do not "
                         "form a square planar array")
    return {"type": "upa", "nx": side, "ny": side, "spacing": 0.5, "plane": "yz"}


@dataclass
class ScenarioConfig:
    """Everything a benchmark run depends on, JSON-round-trippable.

    tx_array / rx_array take the geometry JSON spec; when omitted, square
    half-wavelength planar arrays in the yz plane are assumed (requires
    square antenna counts). The physical path count is n_clusters *
    paths_per_cluster and may exceed every estimation budget.
    """

    n_t: int
    n_r: int
    tx_array: dict | None = None
    rx_array: dict | None = None
    n_clusters: int = 8
    paths_per_cluster: int = 5
    angular_spread_deg: float = 5.0
    gain_decay_db_per_cluster: float = 5.0
    snr_db: float = 10.0
    m: int = 2500
    n: int = 2500
    P_budgets: tuple[int, ...] = (5, 10, 20)
    strategies: tuple[str, ...] = KNOWN_STRATEGIES
    trials: int = 20
    base_seed: int = 0

    def __post_init__(self):
        for name in ("P_budgets", "strategies"):
            value = getattr(self, name)
            if isinstance(value, str):
                raise ValueError(f"{name} must be a list, not the string {value!r}")
        for name in ("snr_db", "angular_spread_deg", "gain_decay_db_per_cluster"):
            value = getattr(self, name)
            if not is_finite_real(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        self.P_budgets = tuple(as_int(p, "P_budgets") for p in self.P_budgets)
        self.strategies = tuple(self.strategies)
        for name in ("n_t", "n_r", "n_clusters", "paths_per_cluster", "m", "n", "trials"):
            value = as_int(getattr(self, name), name)
            if value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
            setattr(self, name, value)
        if not self.P_budgets or any(p < 1 for p in self.P_budgets):
            raise ValueError("P_budgets must be a non-empty list of positive counts")
        for s in self.strategies:
            if s not in KNOWN_STRATEGIES:
                raise ValueError(f"unknown strategy {s!r}")
        if not self.strategies:
            raise ValueError("at least one strategy is required")
        for name in ("P_budgets", "strategies"):
            value = getattr(self, name)
            if len(set(value)) != len(value):
                raise ValueError(f"{name} must not repeat an entry, got {list(value)}")
        if self.angular_spread_deg < 0 or self.gain_decay_db_per_cluster < 0:
            raise ValueError("angular spread and gain decay must be non-negative")
        if any(math.isqrt(k) ** 2 != k for k in (self.m, self.n)):
            raise ValueError(f"m and n must be perfect squares, got m={self.m}, n={self.n}")
        # keeps the linear SNRs and 1 / snr_linear, a unit-power entry's noise variance, finite
        if not abs(self.snr_db) + 10.0 * math.log10(self.n_r * self.n_t) < 3000.0:
            raise ValueError(f"|snr_db| + 10 log10(n_r n_t) must be below 3000, got {self.snr_db}")
        # below a normal float, a path power (this times a unit-mean draw) may underflow to 0
        weakest = (10.0 ** (-self.gain_decay_db_per_cluster / 10.0)) ** (self.n_clusters - 1)
        if weakest < sys.float_info.min:
            raise ValueError(f"gain_decay_db_per_cluster {self.gain_decay_db_per_cluster} "
                             "underflows the weakest cluster's power")
        self.base_seed = as_int(self.base_seed, "base_seed")
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")
        if self.tx_array is None:
            self.tx_array = _default_square_upa(self.n_t)
        if self.rx_array is None:
            self.rx_array = _default_square_upa(self.n_r)
        g_t, g_r = self.geometries()
        if g_t.n_antennas != self.n_t or g_r.n_antennas != self.n_r:
            raise ValueError("array specs disagree with the declared antenna counts")

    @property
    def physical_paths(self) -> int:
        return self.n_clusters * self.paths_per_cluster

    @property
    def snr_linear(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)

    @property
    def observation_snr_linear(self) -> float:
        """Aggregate SNR alpha2 ||h||^2 / sigma2 implied by the per-entry level.

        snr_db calibrates the noise against the average power of one observed
        pilot entry; summed over the n_r x n_s observation the corresponding
        aggregate quantity (the one the 3P/SNR floor is stated in) is larger
        by that entry count.
        """
        return self.snr_linear * self.n_r * self.n_t

    def geometries(self) -> tuple[ArrayGeometry, ArrayGeometry]:
        """(transmit, receive) geometries resolved from the specs."""
        return ArrayGeometry.from_json(self.tx_array), ArrayGeometry.from_json(self.rx_array)

    def to_json(self) -> dict:
        return dict(asdict(self), P_budgets=list(self.P_budgets),
                    strategies=list(self.strategies))

    @classmethod
    def from_json(cls, obj: dict) -> "ScenarioConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(obj) - known
        if extra:
            raise ValueError(f"unknown scenario config keys: {sorted(extra)}")
        if "n_t" not in obj or "n_r" not in obj:
            raise ValueError("scenario config requires n_t and n_r")
        return cls(**obj)


def _canonical_angles(az: float, el: float) -> tuple[float, float]:
    # fold an out-of-range elevation back over the pole (same unit vector);
    # one fold covers |el| <= 3 pi / 2, beyond that el first drops whole turns
    if abs(el) > 3.0 * HALF_PI:
        el = (el + math.pi) % TWO_PI - math.pi
    if el > HALF_PI:
        el, az = math.pi - el, az + math.pi
    elif el < -HALF_PI:
        el, az = -math.pi - el, az + math.pi
    return az, el


def _hemisphere_point(rng: np.random.Generator) -> tuple[float, float]:
    # area-uniform on the front hemisphere of a yz-plane array
    az = rng.uniform(-HALF_PI, HALF_PI)
    el = math.asin(rng.uniform(-1.0, 1.0))
    return az, el


def generate_paths(cfg: ScenarioConfig, seed: int) -> PathSet:
    """Draw one clustered multipath realization, deterministic in the seed.

    Per cluster: a DoA and a DoD center, then paths_per_cluster paths with
    Gaussian angular jitter around both centers. Path powers multiply the
    cluster's decayed power by a unit-mean exponential draw; magnitudes are
    normalized so the squared gains sum to one, keeping channel energy O(1).
    """
    rng = np.random.default_rng([int(seed), 0])
    spread = math.radians(cfg.angular_spread_deg)
    decay = 10.0 ** (-cfg.gain_decay_db_per_cluster / 10.0)
    records = []
    for k in range(cfg.n_clusters):
        doa_c = _hemisphere_point(rng)
        dod_c = _hemisphere_point(rng)
        cluster_power = decay ** k
        for _ in range(cfg.paths_per_cluster):
            jitter = rng.normal(0.0, spread, size=4) if spread > 0 else np.zeros(4)
            doa = Direction(*_canonical_angles(doa_c[0] + jitter[0], doa_c[1] + jitter[1]))
            dod = Direction(*_canonical_angles(dod_c[0] + jitter[2], dod_c[1] + jitter[3]))
            power = cluster_power * rng.exponential()
            phase = rng.uniform(0.0, TWO_PI)
            records.append((math.sqrt(power), phase, doa, dod))
    total = math.sqrt(sum(r[0] ** 2 for r in records))
    return PathSet(PathParams(rho / total, phase, doa, dod)
                   for rho, phase, doa, dod in records)


@dataclass(frozen=True)
class Scenario:
    """One seed's channel, its full observation and the bound at its true paths.

    The noise level realizes cfg.snr_db per observed entry: each of the
    n_r x n_s received pilot samples carries that SNR on average, the
    conventional way of quoting a training SNR. true_crb is the
    relative-variance bound at the true parameter point; an ill-conditioned
    Fisher matrix there only raises its flag. Y is read-only, since every
    strategy pursues it.
    """

    seed: int
    H: ChannelMatrix
    Y: np.ndarray
    true_crb: CrbResult


def draw_scenario(cfg: ScenarioConfig, seed: int) -> Scenario:
    """Generate, synthesize and observe one channel realization and bound it."""
    g_t, g_r = cfg.geometries()
    paths = generate_paths(cfg, seed)
    H = synthesize(paths, g_r, g_t)
    sigma2 = noise_for_snr(cfg.observation_snr_linear, 1.0, H.vector)
    s = identity_setup(cfg.n_t, cfg.n_r, sigma2)
    Y = observe(H, s, np.random.default_rng([int(seed), 1]))
    Y.setflags(write=False)
    D = channel_jacobian(paths, g_r, g_t)
    return Scenario(seed, H, Y, crb_trace(D, fisher_factor(D, s), H.vector))


@dataclass(frozen=True)
class TrialResult:
    """One (seed, strategy) pursuit read at each budget, in increasing order."""

    strategy: str
    seed: int
    budgets: tuple[Reading, ...]

    def at(self, P: int) -> Reading:
        return {b.P: b for b in self.budgets}[P]


def run_trial(cfg: ScenarioConfig, scenario: Scenario, strategy: str,
              dictionary: Dictionary, pool: Helpers | None = None) -> TrialResult:
    """Estimate the scenario's channel with one pursuit and score it.

    The pursuit runs on the dictionary, built for the scenario's arrays
    under identity observation, to the largest of cfg.P_budgets and is read
    at each: the rMSE of the paths kept so far, the cumulative pursuit time
    and the scores evaluated through that iteration. pool is passed to the
    selector (see estimation.joint_select).
    """
    budgets = sorted(cfg.P_budgets)
    report = matching_pursuit(scenario.Y, dictionary, budgets[-1], strategy, pool=pool)
    g_t, g_r = cfg.geometries()
    return TrialResult(strategy, scenario.seed,
                       tuple(report.reading(P, scenario.H, g_r, g_t) for P in budgets))


@dataclass(frozen=True)
class BenchRow:
    """Per-(strategy, budget) averages over all trial seeds.

    crb_floor is 3 * P_budget / SNR, the bound floor for the model size the
    estimator actually fits; mean_true_crb averages the bound evaluated at
    the generated (physical) parameter points, pseudo-inverse values
    included, with ill_conditioned_trials counting how many were flagged.
    """

    strategy: str
    P_budget: int
    mean_rmse: float
    mean_wall_time_s: float
    mean_score_evals: float
    crb_floor: float
    mean_true_crb: float
    ill_conditioned_trials: int
    trials: int

    def to_json_row(self) -> dict:
        return asdict(self)


def _aggregate(cfg: ScenarioConfig, strategy: str, P_budget: int,
               results: list[TrialResult], true_crbs: list[CrbResult]) -> BenchRow:
    readings = [r.at(P_budget) for r in results]
    return BenchRow(
        strategy=strategy,
        P_budget=P_budget,
        mean_rmse=float(np.mean([b.rmse for b in readings])),
        mean_wall_time_s=float(np.mean([b.wall_time_s for b in readings])),
        mean_score_evals=float(np.mean([b.score_evals for b in readings])),
        crb_floor=optimal_bound(P_budget, cfg.observation_snr_linear),
        mean_true_crb=float(np.mean([c.value for c in true_crbs])),
        ill_conditioned_trials=sum(c.ill_conditioned for c in true_crbs),
        trials=len(results),
    )


def scan_threads(threads: int, trials: int) -> int:
    """Threads each seed's joint screen runs on in monte_carlo(cfg, threads)."""
    return threads // min(threads, trials)


@one_blas_thread
def monte_carlo(cfg: ScenarioConfig, threads: int = 1) -> list[BenchRow]:
    """Average run_trial over trials for every (strategy, budget) pair.

    Trial t draws the scenario of seed base_seed + t (see draw_scenario)
    and runs every strategy on it. At most `threads` threads work at once:
    min(threads, trials) of them take whole seeds, the calling thread among
    them, and each seed's joint screen is split over scan_threads(threads,
    trials) threads, the seed's own and helpers from one pool. With fewer
    trials than threads the joint time column is therefore wall time on
    threads // trials threads; otherwise each seed scans on its own thread.
    Results are reduced in seed order and no pick depends on the split, so
    the rMSE and counter columns are reproducible bit for bit for any
    `threads`; rows come back sorted by (P_budget, strategy). The call runs
    on one BLAS thread (see blas.one_blas_thread): these threads are the
    only parallelism, and the CRB column does not depend on the
    environment's thread count.
    """
    if threads < 1:
        raise ValueError(f"threads must be a positive worker count, got {threads}")
    grid = DirectionGrid.product(cfg.m, cfg.n)
    g_t, g_r = cfg.geometries()
    dictionary = build_dictionaries(grid, identity_setup(cfg.n_t, cfg.n_r, 1.0), g_r, g_t)
    seeds = range(cfg.base_seed, cfg.base_seed + cfg.trials)

    # threads - 1 pool threads besides the caller: seed runners and screen
    # helpers never need more at once, so no task waits for a thread
    with ThreadPoolExecutor(max_workers=max(threads - 1, 1)) as executor:
        scan_pool = Helpers(executor, scan_threads(threads, cfg.trials) - 1)

        def seed_work(seed):
            scenario = draw_scenario(cfg, seed)
            return scenario.true_crb, {s: run_trial(cfg, scenario, s, dictionary, scan_pool)
                                       for s in cfg.strategies}

        per_seed = shared_map(seed_work, seeds, Helpers(executor, threads - 1))
    true_crbs = [crb for crb, _ in per_seed]
    combos = sorted((p, s) for p in cfg.P_budgets for s in cfg.strategies)
    return [_aggregate(cfg, s, p, [trials[s] for _, trials in per_seed], true_crbs)
            for p, s in combos]


def rows_to_json(cfg: ScenarioConfig, rows, threads: int) -> dict:
    """Config, rows and, apart from both, the environment monte_carlo ran in.

    env holds the worker count `threads`, the threads each seed's joint
    screen ran on (see scan_threads), the BLAS threads each call ran on
    (None when no OpenBLAS was found to cap) and the numpy version; it is
    the only part that may differ between machines.
    """
    env = {"trial_workers": threads, "scan_threads": scan_threads(threads, cfg.trials),
           "blas_threads": blas_threads(), "numpy": np.__version__}
    return {"config": cfg.to_json(), "rows": [r.to_json_row() for r in rows], "env": env}


def format_table(rows) -> str:
    """Aligned text table: one line per budget, rMSE/time per strategy."""
    strategies = []
    for r in rows:
        if r.strategy not in strategies:
            strategies.append(r.strategy)
    budgets = sorted({r.P_budget for r in rows})
    cell = {(r.P_budget, r.strategy): r for r in rows}
    out = io.StringIO()
    head1 = f"{'':>8}"
    head2 = f"{'':>8}"
    for s in strategies:
        head1 += f"  {s + ' estimation':<24}"
        head2 += f"  {'rMSE':<10}{'Time (s)':<14}"
    print(head1.rstrip(), file=out)
    print(head2.rstrip(), file=out)
    for p in budgets:
        line = f"{'P=' + str(p):>8}"
        for s in strategies:
            r = cell.get((p, s))
            if r is None:
                line += f"  {'-':<10}{'-':<14}"
            else:
                line += f"  {r.mean_rmse:<10.4f}{r.mean_wall_time_s:<14.3f}"
        print(line.rstrip(), file=out)
    return out.getvalue()
