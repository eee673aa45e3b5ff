"""Experiment pipelines: warm-up -> freeze -> train -> evaluate, plus sweeps.

Every run writes a self-describing directory:

    out/
      config.json        resolved run configuration (scenario inlined)
      run_meta.json      per-seed frozen profiles, optimal actions, phases
      seed_<s>/episodes.csv
      episodes.csv       all seeds concatenated
      summary.csv        eval-phase travel times by group
      convergence.csv    per-episode proportion of AVs on the optimal action
      convergence.svg

Deterministic runs are byte-reproducible: same config, same files. CSV
lines end in CRLF; floats are written as their shortest round-trip ``repr``.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Collection, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .episode import EPISODE_CSV_HEADER, EpisodeLog, episode_csv_lines
from .equilibrium import EquilibriumAnalyzer, encode_action
from .humans import freeze_all, run_warmup
from .learners import TrainResult, train
from .network import ConfigurationError, Scenario, parse_value, reject_unknown_keys
from .plots import Series, bar_plot, line_plot
from .rewards import RewardConfig
from .scenarios import (
    DEFAULT_NOISE_SIGMA,
    scenario_from_dict,
    scenario_to_dict,
    two_route_yield_scenario,
)

SUMMARY_CSV_HEADER = ("group", "mean_travel_time", "std_travel_time")
CONVERGENCE_CSV_HEADER = ("episode", "seed", "phase", "proportion_optimal")
BETA_SUMMARY_CSV_HEADER = (
    "beta",
    "scope",
    "eval_mean_av_travel_time",
    "eval_mean_human_travel_time",
    "eval_proportion_optimal",
    "first_training_episode_at_090",
)
EQUILIBRIA_CSV_HEADER = ("alpha", "beta", "scope", "count", "equilibria")
DEVIATIONS_CSV_HEADER = ("action", "av_id", "delta_seconds", "delta_score", "beta_max")

CONVERGENCE_THRESHOLD = 0.9
CONVERGENCE_WINDOW = 20


@dataclass
class RunConfig:
    """One experiment: scenario, learners, reward, phase lengths, seeds."""

    scenario: Scenario
    learner: dict = field(default_factory=lambda: {"algorithm": "ucb"})
    learners_by_id: dict[int, dict] = field(default_factory=dict)
    reward: RewardConfig = field(default_factory=RewardConfig)
    warmup_days: int = 200
    train_episodes: int = 1100
    eval_episodes: int = 100
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    mode: str = "deterministic"
    noise_sigma: float | None = None
    out_dir: Path = Path("runs/run")
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("deterministic", "stochastic"):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        for name in ("warmup_days", "train_episodes", "eval_episodes"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if not self.seeds:
            raise ConfigurationError("seed list must be non-empty")
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        self.out_dir = Path(self.out_dir)

    @property
    def stochastic(self) -> bool:
        return self.mode == "stochastic"

    def effective_scenario(self) -> Scenario:
        """Apply the mode: zero noise when deterministic, jitter otherwise."""
        if not self.stochastic:
            return self.scenario.with_noise(0.0)
        if self.noise_sigma is not None:
            return self.scenario.with_noise(self.noise_sigma)
        if self.scenario.noise_sigma > 0:
            return self.scenario
        return self.scenario.with_noise(DEFAULT_NOISE_SIGMA)

    def learner_specs(self, scenario: Scenario) -> dict[int, dict]:
        specs = {}
        for av in scenario.av_ids:
            specs[av] = dict(self.learners_by_id.get(av, self.learner))
        return specs

    def to_dict(self) -> dict:
        return {
            "scenario": scenario_to_dict(self.scenario),
            "learner": self.learner,
            "learners": {str(k): v for k, v in self.learners_by_id.items()},
            "reward": {
                "alpha": self.reward.alpha,
                "beta": self.reward.beta,
                "scope": self.reward.scope,
                "tanh_scale": self.reward.tanh_scale,
                "raw_sum": self.reward.raw_sum,
            },
            "warmup_days": self.warmup_days,
            "train_episodes": self.train_episodes,
            "eval_episodes": self.eval_episodes,
            "seeds": list(self.seeds),
            "mode": self.mode,
            "noise_sigma": self.noise_sigma,
            "out_dir": str(self.out_dir),
            "jobs": self.jobs,
        }


RUN_CONFIG_KEYS = (
    "scenario",
    "learner",
    "learners",
    "reward",
    "warmup_days",
    "train_episodes",
    "eval_episodes",
    "seeds",
    "mode",
    "noise_sigma",
    "out_dir",
    "jobs",
)
REWARD_KEYS = ("alpha", "beta", "scope", "tanh_scale", "raw_sum")


def config_from_dict(doc: Mapping, base_dir: Path | None = None) -> RunConfig:
    reject_unknown_keys(doc, RUN_CONFIG_KEYS, "run config")
    scenario_field = doc.get("scenario")
    if scenario_field is None:
        scenario = two_route_yield_scenario()
    elif isinstance(scenario_field, str):
        path = Path(scenario_field)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        with open(path, encoding="utf-8") as handle:
            scenario = scenario_from_dict(json.load(handle))
    else:
        scenario = scenario_from_dict(scenario_field)
    reward_doc = parse_value(dict, doc.get("reward", {}), "reward")
    reject_unknown_keys(reward_doc, REWARD_KEYS, "reward")
    reward = RewardConfig(
        alpha=parse_value(float, reward_doc.get("alpha", 1.0), "reward alpha"),
        beta=parse_value(float, reward_doc.get("beta", 0.0), "reward beta"),
        scope=str(reward_doc.get("scope", "av-group")),
        tanh_scale=parse_value(float, reward_doc.get("tanh_scale", 1.0), "reward tanh_scale"),
        raw_sum=parse_value(bool, reward_doc.get("raw_sum", False), "reward raw_sum"),
    )
    noise = doc.get("noise_sigma")
    seeds = parse_value(tuple, doc.get("seeds", (0, 1, 2, 3, 4)), "seeds")
    return RunConfig(
        scenario=scenario,
        learner=parse_value(dict, doc.get("learner", {"algorithm": "ucb"}), "learner"),
        learners_by_id={
            parse_value(int, k, "learners"): parse_value(dict, v, f"learners {k}")
            for k, v in parse_value(dict, doc.get("learners", {}), "learners").items()
        },
        reward=reward,
        warmup_days=parse_value(int, doc.get("warmup_days", 200), "warmup_days"),
        train_episodes=parse_value(int, doc.get("train_episodes", 1100), "train_episodes"),
        eval_episodes=parse_value(int, doc.get("eval_episodes", 100), "eval_episodes"),
        seeds=tuple(parse_value(int, s, "seeds") for s in seeds),
        mode=str(doc.get("mode", "deterministic")),
        noise_sigma=None if noise is None else parse_value(float, noise, "noise_sigma"),
        out_dir=Path(doc.get("out_dir", "runs/run")),
        jobs=parse_value(int, doc.get("jobs", 1), "jobs"),
    )


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    with open(path, encoding="utf-8") as handle:
        return config_from_dict(json.load(handle), base_dir=path.parent)


# -- single-seed pipeline ---------------------------------------------------


@dataclass
class SeedRun:
    seed: int
    scenario: Scenario
    warmup_logs: list[EpisodeLog]
    result: TrainResult
    frozen_profile: dict[int, int]
    optimal_actions: dict[int, int] = field(default_factory=dict)  # set by run_experiment

    @property
    def all_logs(self) -> list[EpisodeLog]:
        return self.warmup_logs + self.result.train_logs + self.result.eval_logs

    def proportions(self) -> list[tuple[int, str, float]]:
        """(episode, phase, fraction of AVs on their optimal action) rows."""
        ids = self.scenario.ids
        targets = [(ids.index(av), route) for av, route in self.optimal_actions.items()]
        return [
            (log.episode, phase, proportion_optimal(log.routes, targets))
            for phase, logs in (
                ("train", self.result.train_logs),
                ("eval", self.result.eval_logs),
            )
            for log in logs
        ]


def proportion_optimal(routes, targets: Collection[tuple]) -> float:
    """Fraction of the (key, optimal route) ``targets`` met by ``routes``, by slot or by id."""
    return sum(1 for key, route in targets if routes[key] == route) / len(targets)


def _optimal_actions(
    scenario: Scenario, frozen_profile: Mapping[int, int]
) -> dict[int, int]:
    """Per-AV route in the system optimum of the noise-free game.

    When several joint actions tie for the optimum, the first of them in
    enumeration order (``itertools.product`` over the AV action spaces, the
    last AV varying fastest) is the target. Falls back to each AV's
    free-flow fastest route when the joint-action space is too large to
    enumerate.
    """
    try:
        analyzer = EquilibriumAnalyzer(scenario.with_noise(0.0), frozen_profile)
        optima, _ = analyzer.system_optimum("system")
        return dict(zip(analyzer.av_ids, optima[0]))
    except ConfigurationError:
        best = {}
        for av in scenario.av_ids:
            spec = scenario.agent(av)
            best[av] = min(
                spec.action_space,
                key=lambda r: scenario.network.routes[r].pre_merge_time,
            )
        return best


def run_seed(config: RunConfig, scenario: Scenario, seed: int) -> SeedRun:
    humans, warmup_logs = run_warmup(
        scenario,
        config.warmup_days,
        seed,
        stochastic=config.stochastic,
    )
    profile = freeze_all(humans)
    frozen_humans = {i: profile[i] for i in scenario.human_ids}
    result = train(
        scenario,
        config.learner_specs(scenario),
        config.reward,
        config.train_episodes,
        config.eval_episodes,
        seed,
        frozen_humans,
        stochastic=config.stochastic,
        episode_offset=config.warmup_days,
    )
    return SeedRun(seed, scenario, warmup_logs, result, frozen_humans)


# -- experiment (multi-seed) --------------------------------------------------


@dataclass
class ExperimentResult:
    config: RunConfig
    scenario: Scenario
    seed_runs: list[SeedRun]
    out_dir: Path

    def eval_times_by_kind(self) -> dict[str, list[float]]:
        pooled: dict[str, list[float]] = {"av": [], "human": []}
        kinds = [a.kind for a in self.scenario.agents]
        for run in self.seed_runs:
            for log in run.result.eval_logs:
                for kind, t in zip(kinds, log.times):
                    pooled[kind].append(t)
        return pooled

    def eval_proportion_optimal(self) -> float:
        values = [
            p for run in self.seed_runs for (_, phase, p) in run.proportions() if phase == "eval"
        ]
        return float(np.mean(values)) if values else math.nan

    def mean_training_proportions(self) -> list[float]:
        """Seed-averaged proportion on the optimal action per training episode."""
        per_seed = []
        for run in self.seed_runs:
            per_seed.append([p for (_, phase, p) in run.proportions() if phase == "train"])
        if not per_seed or not per_seed[0]:
            return []
        return [float(np.mean(col)) for col in zip(*per_seed)]

    def first_convergence_episode(
        self,
        threshold: float = CONVERGENCE_THRESHOLD,
        window: int = CONVERGENCE_WINDOW,
    ) -> int | None:
        """First training episode whose trailing full-window mean proportion
        reaches the threshold; None when it never does."""
        series = self.mean_training_proportions()
        for e in range(window - 1, len(series)):
            if float(np.mean(series[e - window + 1 : e + 1])) >= threshold:
                return e
        return None


def run_experiment(config: RunConfig, write: bool = True) -> ExperimentResult:
    scenario = config.effective_scenario()
    if not scenario.av_ids:
        raise ConfigurationError("training needs at least one AV in the scenario")
    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            seed_runs = list(
                pool.map(lambda s: run_seed(config, scenario, s), config.seeds)
            )
    else:
        seed_runs = [run_seed(config, scenario, s) for s in config.seeds]
    # Seeds mostly freeze the same humans: one optimum per frozen profile.
    optima: dict[tuple, dict[int, int]] = {}
    for run in seed_runs:
        key = tuple(run.frozen_profile.items())
        if key not in optima:
            optima[key] = _optimal_actions(scenario, run.frozen_profile)
        run.optimal_actions = optima[key]
    result = ExperimentResult(
        config=config, scenario=scenario, seed_runs=seed_runs, out_dir=config.out_dir
    )
    if write:
        write_experiment(result)
    return result


# -- artifact writers ---------------------------------------------------------


def _csv_lines(rows: Iterable[Sequence]) -> Iterator[str]:
    """One CSV line per row, each cell formatted by ``_cell``."""
    line: list[str] = []
    writer = csv.writer(SimpleNamespace(write=line.append))
    for row in rows:
        writer.writerow([_cell(value) for value in row])
        yield line.pop()


def _open_csv(path: Path) -> TextIO:
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", newline="", encoding="utf-8")


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with _open_csv(path) as handle:
        handle.writelines(_csv_lines(itertools.chain([header], rows)))


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def summary_from_times(times_by_kind: Mapping[str, Sequence[float]]) -> list[list]:
    rows = []
    for group, key in (("avs", "av"), ("humans", "human")):
        values = times_by_kind.get(key, [])
        if values:
            rows.append([group, float(np.mean(values)), float(np.std(values))])
        else:
            rows.append([group, math.nan, math.nan])
    return rows


def write_experiment(result: ExperimentResult) -> None:
    out = result.out_dir
    out.mkdir(parents=True, exist_ok=True)
    config_doc = result.config.to_dict()
    with open(out / "config.json", "w", encoding="utf-8") as handle:
        json.dump(config_doc, handle, indent=2, sort_keys=True)
        handle.write("\n")

    meta = {
        "seed_order": list(result.config.seeds),
        "phases": {
            "warmup": [0, result.config.warmup_days],
            "train": [
                result.config.warmup_days,
                result.config.warmup_days + result.config.train_episodes,
            ],
            "eval": [
                result.config.warmup_days + result.config.train_episodes,
                result.config.warmup_days
                + result.config.train_episodes
                + result.config.eval_episodes,
            ],
        },
        "seeds": {
            str(run.seed): {
                "frozen_profile": {str(k): v for k, v in run.frozen_profile.items()},
                "optimal_actions": {str(k): v for k, v in run.optimal_actions.items()},
                "simulations_run": run.result.simulations_run,
            }
            for run in result.seed_runs
        },
    }
    with open(out / "run_meta.json", "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # Each episode row is formatted once and written to both episode files.
    header = next(_csv_lines([EPISODE_CSV_HEADER]))
    with _open_csv(out / "episodes.csv") as combined:
        combined.write(header)
        for run in result.seed_runs:
            with _open_csv(out / f"seed_{run.seed}" / "episodes.csv") as per_seed:
                per_seed.write(header)
                for line in episode_csv_lines(run.all_logs, result.scenario, "\r\n"):
                    per_seed.write(line)
                    combined.write(line)

    _write_csv(
        out / "summary.csv",
        SUMMARY_CSV_HEADER,
        summary_from_times(result.eval_times_by_kind()),
    )

    proportions = [run.proportions() for run in result.seed_runs]
    convergence_rows = []
    for run, points in zip(result.seed_runs, proportions):
        for episode, phase, proportion in points:
            convergence_rows.append([episode, run.seed, phase, proportion])
    _write_csv(out / "convergence.csv", CONVERGENCE_CSV_HEADER, convergence_rows)

    with open(out / "convergence.svg", "w", encoding="utf-8") as handle:
        handle.write(convergence_svg(proportions))


def convergence_svg(proportions: Sequence[list[tuple[int, str, float]]]) -> str:
    """Per-seed proportion curves plus their mean, from ``SeedRun.proportions`` rows."""
    series = []
    for points in proportions:
        series.append(
            Series(
                label="",
                xs=[float(e) for (e, _, _) in points],
                ys=[p for (_, _, p) in points],
                color="#9ecae1",
                width=0.9,
                opacity=0.8,
            )
        )
    per_episode: dict[int, list[float]] = {}
    for points in proportions:
        for episode, _, proportion in points:
            per_episode.setdefault(episode, []).append(proportion)
    episodes = sorted(per_episode)
    series.append(
        Series(
            label="mean over seeds",
            xs=[float(e) for e in episodes],
            ys=[float(np.mean(per_episode[e])) for e in episodes],
            color="#1f77b4",
            width=2.2,
        )
    )
    return line_plot(
        series,
        title="Proportion of AVs on the system-optimal route",
        xlabel="episode",
        ylabel="proportion on optimal route",
        y_range=(0.0, 1.02),
    )


# -- beta sweep ---------------------------------------------------------------


def sweep_beta(config: RunConfig, betas: Sequence[float]) -> dict[float, ExperimentResult]:
    if not betas:
        raise ConfigurationError("beta sweep needs a non-empty list of beta values")
    out = Path(config.out_dir)

    def sub_config(beta: float) -> RunConfig:
        return dataclasses.replace(
            config,
            reward=dataclasses.replace(config.reward, beta=beta),
            out_dir=out / f"beta_{beta:g}",
            jobs=1,
        )

    if config.jobs > 1:
        # Sweep points share the jobs budget; per-run output directories are
        # disjoint, so concurrent writes cannot collide.
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            runs = list(pool.map(lambda b: run_experiment(sub_config(b)), betas))
    else:
        runs = [run_experiment(sub_config(beta)) for beta in betas]
    results = dict(zip(betas, runs))

    rows = []
    for beta in betas:
        result = results[beta]
        pooled = result.eval_times_by_kind()
        first = result.first_convergence_episode()
        rows.append(
            [
                float(beta),
                config.reward.scope,
                float(np.mean(pooled["av"])) if pooled["av"] else math.nan,
                float(np.mean(pooled["human"])) if pooled["human"] else math.nan,
                result.eval_proportion_optimal(),
                first,
            ]
        )
    _write_csv(out / "beta_summary.csv", BETA_SUMMARY_CSV_HEADER, rows)

    overlay = []
    for k, beta in enumerate(betas):
        series = results[beta].mean_training_proportions()
        overlay.append(
            Series(
                label=f"beta={beta:g}",
                xs=[float(e) for e in range(len(series))],
                ys=series,
            )
        )
    with open(out / "convergence_overlay.svg", "w", encoding="utf-8") as handle:
        handle.write(
            line_plot(
                overlay,
                title="Convergence by shaping coefficient",
                xlabel="training episode",
                ylabel="proportion on optimal route",
                y_range=(0.0, 1.02),
            )
        )
    return results


# -- equilibrium grid ---------------------------------------------------------


def equilibrium_grid(
    config: RunConfig,
    alphas: Sequence[float],
    betas: Sequence[float],
    scope: str = "av-group",
) -> list[dict]:
    """Enumerate Nash equilibria for each (alpha, beta); write CSVs + plot."""
    if not alphas or not betas:
        raise ConfigurationError("equilibria grid needs non-empty alpha and beta lists")
    scenario = config.scenario.with_noise(0.0)
    humans, _ = run_warmup(scenario, config.warmup_days, config.seeds[0])
    profile = freeze_all(humans)
    frozen_humans = {i: profile[i] for i in scenario.human_ids}
    analyzer = EquilibriumAnalyzer(scenario, frozen_humans)

    out = Path(config.out_dir)
    canonical = dataclasses.replace(config.reward, alpha=1.0, beta=1.0, scope=scope)
    if canonical.needs_intrinsic and any(betas):
        # The shaped fill also simulates every full run: run it before any selfish point.
        analyzer.reward_table(canonical)
    rows = []
    grid_results = []
    for alpha in alphas:
        for beta in betas:
            reward = dataclasses.replace(config.reward, alpha=alpha, beta=beta, scope=scope)
            report = analyzer.enumerate_nash(reward, include_deviations=False)
            encoded = ";".join(encode_action(a) for a in report.equilibria)
            rows.append([float(alpha), float(beta), scope, report.count, encoded])
            grid_results.append(
                {
                    "alpha": alpha,
                    "beta": beta,
                    "scope": scope,
                    "count": report.count,
                    "equilibria": report.equilibria,
                    "optima": report.optima,
                    "optimum_total_time": report.optimum_total_time,
                }
            )
    _write_csv(out / "equilibria.csv", EQUILIBRIA_CSV_HEADER, rows)

    # Deviation terms do not depend on (alpha, beta); the threshold column is
    # reported at alpha = 1, the canonical unshaped preference.
    if scope != "none" and all(len(s) == 2 for s in analyzer.spaces):
        with _open_csv(out / "deviations.csv") as handle:
            handle.write(next(_csv_lines([DEVIATIONS_CSV_HEADER])))
            # No cell needs quoting: codes, ids and floats hold no comma, quote or newline.
            records = analyzer.deviation_records(canonical)
            for action, group in itertools.groupby(records, lambda r: r.action):
                code = encode_action(action)
                for r in group:
                    threshold = (
                        "indifferent" if r.beta_threshold is None else repr(r.beta_threshold)
                    )
                    handle.write(
                        f"{code},{r.av_id},{r.delta_seconds!r},{r.delta_score!r},{threshold}\r\n"
                    )

    labels = [f"a={r['alpha']:g},b={r['beta']:g}" for r in grid_results]
    counts = [float(r["count"]) for r in grid_results]
    with open(out / "equilibria.svg", "w", encoding="utf-8") as handle:
        handle.write(
            bar_plot(
                labels,
                counts,
                title="Number of pure Nash equilibria",
                xlabel="(alpha, beta)",
                ylabel="equilibrium count",
            )
        )
    return grid_results


# -- report (recompute derived artifacts from episode logs) -------------------


def regenerate_report(run_dir: str | Path) -> None:
    """Rebuild summary.csv and convergence.csv from episodes.csv.

    The aggregate episodes file holds one block per seed, in the order the
    seeds appear in run_meta.json; each block covers every day of the
    run_meta.json phases once, one row per agent. A file that does not (say
    a truncated or padded one) raises ``ConfigurationError``.
    """
    run_dir = Path(run_dir)
    with open(run_dir / "run_meta.json", encoding="utf-8") as handle:
        meta = json.load(handle)
    train_start, _ = meta["phases"]["train"]
    eval_start, days = meta["phases"]["eval"]
    seeds = [int(s) for s in meta["seed_order"]]

    with open(run_dir / "episodes.csv", newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if tuple(reader.fieldnames or ()) != EPISODE_CSV_HEADER:
            raise ConfigurationError("episodes.csv has an unexpected header")
        rows = list(reader)

    times_by_kind: dict[str, list[float]] = {"av": [], "human": []}
    convergence_rows = []
    start = 0
    for seed in seeds:
        info = meta["seeds"][str(seed)]
        optimal = {int(k): v for k, v in info["optimal_actions"].items()}
        agent_ids = sorted(int(i) for i in (*info["frozen_profile"], *optimal))
        for day in range(days):
            day_rows = rows[start : start + len(agent_ids)]
            start += len(agent_ids)
            chosen = {int(row["agent_id"]): int(row["action"]) for row in day_rows}
            if sorted(chosen) != agent_ids or any(int(row["episode"]) != day for row in day_rows):
                raise ConfigurationError(
                    f"episodes.csv: the block of seed {seed} lacks one row per agent "
                    f"for day {day} of the run_meta.json phases"
                )
            if day >= eval_start:
                for row in day_rows:
                    times_by_kind[row["kind"]].append(float(row["travel_time"]))
            if day >= train_start:
                phase = "eval" if day >= eval_start else "train"
                proportion = proportion_optimal(chosen, optimal.items())
                convergence_rows.append([day, seed, phase, proportion])
    if start != len(rows):
        raise ConfigurationError(
            f"episodes.csv has {len(rows) - start} rows beyond the run_meta.json phases"
        )

    _write_csv(run_dir / "summary.csv", SUMMARY_CSV_HEADER, summary_from_times(times_by_kind))
    _write_csv(run_dir / "convergence.csv", CONVERGENCE_CSV_HEADER, convergence_rows)
