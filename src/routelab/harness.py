"""Experiment pipelines: warm-up -> freeze -> train -> evaluate, plus sweeps.

Every run writes a self-describing directory:

    out/
      config.json        resolved run configuration (scenario inlined)
      run_meta.json      per-seed frozen profiles, optimal actions, phases
      seed_<s>/episodes.csv  written by the process that ran the seed
      episodes.csv       all seeds concatenated, copied from the seed files
      summary.csv        eval-phase travel times by group
      convergence.csv    per-episode proportion of AVs on the optimal action
      convergence.svg

Deterministic runs are byte-reproducible: same config, same files. CSV
lines end in CRLF; floats are written as their shortest round-trip ``repr``.
A failed run writes no ``config.json``, ``run_meta.json`` or aggregate
file, though a seed that finished may have written its ``seed_<s>`` file.
Every ``seed_<s>`` directory is made before any seed trains.

A seed run is built whole by ``run_seed``, in the process that runs the
seed: warm-up, training, the system optimum and the proportions. One writer
derives the last three files from the seed runs; ``routelab report`` reads
the seed runs back from a run's files and calls it again.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
import operator
import os
import pickle
import shutil
import signal
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, Mapping, NoReturn, Sequence, TextIO

import numpy as np

from .episode import EPISODE_CSV_HEADER, EpisodeLog, episode_csv_blocks
from .equilibrium import (
    EquilibriumAnalyzer,
    EquilibriumReport,
    encode_action,
    enumeration_size,
    join_routes,
)
from .humans import freeze_all, run_warmup
from .learners import TrainResult, make_learner, train
from .network import ConfigurationError, Scenario, parse_value, read_document
from .plots import Series, bar_plot, line_plot
from .rewards import RewardConfig
from .scenarios import (
    DEFAULT_NOISE_SIGMA,
    load_scenario,
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

    scenario: Scenario = field(default_factory=two_route_yield_scenario)
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
        if self.noise_sigma is not None and not 0 <= self.noise_sigma < math.inf:
            raise ConfigurationError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.mode == "stochastic" and self.noise_sigma == 0:
            raise ConfigurationError("stochastic mode needs noise_sigma > 0")
        for name in ("warmup_days", "train_episodes", "eval_episodes"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if not self.seeds:
            raise ConfigurationError("seed list must be non-empty")
        repeated = sorted({s for s in self.seeds if self.seeds.count(s) > 1})
        if repeated:
            raise ConfigurationError(f"seeds {repeated} are listed more than once")
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if self.jobs > 1 and not hasattr(os, "fork"):
            raise ConfigurationError(f"jobs {self.jobs} needs os.fork, which this platform lacks")
        strangers = sorted(set(self.learners_by_id).difference(self.scenario.av_ids))
        if strangers:
            raise ConfigurationError(f"learners {strangers} are not AVs of the scenario")
        for av, spec in self.learner_specs().items():
            make_learner(spec, len(self.scenario.agent(av).action_space))
        self.out_dir = Path(self.out_dir)

    def effective_scenario(self) -> Scenario:
        """Apply the mode: zero noise when deterministic, jitter otherwise."""
        if self.mode == "deterministic":
            return self.scenario.with_noise(0.0)
        if self.noise_sigma is not None:
            return self.scenario.with_noise(self.noise_sigma)
        if self.scenario.noise_sigma > 0:
            return self.scenario
        return self.scenario.with_noise(DEFAULT_NOISE_SIGMA)

    def learner_specs(self) -> dict[int, dict]:
        return {av: dict(self.learners_by_id.get(av, self.learner)) for av in self.scenario.av_ids}

    def to_dict(self) -> dict:
        converted = {
            "scenario": scenario_to_dict(self.scenario),
            "learners": {str(k): v for k, v in self.learners_by_id.items()},
            "reward": dataclasses.asdict(self.reward),
            "seeds": list(self.seeds),
            "out_dir": str(self.out_dir),
        }
        return {
            key: converted[key] if key in converted else getattr(self, key)
            for key in RUN_CONFIG_TYPES
        }


# Each run-config key and the JSON type parse_value reads it as; the reward
# document's keys are RewardConfig's fields.
RUN_CONFIG_TYPES = {
    "scenario": (str, dict),
    "learner": dict,
    "learners": dict,
    "reward": dict,
    "warmup_days": int,
    "train_episodes": int,
    "eval_episodes": int,
    "seeds": tuple,
    "mode": str,
    "noise_sigma": (float, None),
    "out_dir": str,
    "jobs": int,
}
REWARD_TYPES = {"alpha": float, "beta": float, "scope": str, "tanh_scale": float, "raw_sum": bool}


def config_from_dict(doc: Mapping, base_dir: Path | None = None) -> RunConfig:
    fields = read_document(doc, RUN_CONFIG_TYPES, "run config")
    scenario = fields.get("scenario")
    if isinstance(scenario, str):
        path = Path(scenario)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        fields["scenario"] = load_scenario(path)
    elif scenario is not None:
        fields["scenario"] = scenario_from_dict(scenario)
    if "reward" in fields:
        fields["reward"] = RewardConfig(**read_document(fields["reward"], REWARD_TYPES, "reward"))
    if "learners" in fields:
        fields["learners_by_id"] = {
            _learner_id(k): parse_value(dict, v, f"run config learners {k}")
            for k, v in fields.pop("learners").items()
        }
    if "seeds" in fields:
        fields["seeds"] = tuple(parse_value(int, s, "run config seeds") for s in fields["seeds"])
    return RunConfig(**fields)


def _learner_id(key) -> int:
    """An agent id from a ``learners`` object key, which JSON makes a string.

    Only an id's own ASCII spelling is read, so no two keys name one agent.
    """
    if isinstance(key, str) and key.isascii() and key.isdecimal() and key == str(int(key)):
        return int(key)
    raise ConfigurationError(f"learners: cannot read {key!r} as an agent id (no leading zeros)")


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except ValueError as exc:  # not JSON, or an int past Python's int-string digit limit
            raise ConfigurationError(f"{path}: {exc}") from None
    return config_from_dict(doc, base_dir=path.parent)


# -- single-seed pipeline ---------------------------------------------------


@dataclass
class SeedRun:
    """One seed's run, built whole by ``run_seed`` or read back by ``report``.

    ``proportions`` holds ``proportion_rows``: one (episode, phase, fraction
    of AVs on their optimal route) row per train and eval day.
    """

    seed: int
    warmup_logs: list[EpisodeLog]
    result: TrainResult
    frozen_profile: dict[int, int]
    optimal_actions: dict[int, int]
    proportions: list[tuple[int, str, float]]

    @property
    def all_logs(self) -> list[EpisodeLog]:
        return self.warmup_logs + self.result.train_logs + self.result.eval_logs


def proportion_rows(scenario: Scenario, optimal: Mapping[int, int], result: TrainResult) -> list:
    """``SeedRun.proportions``: each train and eval day's share of AVs on their optimal route."""
    targets = [(slot, optimal[av]) for av, slot in zip(scenario.av_ids, scenario.av_slots)]
    return [
        (log.episode, phase, proportion_optimal(log.routes, targets))
        for phase, logs in (("train", result.train_logs), ("eval", result.eval_logs))
        for log in logs
    ]


def proportion_optimal(routes: Sequence[int], targets: Collection[tuple[int, int]]) -> float:
    """Fraction of the (slot, optimal route) ``targets`` met by the day's ``routes``."""
    return sum(1 for slot, route in targets if routes[slot] == route) / len(targets)


def _optimal_actions(scenario: Scenario, frozen_profile: Mapping[int, int]) -> dict[int, int]:
    """Per-AV route in the system optimum of the noise-free game.

    When several joint actions tie for the optimum, the first of them in
    enumeration order (``itertools.product`` over the AV action spaces, the
    last AV varying fastest) is the target. Above ``ENUMERATION_BOUND`` joint
    actions ``enumeration_size`` raises ``ConfigurationError``: there is no optimum.
    """
    analyzer = EquilibriumAnalyzer(scenario.with_noise(0.0), frozen_profile)
    optima, _ = analyzer.system_optimum()
    return dict(zip(analyzer.av_ids, optima[0]))


def freeze_humans(scenario: Scenario, days: int, seed: int) -> tuple[dict, list[EpisodeLog]]:
    """The human warm-up, frozen: each human id's frozen route, and the warm-up day logs."""
    states, logs = run_warmup(scenario, days, seed)
    profile = freeze_all(states)
    return {i: profile[i] for i in scenario.human_ids}, logs


def run_seed(config: RunConfig, scenario: Scenario, seed: int) -> SeedRun:
    """One seed's warm-up, training, optimum and proportions, in that order."""
    frozen_humans, warmup_logs = freeze_humans(scenario, config.warmup_days, seed)
    result = train(
        scenario,
        config.learner_specs(),
        config.reward,
        config.train_episodes,
        config.eval_episodes,
        seed,
        frozen_humans,
        episode_offset=config.warmup_days,
    )
    optimal = _optimal_actions(scenario, frozen_humans)
    proportions = proportion_rows(scenario, optimal, result)
    return SeedRun(seed, warmup_logs, result, frozen_humans, optimal, proportions)


# -- forked workers -----------------------------------------------------------


def fork_map(fn: Callable, items: Sequence, jobs: int) -> list:
    """``[fn(item) for item in items]``, with up to ``jobs`` processes sharing the work.

    The items are split into ``min(jobs, len(items))`` interleaved shares
    (``items[k::n]``). This process runs share 0; each other share runs in a
    forked child, which pickles its results back through a pipe. The results
    come back in input order, so they do not depend on scheduling. An
    exception in any share is raised here, after every child has been reaped.
    A child copies only the calling thread, so call this with no other
    Python threads running.
    """
    n = min(jobs, len(items)) or 1
    children: dict[int, tuple] = {}  # share -> (pid, read end of its pipe)
    try:
        for k in range(1, n):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(fn, items[k::n], write)
            os.close(write)
            children[k] = (pid, os.fdopen(read, "rb"))
        results = [None] * len(items)
        results[0::n] = [fn(item) for item in items[0::n]]
        for k in range(1, n):
            pid, pipe = children[k]
            with pipe:
                reply = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[k]
            if status or not reply:
                raise RuntimeError(
                    f"the worker for {list(items[k::n])} exited with status "
                    f"{os.waitstatus_to_exitcode(status)} without sending its results"
                )
            ok, value = pickle.loads(reply)
            if not ok:
                raise value
            results[k::n] = value
        return results
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child(fn: Callable, share: Sequence, write: int) -> NoReturn:
    """Run one share in a forked child, send its reply and exit, whatever happens."""
    status = 1
    try:
        try:
            reply = pickle.dumps((True, [fn(item) for item in share]))
        except BaseException as exc:
            try:
                reply = pickle.dumps((False, exc))
                pickle.loads(reply)
            except Exception:
                reply = pickle.dumps((False, RuntimeError(repr(exc))))
        with os.fdopen(write, "wb") as pipe:
            pipe.write(reply)
        status = 0
    finally:
        os._exit(status)


# -- experiment (multi-seed) --------------------------------------------------


@dataclass
class ExperimentResult:
    config: RunConfig
    scenario: Scenario
    seed_runs: list[SeedRun]

    @cached_property
    def eval_times_by_kind(self) -> dict[str, list[float]]:
        """Eval-phase travel times of every seed, pooled by agent kind, computed once."""
        pooled: dict[str, list[float]] = {"av": [], "human": []}
        kinds = [a.kind for a in self.scenario.agents]
        for run in self.seed_runs:
            for log in run.result.eval_logs:
                for kind, t in zip(kinds, log.times):
                    pooled[kind].append(t)
        return pooled

    @cached_property
    def summary(self) -> list[list]:
        """summary.csv's rows: each group's eval travel-time mean and std, computed once."""
        pooled = self.eval_times_by_kind
        return [
            [group, float(np.mean(t)), float(np.std(t))] if t else [group, math.nan, math.nan]
            for group, t in (("avs", pooled["av"]), ("humans", pooled["human"]))
        ]

    def eval_proportion_optimal(self) -> float:
        values = [p for run in self.seed_runs for _, phase, p in run.proportions if phase == "eval"]
        return float(np.mean(values)) if values else math.nan

    @cached_property
    def mean_proportions(self) -> list[float]:
        """Each train, then eval, episode's mean over seeds of ``proportions``, computed once."""
        # Every seed has the same episodes: one row per episode, one column per seed.
        rows = [[p for _, _, p in day] for day in zip(*(run.proportions for run in self.seed_runs))]
        return np.array(rows).reshape(len(rows), len(self.seed_runs)).mean(axis=1).tolist()

    def first_convergence_episode(self) -> int | None:
        """First training episode whose trailing ``CONVERGENCE_WINDOW`` mean
        proportion reaches ``CONVERGENCE_THRESHOLD``; None when it never does."""
        series = self.mean_proportions[: self.config.train_episodes]
        window = CONVERGENCE_WINDOW
        for e in range(window - 1, len(series)):
            if float(np.mean(series[e - window + 1 : e + 1])) >= CONVERGENCE_THRESHOLD:
                return e
        return None


def run_experiment(config: RunConfig, write: bool = True) -> ExperimentResult:
    if config.eval_episodes < 1:
        # The summary's means are over the evaluation days; none would make them NaN.
        raise ConfigurationError("training needs eval_episodes >= 1")
    scenario = config.effective_scenario()
    if not scenario.av_ids:
        raise ConfigurationError("training needs at least one AV in the scenario")
    enumeration_size([scenario.agent(av).action_space for av in scenario.av_ids])
    for seed in config.seeds if write else ():  # before any seed trains: making one can fail
        try:
            (config.out_dir / f"seed_{seed}").mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(f"seed {seed} has no usable directory: {exc.strerror}") from None

    def run_share_seed(seed: int) -> SeedRun:
        # In the process that runs this seed's share: the run, then its episode file.
        run = run_seed(config, scenario, seed)
        if write:
            with _open_csv(config.out_dir / f"seed_{seed}" / "episodes.csv") as handle:
                handle.write(_line(EPISODE_CSV_HEADER))
                handle.writelines(episode_csv_blocks(run.all_logs, scenario, "\r\n"))
        return run

    seed_runs = fork_map(run_share_seed, config.seeds, config.jobs)
    result = ExperimentResult(config=config, scenario=scenario, seed_runs=seed_runs)
    if write:
        write_experiment(result)
    return result


# -- artifact writers ---------------------------------------------------------


def _line(row: Sequence) -> str:
    """One CSV line, each cell formatted by ``_cell``; no cell ever needs quoting."""
    return ",".join(map(_cell, row)) + "\r\n"


def _open_csv(path: Path) -> TextIO:
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", newline="", encoding="utf-8")


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with _open_csv(path) as handle:
        handle.writelines(map(_line, itertools.chain([header], rows)))


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def write_experiment(result: ExperimentResult) -> None:
    """Write every file but the ``seed_<s>/episodes.csv`` files, which
    ``run_experiment``'s shares have written: ``episodes.csv`` is their bytes
    in seed order, with the first file's header and no later one's."""
    config = result.config
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "config.json", "w", encoding="utf-8") as handle:
        json.dump(config.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")

    meta = {
        **_meta_from_config(config),
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

    with open(out / "episodes.csv", "wb") as combined:
        for k, run in enumerate(result.seed_runs):
            with open(out / f"seed_{run.seed}" / "episodes.csv", "rb") as per_seed:
                if k:
                    per_seed.readline()  # the header, already written
                shutil.copyfileobj(per_seed, combined)

    _write_derived(result)


def _meta_from_config(config: RunConfig) -> dict:
    """run_meta.json's seed order and phases (each phase's first day and the day after its last)."""
    lengths = (config.warmup_days, config.train_episodes, config.eval_episodes)
    bounds = [0, *itertools.accumulate(lengths)]
    phases = zip(("warmup", "train", "eval"), bounds, bounds[1:])
    return {
        "seed_order": list(config.seeds),
        "phases": {phase: [start, end] for phase, start, end in phases},
    }


def _write_derived(result: ExperimentResult) -> None:
    """summary.csv, convergence.csv and convergence.svg, derived from the seed runs."""
    out = result.config.out_dir
    _write_csv(out / "summary.csv", SUMMARY_CSV_HEADER, result.summary)

    with _open_csv(out / "convergence.csv") as handle:
        handle.write(_line(CONVERGENCE_CSV_HEADER))
        for run in result.seed_runs:
            handle.writelines(f"{e},{run.seed},{phase},{p!r}\r\n" for e, phase, p in run.proportions)

    svg = convergence_svg([run.proportions for run in result.seed_runs], result.mean_proportions)
    (out / "convergence.svg").write_text(svg, encoding="utf-8")


def convergence_svg(proportions: Sequence[list[tuple]], means: list[float]) -> str:
    """Per-seed curves of ``SeedRun.proportions`` rows, plus their per-episode ``means``."""
    series = [
        Series(
            label="",
            xs=[float(e) for (e, _, _) in points],
            ys=[p for (_, _, p) in points],
            color="#9ecae1",
            width=0.9,
            opacity=0.8,
        )
        for points in proportions
    ]
    series.append(
        Series(
            label="mean over seeds",
            xs=[float(e) for (e, _, _) in proportions[0]],
            ys=means,
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
    names = [f"beta_{beta:g}" for beta in betas]
    shared = [beta for beta, name in zip(betas, names) if names.count(name) > 1]
    if shared:
        raise ConfigurationError(f"betas {shared} would share an output directory")

    def sub_config(beta: float) -> RunConfig:
        return dataclasses.replace(
            config,
            reward=dataclasses.replace(config.reward, beta=beta),
            out_dir=out / f"beta_{beta:g}",
            jobs=1,
        )

    # Sweep points share the jobs budget, each point running its seeds in turn.
    # Each point writes its own directory, so forked points cannot collide, and
    # its result comes back with the eval times and proportions it wrote.
    runs = fork_map(lambda beta: run_experiment(sub_config(beta)), betas, config.jobs)
    results = dict(zip(betas, runs))

    rows = []
    for beta in betas:
        result = results[beta]
        (_, av_mean, _), (_, human_mean, _) = result.summary
        rows.append(
            [
                float(beta),
                config.reward.scope,
                av_mean,
                human_mean,
                result.eval_proportion_optimal(),
                result.first_convergence_episode(),
            ]
        )
    _write_csv(out / "beta_summary.csv", BETA_SUMMARY_CSV_HEADER, rows)

    xs = [float(e) for e in range(config.train_episodes)]
    overlay = [
        Series(label=f"beta={beta:g}", xs=xs, ys=results[beta].mean_proportions[: len(xs)])
        for beta in betas
    ]
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
) -> list[EquilibriumReport]:
    """Enumerate Nash equilibria for each (alpha, beta); write CSVs + plot."""
    if not alphas or not betas:
        raise ConfigurationError("equilibria grid needs non-empty alpha and beta lists")
    scenario = config.scenario.with_noise(0.0)
    frozen_humans, _ = freeze_humans(scenario, config.warmup_days, config.seeds[0])
    analyzer = EquilibriumAnalyzer(scenario, frozen_humans)

    out = Path(config.out_dir)
    canonical = dataclasses.replace(config.reward, alpha=1.0, beta=1.0, scope=scope)
    if canonical.needs_intrinsic and any(betas):
        # The shaped fill also simulates every full run: run it before any selfish point.
        analyzer.reward_table(canonical)
    reports = [
        analyzer.enumerate_nash(
            dataclasses.replace(config.reward, alpha=alpha, beta=beta, scope=scope)
        )
        for alpha in alphas
        for beta in betas
    ]
    rows = [
        [float(r.alpha), float(r.beta), scope, r.count, ";".join(map(encode_action, r.equilibria))]
        for r in reports
    ]
    _write_csv(out / "equilibria.csv", EQUILIBRIA_CSV_HEADER, rows)

    # Deviation terms do not depend on (alpha, beta); the threshold column is
    # reported at alpha = 1, the canonical unshaped preference.
    table = None if scope == "none" else analyzer.deviation_records(canonical)
    if table is not None:
        with _open_csv(out / "deviations.csv") as handle:
            handle.write(_line(DEVIATIONS_CSV_HEADER))
            # No cell needs quoting: codes, ids and floats hold no comma, quote or newline.
            # Each (AV, pair) cell that occurs is formatted once, each profile's code built once.
            tails = [
                f",{seconds!r},{score!r},{'indifferent' if t is None else repr(t)}\r\n"
                for (seconds, score), t in zip(table.pairs, table.thresholds)
            ]
            n_pairs = len(tails)
            cells, inverse = np.unique(
                table.index + n_pairs * np.arange(len(analyzer.av_ids)), return_inverse=True
            )
            avs = analyzer.av_ids
            texts = [f",{avs[c // n_pairs]}{tails[c % n_pairs]}" for c in cells.tolist()]
            rows = np.array(texts, dtype=object)[inverse.reshape(table.index.shape)]
            digits = [[str(route) for route in space] for space in analyzer.spaces]
            codes = map(join_routes, itertools.product(*digits))  # encode_action, per profile
            for code, row in zip(codes, rows.tolist()):
                handle.write(code + code.join(row))

    labels = [f"a={r.alpha:g},b={r.beta:g}" for r in reports]
    counts = [float(r.count) for r in reports]
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
    return reports




# -- report (rewrite the derived files from a run's logs) --------------------


def regenerate_report(run_dir: str | Path) -> None:
    """Rewrite summary.csv, convergence.csv and convergence.svg through ``_write_derived``,
    from seed runs rebuilt out of config.json, run_meta.json and episodes.csv. Inputs that
    do not fit config.json raise ``ConfigurationError`` before any file is written."""
    run_dir = Path(run_dir)
    config = dataclasses.replace(load_config(run_dir / "config.json"), out_dir=run_dir)
    scenario = config.effective_scenario()
    meta = json.loads((run_dir / "run_meta.json").read_text(encoding="utf-8"))
    expected = _meta_from_config(config)
    if not isinstance(meta, dict) or {key: meta.get(key) for key in expected} != expected:
        raise ConfigurationError("run_meta.json: seed_order and phases must match config.json")
    (_, train_start), (_, eval_start), (_, days) = expected["phases"].values()

    seed_runs = []
    with open(run_dir / "episodes.csv", newline="", encoding="utf-8") as handle:
        rows = csv.reader(handle)
        if tuple(next(rows, ())) != EPISODE_CSV_HEADER:
            raise ConfigurationError("episodes.csv has an unexpected header")
        for seed in config.seeds:
            frozen, optimal, simulated = _seed_meta(meta, seed, scenario)
            logs = _read_days(rows, days, seed, scenario, config.reward)
            trained = TrainResult(seed, logs[train_start:eval_start], logs[eval_start:], simulated)
            points = proportion_rows(scenario, optimal, trained)
            seed_runs.append(SeedRun(seed, logs[:train_start], trained, frozen, optimal, points))
        if next(rows, None) is not None:
            raise ConfigurationError("episodes.csv has rows beyond the run_meta.json phases")
    _write_derived(ExperimentResult(config, scenario, seed_runs))


def _seed_meta(meta: dict, seed: int, scenario: Scenario) -> tuple[dict, dict, int]:
    """One seed's frozen human routes, optimal AV routes and simulation count in run_meta.json."""
    what = f"run_meta.json seed {seed}"
    try:
        info = meta["seeds"][str(seed)]
        humans, avs = info["frozen_profile"], info["optimal_actions"]
        human_ids, av_ids = scenario.human_ids, scenario.av_ids
        return (
            {i: parse_value(int, humans[str(i)], f"{what} frozen_profile") for i in human_ids},
            {i: parse_value(int, avs[str(i)], f"{what} optimal_actions") for i in av_ids},
            parse_value(int, info["simulations_run"], f"{what} simulations_run"),
        )
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(f"{what}: a missing or malformed entry ({exc})") from None


def _read_days(
    rows: Iterator[list[str]], days: int, seed: int, scenario: Scenario, reward: RewardConfig
) -> list[EpisodeLog]:
    """The next ``days`` blocks of episodes.csv rows, as the logs they were written from."""
    labels = (tuple(map(str, scenario.ids)), tuple(agent.kind for agent in scenario.agents))
    spaces = [agent.action_space for agent in scenario.agents]
    logs = []
    for day in range(days):
        try:
            # One column per field; rows of unequal length raise ValueError.
            episodes, ids, kinds, actions, times, _, scores, _, seeds = zip(
                *itertools.islice(rows, len(spaces)), strict=True
            )
            routes = tuple(map(int, actions))
            if (ids, kinds) == labels and episodes == (str(day),) * len(spaces) and all(
                map(operator.contains, spaces, routes)
            ):
                times = tuple(map(float, times))
                intrinsic = tuple(float(scores[k]) for k in scenario.av_slots)
                logs.append(EpisodeLog(day, routes, times, intrinsic, int(seeds[0]), reward))
                continue
        except ValueError:
            pass
        raise ConfigurationError(
            f"episodes.csv: the block of seed {seed} lacks day {day} of the run_meta.json "
            "phases as one readable row per agent, in departure order"
        )
    return logs
