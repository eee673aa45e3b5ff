"""One-day sequential episode: agents pick routes in departure order.

Each departure slot has one chooser: a fixed route, or a callable asked once
per day with the route counts of everyone who departed earlier (a running
histogram, kept as the day goes). The reward engine then resolves the merge.
Warm-up, training, evaluation and ``routelab simulate`` all play their days
through ``run_episode``.

An ``EpisodeLog`` keeps the day by departure slot: the route tuple, and the
engine's travel-time and AV-score tuples, which a deterministic engine
shares between every log of the same day. Rewards are derived where they
are read: extrinsic is ``-travel_time``, a human's intrinsic term is zero,
and ``shaped = alpha * extrinsic + beta * intrinsic`` under the log's
``RewardConfig``. ``episode_csv_blocks`` streams the logs as CSV, a block per day.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .network import ConfigurationError, Scenario
from .rewards import RewardConfig, RewardEngine, shaped_reward

# A slot's chooser: its fixed route, or a function from the earlier
# departures' route counts to a route.
Chooser = int | Callable[[tuple[int, ...]], int]

EPISODE_CSV_HEADER = (
    "episode",
    "agent_id",
    "kind",
    "action",
    "travel_time",
    "extrinsic",
    "intrinsic",
    "shaped",
    "seed",
)


@dataclass(slots=True)
class EpisodeLog:
    """One day by departure slot (slot ``k`` is ``scenario.agents[k]``)."""

    episode: int
    routes: tuple[int, ...]
    times: tuple[float, ...]  # travel times; shared with the engine's memo
    intrinsic: tuple[float, ...]  # AV scores in ``scenario.av_ids`` order; shared too
    seed: int
    config: RewardConfig  # the day's reward definition, for the derived rewards


def episode_seed(run_seed: int, episode_index: int, stochastic: bool) -> int:
    """Simulation seed of one day: the run seed itself unless noise is on."""
    if not stochastic:
        return run_seed
    return run_seed * 1_000_003 + episode_index + 1


def run_episode(
    engine: RewardEngine, choosers: Sequence[Chooser], episode: int, seed: int
) -> EpisodeLog:
    """Play one day: a route per departure slot, then one engine evaluation.

    ``choosers[k]`` decides slot ``k``. An int is a fixed route, which its
    caller checks once per run. A callable gets the tuple of route counts of
    slots ``0 .. k-1``; the route it returns is checked against the slot's
    action space. The log's reward definition is ``engine.config``.
    """
    scenario = engine.scenario
    counts = [0] * len(scenario.network.routes)
    chosen = []
    for chooser, agent in zip(choosers, scenario.agents, strict=True):
        if isinstance(chooser, int):
            route = chooser
        else:
            route = chooser(tuple(counts))
            if route not in agent.action_space:
                raise ConfigurationError(
                    f"agent {agent.id} chose route {route}, "
                    f"outside its action space {agent.action_space}"
                )
        chosen.append(route)
        counts[route] += 1
    routes = tuple(chosen)
    times, intrinsic = engine.evaluate(routes, seed)
    return EpisodeLog(episode, routes, times, intrinsic, seed, engine.config)


def episode_csv_blocks(
    logs: Iterable[EpisodeLog], scenario: Scenario, end: str
) -> Iterator[str]:
    """One string per log: its agents' CSV lines in departure order, fields
    per EPISODE_CSV_HEADER, each line ending in ``end``.

    Floats are written as their shortest round-trip ``repr``, ints with
    ``str``. No cell needs quoting: ``kind`` is ``human`` or ``av`` and
    every other cell is a number. Travel times are > 0, so extrinsic is
    ``"-" + repr(t)``. A log with the previous log's ``times`` and
    ``intrinsic`` tuples (a deterministic engine's repeated day) and equal
    routes, seed and config reuses its lines with a new episode number.
    """
    av_index = {j: k for k, j in enumerate(scenario.av_ids)}
    agents = [(f",{a.id},{a.kind},", av_index.get(a.id)) for a in scenario.agents]
    previous = None
    for log in logs:
        if not (
            previous is not None
            and log.times is previous.times
            and log.intrinsic is previous.intrinsic
            and (log.routes, log.seed, log.config)
            == (previous.routes, previous.seed, previous.config)
        ):
            seed, config, scores = f",{log.seed}{end}", log.config, log.intrinsic
            parts = [""]  # the episode number goes before each line
            for (cells, k), route, t in zip(agents, log.routes, log.times):
                m = 0.0 if k is None else scores[k]
                time = repr(t)
                extrinsic = "-" + time
                shaped = shaped_reward(-t, m, config)
                shaped = extrinsic if shaped == -t and shaped else repr(shaped)
                parts.append(f"{cells}{route},{time},{extrinsic},{m!r},{shaped}{seed}")
        previous = log
        yield str(log.episode).join(parts)
