"""One-day sequential episode: agents pick routes in departure order.

Each agent is queried exactly once per episode with an observation built
from the choices of everyone who departed earlier (a running route
histogram, kept as the day goes), the simulator resolves the merge, and
rewards are attached per agent. Humans always log
``shaped = alpha * extrinsic`` (their intrinsic term is zero); AVs get the
full shaped reward. ``episode_csv_lines`` streams the logs as CSV lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from .network import ConfigurationError, Scenario, TravelTimeVector
from .rewards import RewardConfig, RewardEngine

PolicyFn = Callable[["Observation"], int]

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


@dataclass(frozen=True)
class Observation:
    """What an agent sees before choosing: departures so far, per route."""

    route_counts: tuple[int, ...]
    agent_id: int
    episode: int


@dataclass
class EpisodeLog:
    episode: int
    action: dict[int, int]
    times: TravelTimeVector
    extrinsic: dict[int, float]
    intrinsic: dict[int, float]
    shaped: dict[int, float]
    seed: int


def episode_seed(run_seed: int, episode_index: int, stochastic: bool) -> int:
    """Simulation seed of one day: the run seed itself unless noise is on."""
    if not stochastic:
        return run_seed
    return run_seed * 1_000_003 + episode_index + 1


def build_observation(
    scenario: Scenario,
    partial_choices: Mapping[int, int],
    agent_id: int,
    episode: int = 0,
) -> Observation:
    """Histogram of the routes chosen by agents that already departed.

    ``run_episode`` keeps the same histogram as a running count instead of
    recounting it for every agent.
    """
    counts = [0] * len(scenario.network.routes)
    for route in partial_choices.values():
        counts[route] += 1
    return Observation(route_counts=tuple(counts), agent_id=agent_id, episode=episode)


def run_episode(
    scenario: Scenario,
    policies: Mapping[int, PolicyFn],
    reward_config: RewardConfig,
    episode_index: int,
    seed: int,
    engine: RewardEngine | None = None,
) -> EpisodeLog:
    """Play one day: sequential choices, one simulation, per-agent rewards."""
    if engine is None:
        engine = RewardEngine(scenario, reward_config)
    counts = [0] * len(scenario.network.routes)
    action: dict[int, int] = {}
    for agent in scenario.agents:  # departure order by construction
        route = policies[agent.id](Observation(tuple(counts), agent.id, episode_index))
        if route not in agent.action_space:
            raise ConfigurationError(
                f"policy for agent {agent.id} returned route {route}, "
                f"outside its action space {agent.action_space}"
            )
        action[agent.id] = route
        counts[route] += 1

    times, scores = engine.evaluate(action, seed)
    extrinsic = {i: -t for i, t in times.times.items()}
    intrinsic = {i: scores.get(i, 0.0) for i in times.times}
    shaped = {
        i: reward_config.alpha * extrinsic[i] + reward_config.beta * intrinsic[i]
        for i in times.times
    }
    return EpisodeLog(
        episode=episode_index,
        action=action,
        times=times,
        extrinsic=extrinsic,
        intrinsic=intrinsic,
        shaped=shaped,
        seed=seed,
    )


def episode_csv_lines(
    logs: Iterable[EpisodeLog], scenario: Scenario, end: str
) -> Iterator[str]:
    """One CSV line per agent per log, departure order, fields per
    EPISODE_CSV_HEADER, each line ending in ``end``.

    Floats are written as their shortest round-trip ``repr``, ints with
    ``str``. No cell needs quoting: ``kind`` is ``human`` or ``av`` and
    every other cell is a number.
    """
    agents = [(agent.id, f",{agent.id},{agent.kind},") for agent in scenario.agents]
    for log in logs:
        episode, seed = log.episode, f",{log.seed}{end}"
        action, times = log.action, log.times.times
        extrinsic, intrinsic, shaped = log.extrinsic, log.intrinsic, log.shaped
        for i, cells in agents:
            yield (
                f"{episode}{cells}{action[i]},{times[i]!r},{extrinsic[i]!r},"
                f"{intrinsic[i]!r},{shaped[i]!r}{seed}"
            )
