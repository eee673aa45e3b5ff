"""One-day sequential episode: agents pick routes in departure order.

Each agent is queried exactly once per episode with an observation built
from the choices of everyone who departed earlier, the simulator resolves
the merge, and rewards are attached per agent. Humans always log
``shaped = alpha * extrinsic`` (their intrinsic term is zero); AVs get the
full shaped reward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

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
    """Histogram of the routes chosen by agents that already departed."""
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
    partial: dict[int, int] = {}
    action: dict[int, int] = {}
    for agent in scenario.agents:  # departure order by construction
        observation = build_observation(scenario, partial, agent.id, episode_index)
        route = policies[agent.id](observation)
        if route not in agent.action_space:
            raise ConfigurationError(
                f"policy for agent {agent.id} returned route {route}, "
                f"outside its action space {agent.action_space}"
            )
        action[agent.id] = route
        partial[agent.id] = route

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


def episode_csv_rows(log: EpisodeLog, scenario: Scenario) -> list[dict]:
    """One CSV row per agent, departure order, fields per EPISODE_CSV_HEADER."""
    rows = []
    for agent in scenario.agents:
        rows.append(
            {
                "episode": log.episode,
                "agent_id": agent.id,
                "kind": agent.kind,
                "action": log.action[agent.id],
                "travel_time": log.times[agent.id],
                "extrinsic": log.extrinsic[agent.id],
                "intrinsic": log.intrinsic[agent.id],
                "shaped": log.shaped[agent.id],
                "seed": log.seed,
            }
        )
    return rows
