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
``RewardConfig``. ``episode_csv_blocks`` streams the logs as CSV, a block per day,
and formats a day that recurs anywhere among the logs once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

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

    def __reduce__(self):
        # Pickled as its six fields, cheaper than the slots' state; pickle's
        # memo keeps tuples shared between logs shared after a round trip.
        fields = (self.episode, self.routes, self.times, self.intrinsic, self.seed, self.config)
        return EpisodeLog, fields


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
    logs: Sequence[EpisodeLog], scenario: Scenario, end: str
) -> Iterator[str]:
    """One string per log: its agents' CSV lines in departure order, fields
    per EPISODE_CSV_HEADER, each line ending in ``end``.

    Floats are written as their shortest round-trip ``repr``, ints with
    ``str``. No cell needs quoting: ``kind`` is ``human`` or ``av`` and
    every other cell is a number. Travel times are > 0, so extrinsic is
    ``"-" + repr(t)``. A deterministic engine gives every log of a day the
    same ``times`` and ``intrinsic`` tuples: logs sharing both, with equal
    routes, seed and config, share one formatting wherever they recur. Only
    days whose ``times`` tuple recurs are kept, so a noisy run holds none
    (the logs keep the keyed tuples alive, so their ids stay unique).
    """
    av_index = {j: k for k, j in enumerate(scenario.av_ids)}
    agents = [(f",{a.id},{a.kind},", av_index.get(a.id)) for a in scenario.agents]
    recurring = {t for t, n in Counter(id(log.times) for log in logs).items() if n > 1}
    formatted: dict[tuple, list[str]] = {}
    for log in logs:
        key = None
        if id(log.times) in recurring:
            key = (id(log.times), id(log.intrinsic), log.routes, log.seed, log.config)
        parts = formatted.get(key)
        if parts is None:
            seed, config, scores = f",{log.seed}{end}", log.config, log.intrinsic
            # At alpha 1 a human's shaped reward is -t + beta * 0.0, which is -t.
            plain = config.alpha == 1.0
            parts = [""]  # the episode number goes before each line
            for (cells, k), route, t in zip(agents, log.routes, log.times):
                time = repr(t)
                if k is None and plain:
                    parts.append(f"{cells}{route},{time},-{time},0.0,-{time}{seed}")
                    continue
                m = 0.0 if k is None else scores[k]
                extrinsic = "-" + time
                shaped = shaped_reward(-t, m, config)
                shaped = extrinsic if shaped == -t and shaped else repr(shaped)
                parts.append(f"{cells}{route},{time},{extrinsic},{m!r},{shaped}{seed}")
            if key is not None:
                formatted[key] = parts
        yield str(log.episode).join(parts)
