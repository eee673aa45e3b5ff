"""Day-to-day route adaptation for human drivers.

Humans keep an exponentially smoothed travel-time estimate per route and
choose epsilon-greedily over it, with epsilon decaying linearly to zero over
the warm-up. Estimates start at free-flow times, which is optimistic and
forces both routes to be sampled early. After the warm-up every human is
frozen to its best estimate (``freeze_all``) and never adapts again; with
epsilon at zero, ``choose`` already returns that route.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .episode import EpisodeLog, episode_seed, run_episode
from .network import Scenario
from .rewards import RewardConfig, RewardEngine

DEFAULT_SMOOTHING = 0.1
DEFAULT_EPSILON_START = 0.3


@dataclass
class HumanState:
    """Smoothed cost estimates over the agent's allowed routes."""

    routes: tuple[int, ...]
    estimates: list[float]
    smoothing: float = DEFAULT_SMOOTHING
    epsilon: float = DEFAULT_EPSILON_START

    def best_route(self) -> int:
        # ties go to the first route of the agent's action space
        best = 0
        for k in range(1, len(self.routes)):
            if self.estimates[k] < self.estimates[best]:
                best = k
        return self.routes[best]

    def choose(self, rng: random.Random) -> int:
        if self.epsilon > 0 and rng.random() < self.epsilon:
            return self.routes[rng.randrange(len(self.routes))]
        return self.best_route()

    def update(self, chosen_route: int, experienced_time: float) -> None:
        k = self.routes.index(chosen_route)
        self.estimates[k] = (
            (1.0 - self.smoothing) * self.estimates[k]
            + self.smoothing * experienced_time
        )


def freeze_all(humans: dict[int, HumanState]) -> dict[int, int]:
    """The frozen route profile: each state's best route. The states are left as they are."""
    return {i: state.best_route() for i, state in humans.items()}


def run_warmup(
    scenario: Scenario, days: int, seed: int
) -> tuple[dict[int, HumanState], list[EpisodeLog]]:
    """Simulate the human learning phase; every agent adapts as a human.

    Returns the states, which ``freeze_all`` reads, and the per-day logs;
    the last day runs at epsilon 0. Exploration draws
    come from per-agent streams keyed by (seed, agent id) so one agent's
    trajectory does not depend on how often others draw. A noisy scenario
    (``noise_sigma > 0``) simulates each day under its own ``episode_seed``,
    and the engine is told those seeds up front (``RewardEngine.plan``).
    """
    engine = RewardEngine(scenario, RewardConfig(alpha=1.0, beta=0.0, scope="none"))
    seeds = [episode_seed(seed, day, scenario.noise_sigma > 0) for day in range(days)]
    engine.plan(seeds)
    # Estimates start at free-flow times; the states are keyed in departure-slot order.
    net = scenario.network
    humans = {
        agent.id: HumanState(
            tuple(agent.action_space),
            [net.routes[r].pre_merge_time + net.post_merge_time for r in agent.action_space],
        )
        for agent in scenario.agents
    }
    choosers = [
        lambda counts, choose=state.choose, rng=random.Random(f"{seed}:{i}:human"): choose(rng)
        for i, state in humans.items()
    ]
    logs: list[EpisodeLog] = []
    for day, day_seed in enumerate(seeds):
        progress = day / (days - 1) if days > 1 else 1.0
        for state in humans.values():
            state.epsilon = DEFAULT_EPSILON_START * (1.0 - progress)
        log = run_episode(engine, choosers, day, day_seed)
        for state, route, t in zip(humans.values(), log.routes, log.times):
            state.update(route, t)
        logs.append(log)
    return humans, logs
