"""Day-to-day route adaptation for human drivers.

Humans keep an exponentially smoothed travel-time estimate per route and
choose epsilon-greedily over it, with epsilon decaying linearly to zero over
the warm-up. Estimates start at free-flow times, which is optimistic and
forces both routes to be sampled early. After the warm-up every human is
frozen to its current best estimate and never adapts again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .episode import EpisodeLog, episode_seed, run_episode
from .network import ConfigurationError, Scenario
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
    frozen: bool = False
    frozen_action: int | None = None

    def best_route(self) -> int:
        # ties go to the first route of the agent's action space
        best = 0
        for k in range(1, len(self.routes)):
            if self.estimates[k] < self.estimates[best]:
                best = k
        return self.routes[best]

    def choose(self, rng: random.Random) -> int:
        if self.frozen:
            assert self.frozen_action is not None
            return self.frozen_action
        if self.epsilon > 0 and rng.random() < self.epsilon:
            return self.routes[rng.randrange(len(self.routes))]
        return self.best_route()

    def update(self, chosen_route: int, experienced_time: float) -> None:
        if self.frozen:
            raise ConfigurationError("cannot update a frozen human state")
        k = self.routes.index(chosen_route)
        self.estimates[k] = (
            (1.0 - self.smoothing) * self.estimates[k]
            + self.smoothing * experienced_time
        )

    def freeze(self) -> None:
        self.frozen_action = self.best_route()
        self.epsilon = 0.0
        self.frozen = True


def initial_human_states(scenario: Scenario) -> dict[int, HumanState]:
    """One state per agent, estimates seeded with free-flow times."""
    states = {}
    for agent in scenario.agents:
        free_flow = [
            scenario.network.routes[r].pre_merge_time + scenario.network.post_merge_time
            for r in agent.action_space
        ]
        states[agent.id] = HumanState(routes=tuple(agent.action_space), estimates=free_flow)
    return states


def freeze_all(humans: dict[int, HumanState]) -> dict[int, int]:
    """Freeze every state; returns the frozen route profile."""
    for state in humans.values():
        state.freeze()
    return {i: state.frozen_action for i, state in humans.items()}


def run_warmup(
    scenario: Scenario, days: int, seed: int
) -> tuple[dict[int, HumanState], list[EpisodeLog]]:
    """Simulate the human learning phase; every agent adapts as a human.

    Returns the (unfrozen) states and the per-day logs. Exploration draws
    come from per-agent streams keyed by (seed, agent id) so one agent's
    trajectory does not depend on how often others draw. A noisy scenario
    (``noise_sigma > 0``) simulates each day under its own ``episode_seed``,
    and the engine is told those seeds up front (``RewardEngine.plan``).
    """
    engine = RewardEngine(scenario, RewardConfig(alpha=1.0, beta=0.0, scope="none"))
    seeds = [episode_seed(seed, day, scenario.noise_sigma > 0) for day in range(days)]
    engine.plan(seeds)
    humans = initial_human_states(scenario)
    # initial_human_states keys the states in departure-slot order.
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
