"""Learning agents for AVs: UCB bandit, tabular Q, and policy gradient.

All three act once per episode on a tiny discrete action space, so tabular
state is enough. Q and policy-gradient condition on the route counts of
earlier departures; UCB ignores them (a pure bandit). Each learner acts on
indices into its AV's action space and exposes ``select`` (training, with
exploration), ``greedy`` (evaluation, exploration-free) and ``update``.

Reward magnitudes vary hugely with the shaping coefficient, so the UCB
index normalises means by their spread before adding the exploration bonus;
otherwise heavily shaped rewards would drown the bonus entirely.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from .episode import EpisodeLog, episode_seed, run_episode
from .network import ConfigurationError, Scenario, read_document
from .rewards import RewardConfig, RewardEngine

ObsKey = tuple[int, ...]


def _argmax_lowest(values: Sequence[float]) -> int:
    best = 0
    for k in range(1, len(values)):
        if values[k] > values[best]:
            best = k
    return best


class UcbLearner:
    """Upper-confidence-bound bandit with incremental means.

    Index = mean + (c / scale) * sqrt(ln(total) / count), where scale is the
    running standard deviation of every reward seen so far (1 until it is
    defined). The scale keeps the exploration bonus meaningful whatever the
    reward magnitude: heavily shaped rewards widen the spread, shrink the
    effective bonus, and cut losses on a clearly bad route sooner. Unpulled
    actions are forced first, lowest index first; ties resolve to the lowest
    action.

    The default coefficient is deliberately large: route-choice gaps span
    tens of seconds, and a timid bonus stops exploring after a handful of
    pulls, which hides the miscoordination dynamics this laboratory studies.
    """

    DEFAULT_C = 150.0

    def __init__(self, n_actions: int, c: float = DEFAULT_C):
        if not 0.0 <= c < math.inf:
            raise ConfigurationError(f"ucb c must be finite and >= 0, got {c}")
        self.n_actions = n_actions
        self.c = c
        self.counts = [0] * n_actions
        self.means = [0.0] * n_actions
        self.total = 0
        self._reward_mean = 0.0
        self._reward_m2 = 0.0

    def select(self, obs_key: ObsKey | None = None, rng: random.Random | None = None) -> int:
        counts = self.counts
        if 0 in counts:
            return counts.index(0)
        total = self.total
        std = math.sqrt(self._reward_m2 / total) if total >= 2 else 0.0
        c_eff = self.c / std if std > 0.0 else self.c  # the scale is 1 while std is undefined or 0
        log_total = math.log(total)
        means = self.means
        best = 0
        top = means[0] + c_eff * math.sqrt(log_total / counts[0])
        for a in range(1, self.n_actions):
            index = means[a] + c_eff * math.sqrt(log_total / counts[a])
            if index > top:  # the first maximum wins, as in _argmax_lowest
                best, top = a, index
        return best

    def greedy(self, obs_key: ObsKey | None = None) -> int:
        return _argmax_lowest(self.means)

    def update(self, obs_key: ObsKey | None, action: int, reward: float) -> None:
        self.counts[action] += 1
        self.total += 1
        self.means[action] += (reward - self.means[action]) / self.counts[action]
        delta = reward - self._reward_mean
        self._reward_mean += delta / self.total
        self._reward_m2 += delta * (reward - self._reward_mean)


class QLearner:
    """Tabular one-step Q-learning keyed by observation tuples.

    The episode ends after a single decision, so the target is just the
    reward (discount 0). Unseen rows start at 0, which is optimistic against
    negative travel-time rewards and makes every action get tried per state.
    """

    def __init__(
        self,
        n_actions: int,
        learning_rate: float = 0.1,
        epsilon_start: float = 0.2,
        epsilon_end: float = 0.0,
    ):
        if not 0.0 < learning_rate <= 1.0:
            raise ConfigurationError(f"q learning_rate must be in (0, 1], got {learning_rate}")
        for name, epsilon in (("epsilon_start", epsilon_start), ("epsilon_end", epsilon_end)):
            if not 0.0 <= epsilon <= 1.0:
                raise ConfigurationError(f"q {name} must be in [0, 1], got {epsilon}")
        self.n_actions = n_actions
        self.learning_rate = learning_rate
        self.epsilon_start = epsilon_start
        self.epsilon_end = epsilon_end
        self.epsilon = epsilon_start
        self.table: dict[ObsKey, list[float]] = {}

    def _row(self, obs_key: ObsKey) -> list[float]:
        return self.table.get(obs_key) or [0.0] * self.n_actions

    def select(self, obs_key: ObsKey, rng: random.Random) -> int:
        if self.epsilon > 0 and rng.random() < self.epsilon:
            return rng.randrange(self.n_actions)
        return _argmax_lowest(self._row(obs_key))

    def greedy(self, obs_key: ObsKey) -> int:
        return _argmax_lowest(self._row(obs_key))

    def update(self, obs_key: ObsKey, action: int, reward: float) -> None:
        row = self.table.setdefault(obs_key, [0.0] * self.n_actions)
        row[action] += self.learning_rate * (reward - row[action])

    def on_episode(self, episode: int, total_episodes: int) -> None:
        if total_episodes > 1:
            progress = episode / (total_episodes - 1)
        else:
            progress = 1.0
        self.epsilon = self.epsilon_start + (self.epsilon_end - self.epsilon_start) * progress


class PolicyGradientLearner:
    """Softmax policy over per-observation preferences with a mean baseline."""

    def __init__(
        self,
        n_actions: int,
        learning_rate: float = 0.01,
        temperature: float = 1.0,
    ):
        for name, value in (("learning_rate", learning_rate), ("temperature", temperature)):
            if not 0.0 < value < math.inf:
                raise ConfigurationError(f"pg {name} must be finite and > 0, got {value}")
        self.n_actions = n_actions
        self.learning_rate = learning_rate
        self.temperature = temperature
        self.preferences: dict[ObsKey, list[float]] = {}
        self.baseline = 0.0
        self.updates = 0

    def _prefs(self, obs_key: ObsKey) -> list[float]:
        return self.preferences.get(obs_key) or [0.0] * self.n_actions

    def probabilities(self, obs_key: ObsKey) -> list[float]:
        prefs = self._prefs(obs_key)
        top = max(prefs)
        weights = [math.exp((p - top) / self.temperature) for p in prefs]
        norm = sum(weights)
        return [w / norm for w in weights]

    def select(self, obs_key: ObsKey, rng: random.Random) -> int:
        probs = self.probabilities(obs_key)
        draw = rng.random()
        running = 0.0
        for a, p in enumerate(probs):
            running += p
            if draw < running:
                return a
        return self.n_actions - 1

    def greedy(self, obs_key: ObsKey) -> int:
        return _argmax_lowest(self._prefs(obs_key))

    def update(self, obs_key: ObsKey, action: int, reward: float) -> None:
        if self.updates == 0:
            self.baseline = reward  # first advantage is zero by construction
        advantage = reward - self.baseline
        probs = self.probabilities(obs_key)
        prefs = self.preferences.setdefault(obs_key, [0.0] * self.n_actions)
        step = self.learning_rate * advantage
        for a in range(self.n_actions):
            if a == action:
                prefs[a] += step * (1.0 - probs[action])
            else:
                prefs[a] -= step * probs[action]
        self.updates += 1
        self.baseline += (reward - self.baseline) / self.updates


class FixedLearner:
    """Constant-action stand-in, useful as a control arm."""

    def __init__(self, n_actions: int, route: int = 0):
        if route not in range(n_actions):
            raise ConfigurationError(f"fixed route {route} is outside range({n_actions})")
        self.route = route

    def select(self, obs_key: ObsKey | None = None, rng: random.Random | None = None) -> int:
        return self.route

    def greedy(self, obs_key: ObsKey | None = None) -> int:
        return self.route

    def update(self, obs_key: ObsKey | None, action: int, reward: float) -> None:
        pass


# Each algorithm's learner class and the JSON type of each hyperparameter it reads.
LEARNERS = {
    "ucb": (UcbLearner, {"c": float}),
    "q": (QLearner, {"learning_rate": float, "epsilon_start": float, "epsilon_end": float}),
    "pg": (PolicyGradientLearner, {"learning_rate": float, "temperature": float}),
    "fixed": (FixedLearner, {"route": int}),
}
ALGORITHMS = tuple(LEARNERS)


def make_learner(spec: Mapping, n_actions: int):
    """Build a learner from its config-JSON spec: {"algorithm": ..., hyperparameters...}."""
    algorithm = spec.get("algorithm")
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(f"unknown algorithm {algorithm!r}; use one of {ALGORITHMS}")
    cls, types = LEARNERS[algorithm]
    hyperparameters = read_document(spec, {"algorithm": str, **types}, f"{algorithm} learner")
    del hyperparameters["algorithm"]
    return cls(n_actions, **hyperparameters)


@dataclass
class TrainResult:
    """Artifacts of one seeded training run (training plus evaluation logs)."""

    seed: int
    train_logs: list[EpisodeLog]
    eval_logs: list[EpisodeLog]
    simulations_run: int


def train(
    scenario: Scenario,
    learner_specs: Mapping[int, Mapping],
    reward_config: RewardConfig,
    train_episodes: int,
    eval_episodes: int,
    seed: int,
    frozen_humans: Mapping[int, int],
    episode_offset: int = 0,
) -> TrainResult:
    """Train AV learners against frozen humans for one seed, then evaluate greedily.

    Training queries ``select`` (with exploration) and updates each learner
    from its shaped reward; evaluation freezes the learners and replays the
    greedy policy with no updates. A learner acts on indices into its AV's
    action space: index ``a`` is route ``action_space[a]``. A noisy scenario
    (``noise_sigma > 0``) simulates each day under its own ``episode_seed``,
    and the engine is told those seeds up front (``RewardEngine.plan``).
    """
    # Frozen humans are fixed routes; each AV gets a training and an evaluation chooser.
    avs = []  # (learner's update, route -> action index, departure slot) in av_ids order
    scheduled = []  # the learners with an on_episode schedule
    seen: list[ObsKey] = []  # per AV: the route counts its training chooser was last given
    training, evaluation = [], []
    for slot, agent in enumerate(scenario.agents):
        space = agent.action_space
        if agent.kind == "human":
            route = frozen_humans.get(agent.id)
            if route not in space:
                raise ConfigurationError(
                    f"human {agent.id} has no frozen route in its action space {space}"
                )
            training.append(route)
            evaluation.append(route)
            continue
        if agent.id not in learner_specs:
            raise ConfigurationError(f"no learner spec for AV {agent.id}")
        learner = make_learner(learner_specs[agent.id], len(space))
        rng = random.Random(f"{seed}:{agent.id}:policy")

        def choose(counts, select=learner.select, r=rng, s=space, k=len(avs)):
            seen[k] = counts  # what update gets after the day
            return s[select(counts, r)]

        training.append(choose)
        seen.append(())
        evaluation.append(lambda counts, f=learner.greedy, s=space: s[f(counts)])
        avs.append((learner.update, {route: a for a, route in enumerate(space)}, slot))
        if hasattr(learner, "on_episode"):
            scheduled.append(learner)

    engine = RewardEngine(scenario, reward_config)
    alpha, beta = reward_config.alpha, reward_config.beta
    stochastic = scenario.noise_sigma > 0
    episodes = range(episode_offset, episode_offset + train_episodes + eval_episodes)
    seeds = [episode_seed(seed, episode, stochastic) for episode in episodes]
    engine.plan(seeds)
    logs: list[EpisodeLog] = []
    for e in range(train_episodes):
        for learner in scheduled:
            learner.on_episode(e, train_episodes)
        log = run_episode(engine, training, episodes[e], seeds[e])
        times, routes = log.times, log.routes
        for (update, index, slot), m, counts in zip(avs, log.intrinsic, seen):
            update(counts, index[routes[slot]], alpha * -times[slot] + beta * m)  # shaped_reward, inline
        logs.append(log)
    for e in range(train_episodes, len(episodes)):
        logs.append(run_episode(engine, evaluation, episodes[e], seeds[e]))

    return TrainResult(
        seed=seed,
        train_logs=logs[:train_episodes],
        eval_logs=logs[train_episodes:],
        simulations_run=engine.simulations_run,
    )
