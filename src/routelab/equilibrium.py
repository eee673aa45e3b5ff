"""Exhaustive game-theoretic analysis of the AV joint-action space.

Humans enter as a frozen route profile (part of the cost structure, not
players); the enumeration ranges over every AV joint action. A profile is a
pure Nash equilibrium when no single AV can improve its shaped reward by
more than a strictness tolerance through a unilateral route switch.

Because the shaped reward is affine in the shaping coefficient,

    delta_r(beta) = alpha * delta_e + beta * delta_m,

the sign of a deviation's value over a range [0, B] is settled at the
endpoints, and when ``delta_e`` and ``delta_m`` disagree in sign there is a
largest coefficient preserving the unshaped preference:
``beta = -alpha * delta_e / delta_m``. ``beta_max`` computes that threshold.

The analyzer exploits the same affinity. It scores every profile once: an
extrinsic table ``E`` (profiles x AVs, minus travel time), the total travel
times, and per externality scope an intrinsic table ``M`` of the same shape.
The rewards at any grid point are then ``alpha * E + beta * M``. The Nash test
compares each profile's row with the rows of its single-AV neighbours, and
the deviation terms are differences of two rows. Each profile is one kernel
call. The run without AV ``k`` does not depend on ``k``'s route, so it is
kept once, as a row of slot ``k``'s counterfactual table (the full run with
``k`` NaN and the sparse entries applied), and every ``M`` is scored from
those tables at once. A selfish setting (beta = 0 or scope "none") builds
no such table, so it costs one simulation per profile.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .network import ConfigurationError, Scenario, counterfactual_row, simulate_slots
# intrinsic_reward is unused here. It stays bound in this module because the
# benchmark's traced pass (perfbench/worker.py) wraps
# equilibrium.intrinsic_reward; without it --trace 1 fails.
from .rewards import RewardConfig, RewardEngine, intrinsic_reward, shaped_reward

DEFAULT_ENUMERATION_BOUND = 2**20
STRICTNESS_TOLERANCE = 1e-9


def beta_max(
    delta_reward: float, delta_c: float, noise_floor: float = STRICTNESS_TOLERANCE
) -> float | None:
    """Largest shaping coefficient keeping sign(delta_r) as at beta = 0.

    Returns ``math.inf`` when the intrinsic change never flips the
    preference, ``None`` when the deviation is indifferent for every beta
    (both terms zero), and 0.0 when only the intrinsic term is nonzero.
    Magnitudes at or below ``noise_floor`` count as exact zeros: summing
    tanh terms leaves ulp-level residue that would otherwise fabricate
    astronomically large thresholds.
    """
    if abs(delta_reward) <= noise_floor:
        delta_reward = 0.0
    if abs(delta_c) <= noise_floor:
        delta_c = 0.0
    if delta_reward == 0.0 and delta_c == 0.0:
        return None
    if delta_c == 0.0:
        return math.inf
    if delta_reward == 0.0:
        return 0.0
    if (delta_c > 0.0) == (delta_reward > 0.0):
        return math.inf
    return -delta_reward / delta_c


@dataclass(frozen=True)
class DeviationRecord:
    """Route-switch terms for one (joint action, AV) pair."""

    action: tuple[int, ...]
    av_id: int
    delta_seconds: float  # travel time on high route minus low route
    delta_score: float  # intrinsic score change across the same switch
    beta_threshold: float | None


@dataclass
class EquilibriumReport:
    alpha: float
    beta: float
    scope: str
    equilibria: list[tuple[int, ...]]
    count: int
    optima: list[tuple[int, ...]]
    optimum_total_time: float
    deviations: list[DeviationRecord]


def encode_action(action: tuple[int, ...]) -> str:
    if all(route < 10 for route in action):
        return "".join(str(route) for route in action)
    return "-".join(str(route) for route in action)


class EquilibriumAnalyzer:
    """Exhaustive analysis of the AV joint-action space over reward tables.

    Profile ``p`` is the ``p``-th joint action in ``itertools.product``
    order: a mixed-radix number whose digit for AV slot ``k`` is the position
    of its route in ``spaces[k]`` and whose last slot varies fastest. Every
    table has one row per profile and one column per AV slot:

    - ``E``: the extrinsic reward, minus each AV's travel time;
    - the totals: total travel time of all drivers and of the AVs only;
    - ``M``: each AV's intrinsic score, one table per (scope, tanh_scale,
      raw_sum), since only those settings change it.

    Each table is filled once, on first use. The shaped rewards for any
    (alpha, beta) are then ``alpha * E + beta * M``.
    """

    def __init__(
        self,
        scenario: Scenario,
        humans_profile: Mapping[int, int],
        bound: int = DEFAULT_ENUMERATION_BOUND,
        seed: int = 0,
    ):
        if scenario.noise_sigma != 0:
            raise ConfigurationError(
                "equilibrium analysis requires deterministic mode (noise_sigma = 0)"
            )
        self.scenario = scenario
        self.humans_profile = dict(humans_profile)
        for human in scenario.human_ids:
            if human not in self.humans_profile:
                raise ConfigurationError(f"no frozen route for human {human}")
        self.av_ids = scenario.av_ids
        self.spaces = [scenario.agent(av).action_space for av in self.av_ids]
        self._strides = []
        size = 1
        for space in reversed(self.spaces):
            self._strides.insert(0, size)
            size *= len(space)
        if size > bound:
            raise ConfigurationError(
                f"joint-action space has {size} profiles, above the bound {bound}; "
                "shrink the scenario or raise the bound"
            )
        self.space_size = size
        self.seed = seed
        # Only its simulations_run is used: the rosters the table fill simulated.
        self.engine = RewardEngine(
            scenario, RewardConfig(alpha=1.0, beta=1.0, scope="system")
        )
        self._ids = scenario.ids
        self._av_columns = [self._ids.index(av) for av in self.av_ids]
        self._full: np.ndarray | None = None  # travel times, profiles x agents
        self._withouts: list[np.ndarray] | None = None  # per slot, runs without it
        self._total_times: np.ndarray | None = None
        self._m: dict[tuple[str, float, bool], np.ndarray] = {}

    # -- joint-action plumbing -------------------------------------------

    def profiles(self):
        return itertools.product(*self.spaces)

    def full_action(self, action: tuple[int, ...]) -> dict[int, int]:
        joint = dict(self.humans_profile)
        joint.update(zip(self.av_ids, action))
        return joint

    def profile_index(self, action: tuple[int, ...]) -> int:
        """Row of ``action`` in every table."""
        return sum(
            space.index(route) * stride
            for space, route, stride in zip(self.spaces, action, self._strides)
        )

    def profile_at(self, index: int) -> tuple[int, ...]:
        """Joint action of table row ``index``."""
        return tuple(
            space[index // stride % len(space)]
            for space, stride in zip(self.spaces, self._strides)
        )

    def _neighbours(self, slot: int, position: int) -> np.ndarray:
        """Row of each profile with AV ``slot`` moved to route ``position``."""
        stride = self._strides[slot]
        rows = np.arange(self.space_size)
        return rows + (position - rows // stride % len(self.spaces[slot])) * stride

    # -- reward tables -----------------------------------------------------

    def _counterfactual_rows(self, slot: int) -> np.ndarray:
        """Row of each profile in slot ``slot``'s counterfactual table."""
        stride = self._strides[slot]
        rows = np.arange(self.space_size)
        return rows // (stride * len(self.spaces[slot])) * stride + rows % stride

    def _simulate(self, counterfactuals: bool) -> None:
        """Full runs and, if asked, counterfactual tables: one kernel call per profile.

        A call removes exactly the AVs at the first route of their space.
        """
        slots = range(len(self.spaces) if counterfactuals else 0)
        rows = [self._counterfactual_rows(k).tolist() for k in slots]
        withouts = [np.empty((self.space_size // len(self.spaces[k]), len(self._ids))) for k in slots]
        full = np.empty((self.space_size, len(self._ids)))
        routes = list(self.scenario.routes_of(self.full_action(self.profile_at(0))))
        for p, action in enumerate(self.profiles()):
            for c, route in zip(self._av_columns, action):
                routes[c] = route
            removed = [k for k in slots if action[k] == self.spaces[k][0]]
            base, sparse = simulate_slots(
                self.scenario, tuple(routes), [self._av_columns[k] for k in removed], self.seed
            )
            full[p] = base
            for k, changes in zip(removed, sparse):
                withouts[k][rows[k][p]] = counterfactual_row(base, self._av_columns[k], changes)
        if self._full is None:
            self.engine.simulations_run += self.space_size
            # Python sums, in departure order.
            self._total_times = np.array(
                [(sum(row), sum(row[c] for c in self._av_columns)) for row in full.tolist()]
            )
        self._full = full
        if counterfactuals:
            self.engine.simulations_run += sum(map(len, withouts))
            self._withouts = withouts

    def _base_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``E`` (minus each AV's travel time) and the totals, one row per profile."""
        if self._full is None:
            self._simulate(counterfactuals=False)
        return -self._full[:, self._av_columns], self._total_times

    def _intrinsic_table(self, config: RewardConfig) -> np.ndarray:
        """``M``: each AV's intrinsic score under ``config``, one row per profile.

        Bit for bit ``rewards.intrinsic_reward``: ``math.tanh`` of each distinct
        difference, summed in row order. No term is -0.0, so the own entry
        (+0.0) and a start at the first term instead of 0.0 change nothing.
        """
        key = (config.scope, config.tanh_scale, config.raw_sum)
        if key not in self._m:
            if self._withouts is None:
                self._simulate(counterfactuals=True)
            scope = self._av_columns if config.scope == "av-group" else slice(None)
            full = self._full[:, scope]
            m = np.empty((self.space_size, len(self.av_ids)))
            for k, without in enumerate(self._withouts):
                deltas = without[self._counterfactual_rows(k)][:, scope] - full
                deltas[np.isnan(deltas)] = 0.0
                if not config.raw_sum:
                    values, inverse = np.unique(deltas / config.tanh_scale, return_inverse=True)
                    terms = np.array([math.tanh(v) for v in values.tolist()])
                    deltas = terms[inverse.reshape(deltas.shape)]
                m[:, k] = np.cumsum(deltas, axis=1)[:, -1]
            self._m[key] = m
        return self._m[key]

    def reward_table(self, config: RewardConfig) -> np.ndarray:
        """Shaped reward of every AV in every profile: ``alpha * E + beta * M``.

        ``M`` is built only when the intrinsic term has weight, so selfish
        settings cost one simulation per profile.
        """
        if not config.needs_intrinsic:
            return config.alpha * self._base_tables()[0]
        m = self._intrinsic_table(config)  # first: its fill includes the full runs
        return config.alpha * self._base_tables()[0] + config.beta * m

    def rewards(self, action: tuple[int, ...], config: RewardConfig) -> dict[int, float]:
        """Shaped reward per AV in one profile: one ``evaluate`` on a cold engine.

        Builds no table and shares no scoring code with them, so it checks
        the tables independently.
        """
        routes = self.scenario.routes_of(self.full_action(action))
        times, scores = RewardEngine(self.scenario, config).evaluate(routes, self.seed)
        return {
            av: shaped_reward(-times[slot], m, config)
            for av, slot, m in zip(self.av_ids, self._av_columns, scores)
        }

    # -- analyses ----------------------------------------------------------

    def enumerate_nash(
        self,
        config: RewardConfig,
        tolerance: float = STRICTNESS_TOLERANCE,
        include_deviations: bool = True,
    ) -> EquilibriumReport:
        """Test every AV joint action for unilateral-deviation stability.

        A profile is unstable when some AV gains more than ``tolerance`` by
        switching alone to another route. Equilibria come in enumeration
        order.
        """
        rewards = self.reward_table(config)
        rows = np.arange(self.space_size)
        stable = np.ones(self.space_size, dtype=bool)
        for slot, space in enumerate(self.spaces):
            own = rewards[:, slot] + tolerance
            for position in range(len(space)):
                neighbours = self._neighbours(slot, position)
                stable &= (neighbours == rows) | ~(rewards[neighbours, slot] > own)
        equilibria = [self.profile_at(int(p)) for p in np.flatnonzero(stable)]
        optima, best_total = self.system_optimum("system")
        deviations = (
            self.deviation_records(config) if include_deviations else []
        )
        return EquilibriumReport(
            alpha=config.alpha,
            beta=config.beta,
            scope=config.scope,
            equilibria=equilibria,
            count=len(equilibria),
            optima=optima,
            optimum_total_time=best_total,
            deviations=deviations,
        )

    def system_optimum(self, scope: str = "system") -> tuple[list[tuple[int, ...]], float]:
        """All joint actions minimising total travel time over the scope.

        The scan keeps a running best in enumeration order: a total more than
        the tolerance below it starts a new optimum set, one within the
        tolerance of it joins the set.
        """
        if scope not in ("system", "av-group"):
            raise ConfigurationError(f"unknown optimisation scope {scope!r}")
        totals = self._base_tables()[1][:, 0 if scope == "system" else 1]
        best_total = math.inf
        optima: list[int] = []
        for p, total in enumerate(totals.tolist()):
            if total < best_total - STRICTNESS_TOLERANCE:
                best_total = total
                optima = [p]
            elif total <= best_total + STRICTNESS_TOLERANCE:
                optima.append(p)
        return [self.profile_at(p) for p in optima], best_total

    def deviation_terms(
        self, action: tuple[int, ...], av_id: int, config: RewardConfig
    ) -> tuple[float, float]:
        """(travel-time change, intrinsic-score change) for one AV's switch.

        Defined for binary action spaces: both terms compare the higher
        route index against the lower with everyone else fixed.
        """
        slot = self.av_ids.index(av_id)
        space = self.spaces[slot]
        if len(space) != 2:
            raise ConfigurationError(
                f"deviation terms need a binary action space, AV {av_id} has {space}"
            )
        low, high = (
            self.profile_index(action[:slot] + (route,) + action[slot + 1 :])
            for route in sorted(space)
        )
        e = self._base_tables()[0]
        delta_seconds = float(-e[high, slot] - -e[low, slot])
        if config.scope == "none":
            return delta_seconds, 0.0
        m = self._intrinsic_table(config)
        return delta_seconds, float(m[high, slot] - m[low, slot])

    def deviation_records(self, config: RewardConfig) -> list[DeviationRecord]:
        """One record per (joint action, AV), when action spaces are binary."""
        if any(len(space) != 2 for space in self.spaces):
            return []
        times = -self._base_tables()[0]
        scores = None if config.scope == "none" else self._intrinsic_table(config)
        delta_seconds = np.empty_like(times)
        delta_score = np.zeros_like(times)
        for slot, space in enumerate(self.spaces):
            low, high = (
                self._neighbours(slot, space.index(route)) for route in sorted(space)
            )
            delta_seconds[:, slot] = times[high, slot] - times[low, slot]
            if scores is not None:
                delta_score[:, slot] = scores[high, slot] - scores[low, slot]
        records = []
        for action, seconds_row, score_row in zip(
            self.profiles(), delta_seconds.tolist(), delta_score.tolist()
        ):
            for av, seconds, score in zip(self.av_ids, seconds_row, score_row):
                records.append(
                    DeviationRecord(
                        action=action,
                        av_id=av,
                        delta_seconds=seconds,
                        delta_score=score,
                        beta_threshold=beta_max(config.alpha * (-seconds), score),
                    )
                )
        return records

    def verify_equilibrium(
        self, action: tuple[int, ...], config: RewardConfig, tolerance: float = STRICTNESS_TOLERANCE
    ) -> bool:
        """Re-run the deviation test for one profile with a cold cache."""
        fresh = EquilibriumAnalyzer(
            self.scenario, self.humans_profile, seed=self.seed
        )
        own = fresh.rewards(action, config)
        for slot, av in enumerate(fresh.av_ids):
            for alternative in fresh.spaces[slot]:
                if alternative == action[slot]:
                    continue
                switched = action[:slot] + (alternative,) + action[slot + 1 :]
                if fresh.rewards(switched, config)[av] > own[av] + tolerance:
                    return False
        return True
