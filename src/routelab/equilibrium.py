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
compares each profile's row with the rows of its single-AV neighbours. The
deviation terms are differences of two rows, kept once per distinct pair
(with its ``beta_max``) and indexed per (profile, AV). The run without AV
``k`` does not depend on ``k``'s route, so it is kept once, as a row of slot
``k``'s counterfactual table (travel times by slot, NaN at ``k``), and every
``M`` is scored from those tables at once. A fill is one list of rosters in
table order, each a profile and the slot it leaves absent, and the batched
kernel ``network.simulate_rosters`` takes it ``ROSTER_LANES`` rosters per
call, so a pass's route and presence matrices do not grow with the profile
count. A selfish setting (beta = 0 or scope "none") builds no
counterfactual table, so it costs one simulated roster per profile.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .network import ConfigurationError, Scenario, simulate_rosters
# intrinsic_reward is unused here. It stays bound in this module because the
# benchmark's traced pass (perfbench/worker.py) wraps
# equilibrium.intrinsic_reward; without it --trace 1 fails.
from .rewards import RewardConfig, RewardEngine, intrinsic_reward, shaped_reward

DEFAULT_ENUMERATION_BOUND = 2**20
ROSTER_LANES = 2048  # rosters per simulate_rosters call: a pass's memory is O(lanes)
STRICTNESS_TOLERANCE = 1e-9


def beta_max(delta_reward: float, delta_c: float) -> float | None:
    """Largest shaping coefficient keeping sign(delta_r) as at beta = 0.

    Returns ``math.inf`` when the intrinsic change never flips the
    preference, ``None`` when the deviation is indifferent for every beta
    (both terms zero), and 0.0 when only the intrinsic term is nonzero.
    Magnitudes at or below ``STRICTNESS_TOLERANCE`` count as exact zeros:
    summing tanh terms leaves ulp-level residue that would otherwise
    fabricate astronomically large thresholds.
    """
    if abs(delta_reward) <= STRICTNESS_TOLERANCE:
        delta_reward = 0.0
    if abs(delta_c) <= STRICTNESS_TOLERANCE:
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


class DeviationTable(NamedTuple):
    """Route-switch terms of every (joint action, AV) pair, each distinct pair stored once."""

    index: np.ndarray  # profile p, AV slot k -> position in pairs
    pairs: list[tuple[float, float]]  # (high minus low route: travel time, intrinsic score)
    thresholds: list[float | None]  # beta_max of each pair


@dataclass
class EquilibriumReport:
    alpha: float
    beta: float
    scope: str
    equilibria: list[tuple[int, ...]]
    count: int
    optima: list[tuple[int, ...]]
    optimum_total_time: float


def encode_action(action: tuple[int, ...]) -> str:
    return join_routes([str(route) for route in action])


def join_routes(routes: Sequence[str]) -> str:
    """A joint action's code from its route strings: dashed if some route has two digits."""
    code = "".join(routes)
    return code if len(code) == len(routes) else "-".join(routes)


class EquilibriumAnalyzer:
    """Exhaustive analysis of the AV joint-action space over reward tables.

    Profile ``p`` is the ``p``-th joint action in ``itertools.product``
    order: a mixed-radix number whose digit for AV slot ``k`` is the position
    of its route in ``spaces[k]`` and whose last slot varies fastest. Every
    table has one row per profile:

    - the full runs: every driver's travel time, one column per slot. ``E``,
      the extrinsic reward, is minus the AV columns, and ``system_optimum``
      sums each row once;
    - ``M``: each AV's intrinsic score, one column per AV slot and one table
      per (scope, tanh_scale, raw_sum), since only those settings change it.

    Each table is filled once, on first use, and ``simulations_run`` counts
    the rosters the fill simulated. The shaped rewards for any (alpha, beta)
    are then ``alpha * E + beta * M``. ``rewards`` and ``verify_equilibrium``
    score single profiles without the tables.
    """

    def __init__(
        self,
        scenario: Scenario,
        humans_profile: Mapping[int, int],
        bound: int = DEFAULT_ENUMERATION_BOUND,
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
        self._strides = [math.prod(map(len, self.spaces[k + 1 :])) for k in range(len(self.spaces))]
        size = math.prod(map(len, self.spaces))
        if size > bound:
            raise ConfigurationError(
                f"joint-action space has {size} profiles, above the bound {bound}; "
                "shrink the scenario or raise the bound"
            )
        self.space_size = size
        self.simulations_run = 0  # the rosters the table fill simulated
        self._ids = scenario.ids
        self._av_columns = [self._ids.index(av) for av in self.av_ids]
        self._full: np.ndarray | None = None  # travel times, profiles x agents
        self._withouts: list[np.ndarray] | None = None  # per slot, runs without it
        self._m: dict[tuple[str, float, bool], np.ndarray] = {}
        self._optimum: tuple[list[tuple[int, ...]], float] | None = None

    # -- joint-action plumbing -------------------------------------------

    def profiles(self):
        return itertools.product(*self.spaces)

    def full_action(self, action: tuple[int, ...]) -> dict[int, int]:
        return {**self.humans_profile, **dict(zip(self.av_ids, action))}

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
        """Fill the full runs, if not yet filled, and if asked the counterfactual tables.

        The fill is one roster list in table order: each roster's profile and
        the column of the slot it leaves absent (``n``, none, for a full run).
        It holds every profile if the full runs are missing, then per AV slot
        ``k`` the profiles with ``k`` on the first route of its space, ``k``
        absent. The list goes to ``simulate_rosters`` in passes of at most
        ``ROSTER_LANES`` into one array, which ``np.split`` cuts into the tables.
        """
        n = len(self._ids)
        rows = np.arange(self.space_size)
        profiles, columns = [rows if self._full is None else rows[:0]], [n]
        if counterfactuals:
            profiles += [
                np.flatnonzero(rows // stride % len(space) == 0)
                for space, stride in zip(self.spaces, self._strides)
            ]
            columns += self._av_columns
        sizes = [len(p) for p in profiles]
        profile, absent = np.concatenate(profiles), np.repeat(columns, sizes)
        times = np.empty((len(profile), n))
        spaces = [np.array(space) for space in self.spaces]
        template = np.array(self.scenario.routes_of(self.full_action(self.profile_at(0))))
        for start in range(0, len(profile), ROSTER_LANES):
            lanes = slice(start, start + ROSTER_LANES)
            routes = np.tile(template, (len(profile[lanes]), 1))
            for space, stride, c in zip(spaces, self._strides, self._av_columns):
                routes[:, c] = space[profile[lanes] // stride % len(space)]
            present = np.arange(n) != absent[lanes, None]
            times[lanes] = simulate_rosters(self.scenario, routes, present)
        full, *withouts = np.split(times, np.cumsum(sizes)[:-1])
        self.simulations_run += len(profile)
        if self._full is None:
            self._full = full
        if counterfactuals:
            self._withouts = withouts

    def _full_runs(self) -> np.ndarray:
        """Travel times by slot of every profile's full run, one row per profile."""
        if self._full is None:
            self._simulate(counterfactuals=False)
        return self._full

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
        # M first: its fill includes the full runs.
        m = self._intrinsic_table(config) if config.needs_intrinsic else None
        e = config.alpha * -self._full_runs()[:, self._av_columns]
        return e if m is None else e + config.beta * m

    def rewards(self, action: tuple[int, ...], config: RewardConfig) -> dict[int, float]:
        """Shaped reward per AV in one profile: one ``evaluate`` on a cold engine.

        Builds no table and shares no scoring code with them, so it checks
        the tables independently.
        """
        routes = self.scenario.routes_of(self.full_action(action))
        times, scores = RewardEngine(self.scenario, config).evaluate(routes, 0)
        return {
            av: shaped_reward(-times[slot], m, config)
            for av, slot, m in zip(self.av_ids, self._av_columns, scores)
        }

    # -- analyses ----------------------------------------------------------

    def enumerate_nash(
        self, config: RewardConfig, tolerance: float = STRICTNESS_TOLERANCE
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
        optima, best_total = self.system_optimum()
        return EquilibriumReport(
            alpha=config.alpha,
            beta=config.beta,
            scope=config.scope,
            equilibria=equilibria,
            count=len(equilibria),
            optima=optima,
            optimum_total_time=best_total,
        )

    def system_optimum(self) -> tuple[list[tuple[int, ...]], float]:
        """All joint actions minimising the total travel time of all drivers.

        The scan keeps a running best in enumeration order: a total more than
        the tolerance below it starts a new optimum set, one within the
        tolerance of it joins the set. It runs once per analyzer.
        """
        if self._optimum is None:
            best_total = math.inf
            optima: list[int] = []
            totals = np.cumsum(self._full_runs(), axis=1)[:, -1]  # each row in slot order
            for p, total in enumerate(totals.tolist()):
                if total < best_total - STRICTNESS_TOLERANCE:
                    best_total = total
                    optima = [p]
                elif total <= best_total + STRICTNESS_TOLERANCE:
                    optima.append(p)
            self._optimum = [self.profile_at(p) for p in optima], best_total
        return list(self._optimum[0]), self._optimum[1]

    def deviation_records(self, config: RewardConfig) -> DeviationTable | None:
        """Every (joint action, AV) pair's route-switch terms if every action space is binary."""
        if any(len(space) != 2 for space in self.spaces):
            return None
        times = self._full_runs()[:, self._av_columns]
        scores = np.zeros_like(times) if config.scope == "none" else self._intrinsic_table(config)
        # One complex key per cell, set part by part so both deltas keep every bit.
        # Equal keys merge 0.0 and -0.0, but no delta is -0.0: x - y is -0.0 only
        # for x = -0.0 and y = +0.0, and neither table holds -0.0 (travel times
        # are > 0, and a score sums terms none of which is -0.0).
        deltas = np.empty(times.shape, dtype=complex)
        for slot, space in enumerate(self.spaces):
            low, high = (
                self._neighbours(slot, space.index(route)) for route in sorted(space)
            )
            deltas.real[:, slot] = times[high, slot] - times[low, slot]
            deltas.imag[:, slot] = scores[high, slot] - scores[low, slot]
        keys, index = np.unique(deltas, return_inverse=True)
        pairs = list(zip(keys.real.tolist(), keys.imag.tolist()))
        return DeviationTable(
            index.reshape(times.shape),
            pairs,
            [beta_max(config.alpha * -seconds, score) for seconds, score in pairs],
        )

    def verify_equilibrium(
        self, action: tuple[int, ...], config: RewardConfig, tolerance: float = STRICTNESS_TOLERANCE
    ) -> bool:
        """Re-run the deviation test for one profile through ``rewards``, without the tables."""
        own = self.rewards(action, config)
        for slot, av in enumerate(self.av_ids):
            for alternative in self.spaces[slot]:
                if alternative == action[slot]:
                    continue
                switched = action[:slot] + (alternative,) + action[slot + 1 :]
                if self.rewards(switched, config)[av] > own[av] + tolerance:
                    return False
        return True
