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
The rewards at any grid point are then ``alpha * E + beta * M``.

Per-profile indices are int32 tables built once per analyzer. The move table
gives, for each profile and each unilateral move (one AV switching route),
the row the move leads to, so the Nash test is one gather, one compare and
one ``any``, and a deviation term is the difference of a row and its move,
kept once per distinct pair with its ``beta_max``. At ``ENUMERATION_BOUND``
with 20 binary AVs it holds 80 MB, half of one float64 reward table.

The run without AV ``k`` does not depend on ``k``'s route, so it is kept
once, with ``k`` on its first route (NaN at ``k``), and every ``M`` is scored
from those runs. Most differences from the full runs are +0.0 (84-92% on
the default world) and add nothing, so ``math.tanh`` runs only on the moved
ones, once per distinct quotient. A fill is one list of rosters that
``network.simulate_rosters`` resolves ``ROSTER_LANES`` at a time in buffers
that last the fill, so a pass's memory does not grow with the profile count
and its pages fault in once. A selfish setting (beta = 0 or scope "none")
simulates one roster per profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .network import ConfigurationError, Scenario, simulate_rosters
# intrinsic_reward is unused here. It stays bound in this module because the
# benchmark's traced pass (perfbench/worker.py) wraps
# equilibrium.intrinsic_reward; without it --trace 1 fails.
from .rewards import RewardConfig, RewardEngine, intrinsic_reward, shaped_reward

ENUMERATION_BOUND = 2**20  # most profiles an analyzer enumerates
ROSTER_LANES = 2048  # rosters per simulate_rosters pass: a pass's memory is O(lanes)
STRICTNESS_TOLERANCE = 1e-9


def enumeration_size(spaces: Sequence[Sequence[int]]) -> int:
    """The number of joint actions over the AV action ``spaces``; above
    ``ENUMERATION_BOUND`` it raises ``ConfigurationError``, as nothing enumerates them."""
    size = math.prod(map(len, spaces))
    if size > ENUMERATION_BOUND:
        raise ConfigurationError(
            f"joint-action space has {size} profiles, above the bound {ENUMERATION_BOUND}; "
            "shrink the scenario or raise ENUMERATION_BOUND"
        )
    return size


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
    """One grid point's pure Nash equilibria; ``system_optimum`` is the analyzer's."""

    alpha: float
    beta: float
    scope: str
    equilibria: list[tuple[int, ...]]

    @property
    def count(self) -> int:
        return len(self.equilibria)


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
      sums each row;
    - ``M``: each AV's intrinsic score, one column per AV slot and one table
      per (scope, tanh_scale, raw_sum), since only those settings change it;
    - the indices: ``_digits``, ``_moves`` and ``_without_rows``.

    Each table is filled once, on first use, and ``simulations_run`` counts
    the rosters the fill simulated. The shaped rewards for any (alpha, beta)
    are then ``alpha * E + beta * M``. ``rewards`` and ``verify_equilibrium``
    score single profiles without the tables.
    """

    def __init__(self, scenario: Scenario, humans_profile: Mapping[int, int]):
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
        self._av_columns = scenario.av_slots
        self.spaces = [scenario.agents[slot].action_space for slot in self._av_columns]
        self.space_size = enumeration_size(self.spaces)
        # Mixed-radix place values; int32 holds every index below ENUMERATION_BOUND.
        sizes = [len(space) for space in self.spaces]
        self._sizes = np.array(sizes, dtype=np.int32)
        strides = [math.prod(sizes[k + 1 :]) for k in range(len(sizes))]
        self._strides = np.array(strides, dtype=np.int32)
        self.simulations_run = 0  # the rosters the table fill simulated
        self._ids = scenario.ids
        self._full: np.ndarray | None = None  # travel times, profiles x agents
        self._withouts: np.ndarray | None = None  # runs without one AV slot, x agents
        self._without_rows: np.ndarray | None = None  # profile, AV slot -> row of _withouts
        self._m: dict[tuple[str, float, bool], np.ndarray] = {}

    # -- joint-action plumbing -------------------------------------------

    def full_action(self, action: tuple[int, ...]) -> dict[int, int]:
        return {**self.humans_profile, **dict(zip(self.av_ids, action))}

    def profile_at(self, index: int) -> tuple[int, ...]:
        """Joint action of table row ``index``."""
        return tuple(
            space[index // stride % len(space)]
            for space, stride in zip(self.spaces, self._strides.tolist())
        )

    # -- index tables ------------------------------------------------------

    @cached_property
    def _digits(self) -> np.ndarray:
        """Each profile's position in each AV slot's action space: profiles x AVs, int32."""
        rows = np.arange(self.space_size, dtype=np.int32)[:, None]
        return rows // self._strides % self._sizes

    @cached_property
    def _moves(self) -> tuple[np.ndarray, np.ndarray]:
        """Profiles x moves (int32): the row each unilateral move leads to; and each move's slot.

        Slot ``k``'s ``len(spaces[k]) - 1`` moves shift its position ``d`` to
        ``(d + s) % len(spaces[k])`` for ``s >= 1``, so no move stays put.
        """
        moves = [(k, shift) for k, size in enumerate(self._sizes) for shift in range(1, size)]
        slots, shifts = np.array(moves, dtype=np.int32).reshape(-1, 2).T
        digits = self._digits[:, slots]
        rows = np.arange(self.space_size, dtype=np.int32)[:, None]
        moved = (digits + shifts) % self._sizes[slots]
        return rows + (moved - digits) * self._strides[slots], slots

    # -- reward tables -----------------------------------------------------

    def _simulate(self, counterfactuals: bool) -> None:
        """Fill the full runs, if not yet filled, and if asked the counterfactual runs.

        The fill is one roster list in table order: each roster's profile and
        the column of the slot it leaves absent (``n``, none, for a full run).
        It holds every profile if the full runs are missing, then per AV slot
        ``k`` the profiles with ``k`` on the first route of its space, ``k``
        absent. ``simulate_rosters`` writes it into one array: the full runs,
        then ``_withouts``, whose row per (profile, AV slot) is in ``_without_rows``.
        """
        n, size = len(self._ids), self.space_size
        profiles, columns = [np.arange(size if self._full is None else 0)], [n]
        if counterfactuals:
            profiles += [np.flatnonzero(digits == 0) for digits in self._digits.T]
            columns += self._av_columns
        counts = [len(p) for p in profiles]
        profile, absent = np.concatenate(profiles), np.repeat(columns, counts)
        times = np.empty((len(profile), n))
        simulate_rosters(self.scenario, self._passes(profile, absent), times)
        self.simulations_run += len(profile)
        if self._full is None:
            self._full = times[:size]
        if counterfactuals:
            self._withouts = times[counts[0] :]
            # Profile p's run without slot k is that of p with k's digit 0.
            rows, strides = np.arange(size, dtype=np.int32)[:, None], self._strides
            offsets = np.cumsum([0, *counts[1:-1]], dtype=np.int32)
            self._without_rows = (
                rows // (strides * self._sizes) * strides + rows % strides + offsets
            )

    def _passes(self, profile: np.ndarray, absent: np.ndarray):
        """The fill's rosters as passes of at most ``ROSTER_LANES``, each written over
        the last: the humans' routes stay, the AVs' come from each profile's digits."""
        n = len(self._ids)
        template = self.scenario.routes_of(self.full_action(self.profile_at(0)))
        routes = np.tile(template, (min(len(profile), ROSTER_LANES), 1))
        present = np.empty(routes.shape, dtype=bool)
        slots = np.arange(n)
        for start in range(0, len(profile), ROSTER_LANES):
            lanes = slice(start, start + ROSTER_LANES)
            rows = profile[lanes]
            width = len(rows)
            for column, space, stride in zip(self._av_columns, self.spaces, self._strides):
                routes[:width, column] = np.take(space, rows // stride % len(space))
            np.not_equal(slots, absent[lanes, None], out=present[:width])
            yield routes[:width], present[:width]

    def _full_runs(self) -> np.ndarray:
        """Travel times by slot of every profile's full run, one row per profile."""
        if self._full is None:
            self._simulate(counterfactuals=False)
        return self._full

    def _intrinsic_table(self, config: RewardConfig) -> np.ndarray:
        """``M``: each AV's intrinsic score under ``config``, one row per profile.

        Bit for bit ``rewards.intrinsic_reward``: the in-scope differences
        summed in row order from +0.0, each through ``math.tanh`` unless
        ``raw_sum``. ``np.bincount`` sums only those that moved, in index
        order from +0.0: the others are +0.0 (travel times are > 0), and so is
        their ``tanh``, which leaves a sum from +0.0 unchanged.
        """
        key = (config.scope, config.tanh_scale, config.raw_sum)
        if key not in self._m:
            if self._withouts is None:
                self._simulate(counterfactuals=True)
            n = len(self._ids)
            # The av-group scope leaves the humans' differences out, as unmoved.
            humans = [c for c in range(n) if c not in self._av_columns]
            outside = humans if config.scope == "av-group" else []
            m = np.empty((self.space_size, len(self.av_ids)))
            deltas = np.empty(self._full.shape)
            for k, (rows, own) in enumerate(zip(self._without_rows.T, self._av_columns)):
                np.subtract(self._withouts.take(rows, axis=0), self._full, out=deltas)
                deltas[:, [own, *outside]] = 0.0  # k is absent from its own run
                moved = np.flatnonzero(deltas.reshape(-1) != 0.0)
                terms = deltas.reshape(-1)[moved]
                if not config.raw_sum:
                    with np.errstate(over="ignore"):  # inf, as Python's float division gives
                        quotients = terms / config.tanh_scale
                    values, inverse = np.unique(quotients, return_inverse=True)
                    terms = np.array([math.tanh(v) for v in values.tolist()])[inverse]
                m[:, k] = np.bincount(moved // n, terms, minlength=self.space_size)
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
        moves, slots = self._moves
        gains = rewards[moves, slots] > rewards[:, slots] + tolerance
        equilibria = [self.profile_at(p) for p in np.flatnonzero(~gains.any(axis=1)).tolist()]
        return EquilibriumReport(config.alpha, config.beta, config.scope, equilibria)

    def system_optimum(self) -> tuple[list[tuple[int, ...]], float]:
        """All joint actions minimising the total travel time of all drivers.

        The scan keeps a running best in enumeration order: a total more than
        the tolerance below it starts a new optimum set, one within the
        tolerance of it joins the set. Returns the optima in enumeration
        order and their total travel time.
        """
        best_total = math.inf
        optima: list[int] = []
        totals = np.cumsum(self._full_runs(), axis=1)[:, -1]  # each row in slot order
        for p, total in enumerate(totals.tolist()):
            if total < best_total - STRICTNESS_TOLERANCE:
                best_total = total
                optima = [p]
            elif total <= best_total + STRICTNESS_TOLERANCE:
                optima.append(p)
        return [self.profile_at(p) for p in optima], best_total

    def deviation_records(self, config: RewardConfig) -> DeviationTable | None:
        """Every (joint action, AV) pair's route-switch terms if every action space is binary."""
        if any(len(space) != 2 for space in self.spaces):
            return None
        times = self._full_runs()[:, self._av_columns]
        scores = np.zeros_like(times) if config.scope == "none" else self._intrinsic_table(config)
        # A cell and the cell its move leads to hold the same pair, so each pair
        # of cells is taken once, from the profile with the slot on position 0.
        # With binary spaces, slot k's one move is column k of the move table.
        profile, slot = np.nonzero(self._digits == 0)
        moved = self._moves[0][profile, slot]
        descending = np.array([a > b for a, b in self.spaces], dtype=bool)[slot]
        width = len(self.av_ids)
        low = np.where(descending, moved, profile) * width + slot  # flat cells
        high = np.where(descending, profile, moved) * width + slot
        # One complex key per pair of cells, set part by part so both deltas keep
        # every bit. Equal keys merge 0.0 and -0.0, but no delta is -0.0: x - y
        # is -0.0 only for x = -0.0 and y = +0.0, and neither table holds -0.0
        # (travel times are > 0, and a score is a sum from +0.0).
        deltas = np.empty(len(low), dtype=complex)
        deltas.real = times.take(high) - times.take(low)
        deltas.imag = scores.take(high) - scores.take(low)
        keys, ranks = np.unique(deltas, return_inverse=True)
        pairs = list(zip(keys.real.tolist(), keys.imag.tolist()))
        index = np.empty(times.size, dtype=np.intp)
        index[low] = index[high] = ranks
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
