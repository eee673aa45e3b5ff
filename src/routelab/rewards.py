"""Counterfactual marginal-cost rewards.

For a joint action u, the marginal cost matrix M holds at (i, j) the change
in agent i's travel time when AV j is removed from the run and everything
else (actions, seed) is held fixed:

    M[i, j] = travel_time_i(u without j) - travel_time_i(u)

The diagonal is 0 by convention, and agents missing from either run
contribute 0. Columns always range over AVs; rows span every driver so one
matrix serves both externality scopes. In deterministic mode on a two-route
yield network whose yield window is at least the merge gap
(``Scenario.monotone``, as in the default calibration), entries are <= 0:
an absent vehicle delays nobody. Elsewhere the merge is not monotone: where
vehicles on priority routes overtake one another, or the window is shorter
than the gap, removing a vehicle can reorder the merge and delay someone, so
entries can be > 0.

AV j's intrinsic reward squashes its column through tanh, entry by entry,
which bounds each term to (-1, 1) while preserving its sign:

    m_j = sum_{i != j, i in scope} tanh(M[i, j] / tanh_scale)

Scope "av-group" sums over AV rows only, "system" over all drivers. The
shaped reward is then ``alpha * extrinsic + beta * m_j`` with extrinsic the
negative travel time. A ``raw_sum`` switch replaces the tanh squash with the
plain column sum for sensitivity studies.

One matrix needs the full run plus one counterfactual run per AV, from one
call of the slot-space kernel ``simulate_slots``: the full run as travel
times by departure slot, each counterfactual as the sparse entries it
re-simulated. The engine scores each AV from those entries alone; the rest
of its column is exact zeros. Only noise-free days repeat, so only a
deterministic engine memoises, and only whole days: ``evaluate(routes, seed)``,
with ``routes`` the day's route tuple in departure order, keeps two tuples
per day (travel times by slot, AV scores in ``av_ids`` order), so a repeated
day costs one lookup and every log of it shares the same tuples. Every
roster a day needs comes from the one kernel call that simulates its full
run, so a memo of single rosters would save no call. ``marginal_matrix``, the
one builder of a dense matrix, keeps nothing.

A noisy day has its own seed and is one kernel call, and no day is kept. A
run that knows its day seeds first hands them to ``RewardEngine.plan``; the
engine then draws those days' noise in lanes (``network._arrival_noise_days``)
and holds one pass of draws at a time, while any other day draws its own.
Either way ``simulations_run`` counts the rosters simulated: 1 + #AVs for a
shaped day and 1 for a selfish one, once per distinct deterministic day.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

# simulate and simulate_without are unused here. They stay bound in this
# module because the benchmark's traced pass (perfbench/worker.py) wraps
# rewards.simulate and rewards.simulate_without; without them --trace 1 fails.
from .network import (
    ConfigurationError,
    Scenario,
    _arrival_noise_days,
    counterfactual_row,
    simulate,
    simulate_slots,
    simulate_without,
)

SCOPES = ("av-group", "system", "none")


@dataclass(frozen=True)
class RewardConfig:
    """Shaped-reward definition: r = alpha * extrinsic + beta * intrinsic."""

    alpha: float = 1.0
    beta: float = 0.0
    scope: str = "av-group"
    tanh_scale: float = 1.0
    raw_sum: bool = False

    def __post_init__(self) -> None:
        if self.scope not in SCOPES:
            raise ConfigurationError(f"unknown scope {self.scope!r}; use one of {SCOPES}")
        if not self.tanh_scale > 0:
            raise ConfigurationError("tanh_scale must be > 0")
        for name in ("alpha", "beta", "tanh_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite")

    @property
    def needs_intrinsic(self) -> bool:
        return self.beta != 0.0 and self.scope != "none"


@dataclass
class MarginalCostMatrix:
    """Counterfactual travel-time differences for one (joint action, seed)."""

    row_ids: tuple[int, ...]  # all active agents, departure order
    col_ids: tuple[int, ...]  # AVs, departure order
    values: np.ndarray  # shape (len(row_ids), len(col_ids)), seconds
    _row_index: dict[int, int] = field(init=False, repr=False)
    _col_index: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._row_index = {i: r for r, i in enumerate(self.row_ids)}
        self._col_index = {j: c for c, j in enumerate(self.col_ids)}

    def entry(self, row_id: int, col_id: int) -> float:
        return float(self.values[self._row_index[row_id], self._col_index[col_id]])

    def to_csv(self, av_rows_only: bool = True) -> str:
        """Render as CSV with agent ids as row/column headers."""
        lines = ["id," + ",".join(str(j) for j in self.col_ids)]
        for r, i in enumerate(self.row_ids):
            if av_rows_only and i not in self._col_index:
                continue
            cells = ",".join(repr(float(v)) for v in self.values[r])
            lines.append(f"{i},{cells}")
        return "\n".join(lines) + "\n"


def intrinsic_reward(matrix: MarginalCostMatrix, av_id: int, config: RewardConfig) -> float:
    """Bounded, sign-preserving externality score for one AV column: its entries
    summed in row order from +0.0, each through tanh unless ``raw_sum``."""
    if config.scope == "none":
        raise ConfigurationError(f"scope {config.scope!r} has no externality rows")
    rows = matrix.col_ids if config.scope == "av-group" else matrix.row_ids
    total = 0.0
    for i in rows:
        if i != av_id:
            term = matrix.entry(i, av_id)
            total += term if config.raw_sum else math.tanh(term / config.tanh_scale)
    return total


def shaped_reward(extrinsic: float, intrinsic: float, config: RewardConfig) -> float:
    return config.alpha * extrinsic + config.beta * intrinsic


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0  # the memo never drops an entry


class SimulationCache:
    """Plain memo of noise-free days: ``(routes, seed)`` to ``evaluate``'s result.

    Entries are never evicted, and each is inserted whole once computed, so
    a lookup sees a complete value or none. ``len`` counts days.
    """

    def __init__(self) -> None:
        self._entries: dict = {}
        self.stats = CacheStats()

    def get_or_compute(self, key: tuple, compute: Callable[[], tuple]) -> tuple:
        """The value of ``key``, from ``compute()`` on a miss."""
        value = self._entries.get(key)
        if value is None:
            self.stats.misses += 1
            value = self._entries[key] = compute()
        else:
            self.stats.hits += 1
        return value

    def __len__(self) -> int:
        return len(self._entries)


class RewardEngine:
    """Travel times and per-AV intrinsic rewards for one scenario.

    A deterministic engine memoises every day it evaluates. A noisy one
    memoises no day and keeps only the draws of its planned days' current
    pass (see ``plan``). It takes no lock, as each run, analyzer and CLI call
    builds its own engine.
    """

    def __init__(self, scenario: Scenario, config: RewardConfig):
        self.scenario = scenario
        self.config = config
        self.cache = SimulationCache() if scenario.noise_sigma == 0 else None
        self.simulations_run = 0
        self._av_slots = scenario.av_slots
        self._in_scope = [config.scope == "system" or a.kind == "av" for a in scenario.agents]
        self._next_seed = None  # the next planned day's seed, if any (see plan)

    def plan(self, seeds: Sequence[int]) -> None:
        """Announce the day seeds about to be evaluated, in play order.

        A noisy engine draws those days' noise in lanes, a pass of
        ``network.NOISE_LANES`` draws when its first day comes up, and hands
        each day's draws to the kernel when that seed is the next one planned.
        Any other seed draws its own, so results never depend on the plan,
        and a new plan drops what is left of the last one. A deterministic
        engine ignores it.
        """
        if self.cache is None:
            sigma = self.scenario.noise_sigma
            self._planned_draws = _arrival_noise_days(seeds, self.scenario.ids, sigma)
            self._planned_seeds = iter(seeds)
            self._next_seed = next(self._planned_seeds, None)

    def _runs(self, routes: tuple, seed: int, removed: tuple) -> tuple[list, list[dict]]:
        """The full run by slot and each removed slot's re-simulated {slot: time}: one call."""
        self.simulations_run += 1 + len(removed)
        noise = None
        if seed == self._next_seed:
            noise = next(self._planned_draws)
            self._next_seed = next(self._planned_seeds, None)
        return simulate_slots(self.scenario, routes, removed, seed, noise)

    def _scores(self, full: list[float], changes: list[dict[int, float]]) -> tuple[float, ...]:
        """Each AV's intrinsic reward from the in-scope entries its run re-simulated, in slot order.

        Bit for bit ``intrinsic_reward``: an entry left out, or re-simulated
        unchanged, adds ``tanh(0.0) == 0.0`` to a sum from +0.0, which
        changes nothing.
        """
        in_scope, tanh = self._in_scope, math.tanh
        raw, scale = self.config.raw_sum, self.config.tanh_scale
        scores = []
        for c in changes:
            total = 0.0
            for i in sorted(c):
                if in_scope[i]:
                    term = c[i] - full[i]
                    total += term if raw else tanh(term / scale)
            scores.append(total)
        return tuple(scores)

    def marginal_matrix(self, action: Mapping[int, int], seed: int) -> MarginalCostMatrix:
        """The full run and one counterfactual per AV, from one kernel call, as a dense matrix."""
        full, changes = self._runs(self.scenario.routes_of(action), seed, self._av_slots)
        rows = [counterfactual_row(full, k, c) for k, c in zip(self._av_slots, changes)]
        # Counterfactual columns by slot (NaN where removed) minus the full run.
        values = np.array(rows).reshape(len(rows), len(full)).T - np.array(full)[:, None]
        # An agent missing from either run (the removed AV in its own column
        # included) contributes 0.
        values[np.isnan(values)] = 0.0
        return MarginalCostMatrix(self.scenario.ids, self.scenario.av_ids, values)

    def evaluate(
        self, routes: tuple[int, ...], seed: int
    ) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Travel times by departure slot, and each AV's intrinsic reward in
        ``scenario.av_ids`` order, for one day.

        ``routes`` is the day's route tuple by departure slot, as
        ``Scenario.routes_of`` makes it from a joint action. Only a day the
        memo has not seen is checked again, with ``Scenario.fits``. Skips the
        counterfactual fan-out entirely when the config gives the intrinsic
        term zero weight, so selfish baselines cost one run per episode.
        Otherwise the full run and every counterfactual come from one kernel
        call.

        A deterministic engine memoises the two tuples per (routes, seed), so
        a repeated day is one lookup that returns the very same objects.
        """
        if self.cache is None:
            return self._evaluate(routes, seed)
        return self.cache.get_or_compute((routes, seed), lambda: self._evaluate(routes, seed))

    def _evaluate(self, routes: tuple, seed: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
        if not self.scenario.fits(routes):
            raise ConfigurationError(f"routes {routes} do not fit the scenario's action spaces")
        shaped = self.config.needs_intrinsic
        full, changes = self._runs(routes, seed, self._av_slots if shaped else ())
        return tuple(full), self._scores(full, changes) if shaped else (0.0,) * len(self._av_slots)
