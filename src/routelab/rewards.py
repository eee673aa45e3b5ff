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

One matrix needs the full run plus one counterfactual run per AV. They come
from one call of the batched kernel ``simulate_batch``, which draws each
agent's noise once and derives every counterfactual from the full run.
Only noise-free days repeat, so only a deterministic engine memoises, at two
levels held in one ``SimulationCache``:

* rosters: a day's routes form one tuple, agents in departure order, and a
  roster is keyed by ``(routes, seed)`` with the removed AV's slot replaced
  by a marker, so rosters differing only in the removed AV's route share an
  entry. A deterministic 10-AV binary-route sweep of the 1024 joint actions
  never simulates more than 1024 + 10 * 1024 rosters;
* days: ``evaluate`` keeps its (travel times, scores) per ``(routes, seed)``,
  so a repeated day costs one lookup. A day hit counts as a hit for each
  roster it stands for.

A noisy day has its own seed and is one batch that nothing keeps. Either
way ``simulations_run`` counts the distinct rosters simulated.
"""
from __future__ import annotations

import itertools
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
    TravelTimeVector,
    simulate,
    simulate_batch,
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
        for name in ("alpha", "beta"):
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
    action: dict[int, int]
    seed: int
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


def _matrix_from_runs(
    scenario: Scenario,
    action: Mapping[int, int],
    seed: int,
    base: Mapping[int, float],
    withouts: Sequence[Mapping[int, float]],
) -> MarginalCostMatrix:
    """Stack the counterfactual columns and subtract the full run once."""
    row_ids = tuple(a.id for a in scenario.agents)
    nans = itertools.repeat(math.nan)
    full = np.array(list(map(base.get, row_ids, nans)))
    without = np.array([list(map(w.get, row_ids, nans)) for w in withouts])
    values = without.reshape(len(withouts), len(row_ids)).T - full[:, None]
    # An agent missing from either run (the removed AV in its own column
    # included) contributes 0.
    values[np.isnan(values)] = 0.0
    return MarginalCostMatrix(
        row_ids=row_ids,
        col_ids=scenario.av_ids,
        values=values,
        action=dict(action),
        seed=seed,
    )


def compute_marginal_matrix(
    scenario: Scenario,
    action: Mapping[int, int],
    base_times: TravelTimeVector,
    seed: int,
) -> MarginalCostMatrix:
    """Run one counterfactual per AV and collect the column of differences.

    ``base_times`` must come from a run of the same (action, seed); the
    counterfactuals share that seed so noise draws cancel out exactly.
    """
    if base_times.seed != seed:
        raise ConfigurationError(
            f"base run used seed {base_times.seed}, counterfactuals requested seed {seed}"
        )
    runs = simulate_batch(scenario, action, scenario.av_ids, seed)
    return _matrix_from_runs(
        scenario, action, seed, base_times.times, [run.times for run in runs[1:]]
    )


def _column_scores(
    matrix: MarginalCostMatrix, av_ids: Sequence[int], config: RewardConfig
) -> dict[int, float]:
    """Intrinsic reward of each AV in ``av_ids``, from one pass over the columns.

    Each column is summed in row order, ``math.tanh`` applied entry by entry.
    """
    if config.scope == "av-group":
        in_scope = matrix.col_ids
    elif config.scope == "system":
        in_scope = matrix.row_ids
    else:
        raise ConfigurationError(f"scope {config.scope!r} has no externality rows")
    rows = [matrix._row_index[i] for i in in_scope]
    columns = matrix.values.T.tolist()
    scale, raw_sum = config.tanh_scale, config.raw_sum
    scores = {}
    for j in av_ids:
        column = columns[matrix._col_index[j]]
        own = matrix._row_index.get(j)
        total = 0.0
        for r in rows:
            if r != own:
                total += column[r] if raw_sum else math.tanh(column[r] / scale)
        scores[j] = total
    return scores


def intrinsic_scores(matrix: MarginalCostMatrix, config: RewardConfig) -> dict[int, float]:
    """Bounded, sign-preserving externality score of every AV column."""
    return _column_scores(matrix, matrix.col_ids, config)


def intrinsic_reward(matrix: MarginalCostMatrix, av_id: int, config: RewardConfig) -> float:
    """Bounded, sign-preserving externality score for one AV column."""
    return _column_scores(matrix, (av_id,), config)[av_id]


def shaped_reward(extrinsic: float, intrinsic: float, config: RewardConfig) -> float:
    return config.alpha * extrinsic + config.beta * intrinsic


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0  # the memo never drops an entry


class SimulationCache:
    """Plain memo of noise-free results: one entry per roster and per day.

    Entries are never evicted, and each is inserted whole once computed, so
    a lookup sees a complete value or none. ``len`` counts rosters.
    """

    def __init__(self) -> None:
        self._entries: dict = {}
        self._days: dict = {}
        self.stats = CacheStats()

    def get_or_compute(self, keys: Sequence, compute: Callable[[list], list]) -> list:
        """Values of ``keys``; ``compute(missing)`` returns the missing ones in order."""
        missing = [key for key in keys if key not in self._entries]
        self.stats.hits += len(keys) - len(missing)
        self.stats.misses += len(missing)
        if missing:
            self._entries.update(zip(missing, compute(missing)))
        return [self._entries[key] for key in keys]

    def day(self, key: tuple, rosters: int, compute: Callable[[], tuple]) -> tuple:
        """Memoised result of one day; a hit counts as ``rosters`` roster hits."""
        result = self._days.get(key)
        if result is None:
            result = self._days[key] = compute()
        else:
            self.stats.hits += rosters
        return result

    def __len__(self) -> int:
        return len(self._entries)


_REMOVED = object()  # fills the removed AV's slot in a roster key


class RewardEngine:
    """Travel times and per-AV intrinsic rewards for one scenario.

    A deterministic engine memoises every roster it simulates and every day
    it evaluates; a noisy one keeps nothing. It takes no lock, as each run,
    analyzer and CLI call builds its own engine; threads sharing one still
    see whole entries, but may simulate a roster twice and miscount
    ``simulations_run``.
    """

    def __init__(self, scenario: Scenario, config: RewardConfig):
        self.scenario = scenario
        self.config = config
        self.cache = SimulationCache() if scenario.noise_sigma == 0 else None
        self.simulations_run = 0
        self._ids = tuple(a.id for a in scenario.agents)
        self._slots = {i: k for k, i in enumerate(self._ids)}
        self._avs = scenario.av_ids

    def _routes(self, action: Mapping[int, int]) -> tuple:
        """The day's routes, agents in departure order."""
        return tuple(map(action.__getitem__, self._ids))

    def _key(self, routes: tuple, removed: int | None, seed: int) -> tuple:
        if removed is None:
            return routes, seed
        k = self._slots[removed]
        return routes[:k] + (_REMOVED,) + routes[k + 1 :], seed

    def _simulate(
        self, action: Mapping[int, int], seed: int, rosters: Sequence[int | None]
    ) -> list[dict[int, float]]:
        """Travel times of each roster (None: everyone; j: everyone but AV j), one batch."""
        removed = [r for r in rosters if r is not None]
        runs = simulate_batch(self.scenario, action, removed, seed)
        self.simulations_run += len(rosters)
        rows = dict(zip((None, *removed), (run.times for run in runs)))
        return [rows[r] for r in rosters]

    def _runs(
        self, action: Mapping[int, int], seed: int, removed_ids: tuple[int, ...]
    ) -> list[dict[int, float]]:
        """Travel times of the full roster, then of each roster without an AV.

        Deterministic rosters come from the memo; those not in it yet are
        simulated together in one batch.
        """
        rosters = (None, *removed_ids)
        if self.cache is None:
            return self._simulate(action, seed, rosters)
        routes = self._routes(action)
        by_key = {self._key(routes, r, seed): r for r in rosters}
        return self.cache.get_or_compute(
            list(by_key),
            lambda missing: self._simulate(action, seed, [by_key[k] for k in missing]),
        )

    def travel_times(self, action: Mapping[int, int], seed: int) -> TravelTimeVector:
        return TravelTimeVector(times=self._runs(action, seed, ())[0], seed=seed)

    def marginal_matrix(self, action: Mapping[int, int], seed: int) -> MarginalCostMatrix:
        base, *withouts = self._runs(action, seed, self._avs)
        return _matrix_from_runs(self.scenario, action, seed, base, withouts)

    def evaluate(
        self, action: Mapping[int, int], seed: int
    ) -> tuple[TravelTimeVector, dict[int, float]]:
        """Travel times plus each AV's intrinsic reward for one joint action.

        Skips the counterfactual fan-out entirely when the config gives the
        intrinsic term zero weight, so selfish baselines cost one run per
        episode. Otherwise the full run and every counterfactual the matrix
        needs come from one lookup, simulated together in one batch.

        A deterministic engine memoises the result per (routes, seed), so a
        repeated day is one lookup. Memoised results are shared between
        callers: do not mutate the returned times or scores.
        """
        if self.cache is None:
            return self._evaluate(action, seed)
        rosters = 1 + len(self._avs) if self.config.needs_intrinsic else 1
        return self.cache.day(
            (self._routes(action), seed), rosters, lambda: self._evaluate(action, seed)
        )

    def _evaluate(
        self, action: Mapping[int, int], seed: int
    ) -> tuple[TravelTimeVector, dict[int, float]]:
        if not self.config.needs_intrinsic:
            return self.travel_times(action, seed), {j: 0.0 for j in self._avs}
        base, *withouts = self._runs(action, seed, self._avs)
        matrix = _matrix_from_runs(self.scenario, action, seed, base, withouts)
        return TravelTimeVector(times=base, seed=seed), intrinsic_scores(matrix, self.config)
