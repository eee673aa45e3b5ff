"""Counterfactual marginal-cost rewards.

For a joint action u, the marginal cost matrix M holds at (i, j) the change
in agent i's travel time when AV j is removed from the run and everything
else (actions, seed) is held fixed:

    M[i, j] = travel_time_i(u without j) - travel_time_i(u)

The diagonal is 0 by convention, and agents missing from either run
contribute 0. Columns always range over AVs; rows span every driver so one
matrix serves both externality scopes. In deterministic
mode on a two-route yield network whose yield window is at least the merge
gap (the default calibration), entries are <= 0: an absent vehicle delays
nobody. Elsewhere the merge is not monotone: where vehicles on priority
routes overtake one another, or the window is shorter than the gap, removing
a vehicle can reorder the merge and delay someone, so entries can be > 0.

AV j's intrinsic reward squashes its column through tanh, entry by entry,
which bounds each term to (-1, 1) while preserving its sign:

    m_j = sum_{i != j, i in scope} tanh(M[i, j] / tanh_scale)

Scope "av-group" sums over AV rows only, "system" over all drivers. The
shaped reward is then ``alpha * extrinsic + beta * m_j`` with extrinsic the
negative travel time. A ``raw_sum`` switch replaces the tanh squash with the
plain column sum for sensitivity studies.

One matrix needs the full run plus one counterfactual run per AV. They come
from one call of the batched kernel ``simulate_batch``, which draws each
agent's noise once and derives every counterfactual from the full run. An
LRU cache keyed by (active agents with routes, seed) still holds each roster
as its own entry, so ``simulations_run`` counts distinct rosters, and a
deterministic 10-AV binary-route sweep of the 1024 joint actions never needs
more than 1024 + 10 * 1024 of them.
"""
from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .network import (  # simulate, simulate_without: re-exported for callers here
    ConfigurationError,
    Scenario,
    TravelTimeVector,
    simulate,
    simulate_batch,
    simulate_without,
)

SCOPES = ("av-group", "system", "none")
DEFAULT_CACHE_SIZE = 200_000


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

    def column(self, col_id: int) -> dict[int, float]:
        c = self._col_index[col_id]
        return {i: float(self.values[r, c]) for i, r in self._row_index.items()}

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
    full = np.array([base.get(i, np.nan) for i in row_ids])
    without = np.array([[w.get(i, np.nan) for w in withouts] for i in row_ids])
    values = without - full[:, None]
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


def intrinsic_reward(matrix: MarginalCostMatrix, av_id: int, config: RewardConfig) -> float:
    """Bounded, sign-preserving externality score for one AV column."""
    if config.scope == "av-group":
        in_scope = matrix._col_index
    elif config.scope == "system":
        in_scope = matrix._row_index
    else:
        raise ConfigurationError(f"scope {config.scope!r} has no externality rows")
    column = matrix.column(av_id)
    total = 0.0
    for i in in_scope:
        if i == av_id:
            continue
        value = column[i]
        total += value if config.raw_sum else math.tanh(value / config.tanh_scale)
    return total


def shaped_reward(extrinsic: float, intrinsic: float, config: RewardConfig) -> float:
    return config.alpha * extrinsic + config.beta * intrinsic


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0


class SimulationCache:
    """Thread-safe LRU memo of simulation outputs.

    A hit returns the complete stored value or nothing: entries are inserted
    only after the simulation finished, under the lock. Capacity 0 disables
    memoisation (every lookup recomputes) without changing any result.
    """

    def __init__(self, capacity: int = DEFAULT_CACHE_SIZE):
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def get_or_compute(self, key, compute: Callable[[], dict]) -> dict:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return self._entries[key]
            self.stats.misses += 1
        value = compute()
        if self.capacity > 0:
            with self._lock:
                self._entries[key] = value
                self._entries.move_to_end(key)
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1
        return value

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    def flush(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class RewardEngine:
    """Travel times and per-AV intrinsic rewards behind one shared cache."""

    def __init__(
        self,
        scenario: Scenario,
        config: RewardConfig,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ):
        self.scenario = scenario
        self.config = config
        self.cache = SimulationCache(cache_size)

    def _key(self, action: Mapping[int, int], removed: int | None, seed: int):
        active = tuple(
            (a.id, action[a.id]) for a in self.scenario.agents if a.id != removed
        )
        return (active, seed)

    def _runs(
        self, action: Mapping[int, int], seed: int, removed_ids: tuple[int, ...]
    ) -> list[dict[int, float]]:
        """Cached travel times of the full roster, then of each roster without an AV.

        Every roster is its own cache entry. The first miss runs one batch:
        the full roster plus each roster in ``removed_ids`` not cached yet.
        Later misses of the same call are served from that batch's rows, even
        ones the cache evicted meanwhile.
        """
        keys = {r: self._key(action, r, seed) for r in (None, *removed_ids)}
        fresh: dict[int | None, dict[int, float]] = {}

        def compute(removed: int | None) -> dict[int, float]:
            if removed not in fresh:
                todo = [j for j in removed_ids if j == removed or keys[j] not in self.cache]
                runs = simulate_batch(self.scenario, action, todo, seed)
                fresh.update(zip((None, *todo), (run.times for run in runs)))
            return fresh[removed]

        return [self.cache.get_or_compute(k, lambda r=r: compute(r)) for r, k in keys.items()]

    def travel_times(self, action: Mapping[int, int], seed: int) -> TravelTimeVector:
        return TravelTimeVector(times=self._runs(action, seed, ())[0], seed=seed)

    def marginal_matrix(self, action: Mapping[int, int], seed: int) -> MarginalCostMatrix:
        base, *withouts = self._runs(action, seed, self.scenario.av_ids)
        return _matrix_from_runs(self.scenario, action, seed, base, withouts)

    def evaluate(
        self, action: Mapping[int, int], seed: int
    ) -> tuple[TravelTimeVector, dict[int, float]]:
        """Travel times plus each AV's intrinsic reward for one joint action.

        Skips the counterfactual fan-out entirely when the config gives the
        intrinsic term zero weight, so selfish baselines cost one run per
        episode. Otherwise the full run and every counterfactual the matrix
        needs come from one lookup, simulated together in one batch on a miss.
        """
        avs = self.scenario.av_ids
        if not self.config.needs_intrinsic:
            return self.travel_times(action, seed), {j: 0.0 for j in avs}
        base, *withouts = self._runs(action, seed, avs)
        matrix = _matrix_from_runs(self.scenario, action, seed, base, withouts)
        scores = {j: intrinsic_reward(matrix, j, self.config) for j in avs}
        return TravelTimeVector(times=base, seed=seed), scores

    @property
    def simulations_run(self) -> int:
        return self.cache.stats.misses
