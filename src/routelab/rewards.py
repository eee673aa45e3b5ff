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
agent's noise once and derives every counterfactual from the full run.
Only noise-free rosters repeat, so only a deterministic engine memoises: a
plain dict keyed by (active agents with routes, seed) holds each roster as
its own entry, and a deterministic 10-AV binary-route sweep of the 1024
joint actions never simulates more than 1024 + 10 * 1024 rosters. A noisy
day has its own seed and is one batch that nothing keeps. Either way
``simulations_run`` counts the distinct rosters simulated.
"""
from __future__ import annotations

import math
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
    evictions: int = 0  # the memo never drops an entry


class SimulationCache:
    """Plain memo of noise-free simulation outputs, one entry per roster.

    Entries are never evicted, and each is inserted whole once its
    simulation finished, so a lookup sees a complete value or none.
    """

    def __init__(self) -> None:
        self._entries: dict = {}
        self.stats = CacheStats()

    def get_or_compute(self, keys: Sequence, compute: Callable[[list], list]) -> list:
        """Values of ``keys``; ``compute(missing)`` returns the missing ones in order."""
        missing = [key for key in keys if key not in self._entries]
        self.stats.hits += len(keys) - len(missing)
        self.stats.misses += len(missing)
        if missing:
            self._entries.update(zip(missing, compute(missing)))
        return [self._entries[key] for key in keys]

    def __len__(self) -> int:
        return len(self._entries)


class RewardEngine:
    """Travel times and per-AV intrinsic rewards for one scenario.

    A deterministic engine memoises every roster it simulates; a noisy one
    keeps nothing. It takes no lock, as each run, analyzer and CLI call
    builds its own engine; threads sharing one still see whole entries, but
    may simulate a roster twice and miscount ``simulations_run``.
    """

    def __init__(self, scenario: Scenario, config: RewardConfig):
        self.scenario = scenario
        self.config = config
        self.cache = SimulationCache() if scenario.noise_sigma == 0 else None
        self.simulations_run = 0

    def _key(self, action: Mapping[int, int], removed: int | None, seed: int):
        active = tuple(
            (a.id, action[a.id]) for a in self.scenario.agents if a.id != removed
        )
        return (active, seed)

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
        by_key = {self._key(action, r, seed): r for r in rosters}
        return self.cache.get_or_compute(
            list(by_key),
            lambda missing: self._simulate(action, seed, [by_key[k] for k in missing]),
        )

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
        needs come from one lookup, simulated together in one batch.
        """
        avs = self.scenario.av_ids
        if not self.config.needs_intrinsic:
            return self.travel_times(action, seed), {j: 0.0 for j in avs}
        base, *withouts = self._runs(action, seed, avs)
        matrix = _matrix_from_runs(self.scenario, action, seed, base, withouts)
        scores = {j: intrinsic_reward(matrix, j, self.config) for j in avs}
        return TravelTimeVector(times=base, seed=seed), scores
