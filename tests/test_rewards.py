from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from routelab import (
    ConfigurationError,
    MarginalCostMatrix,
    RewardConfig,
    RewardEngine,
    intrinsic_reward,
    shaped_reward,
    simulate,
    simulate_without,
)
from routelab.rewards import SimulationCache

from conftest import id_view, make_scenario
from oracle_sim import oracle_subset_times, oracle_travel_times


def full_action(scenario, routes_by_av=None, default=0):
    action = {a.id: default for a in scenario.agents}
    if routes_by_av:
        action.update(routes_by_av)
    return action


def matrix_for(scenario, action, seed=0):
    return RewardEngine(scenario, RewardConfig()).marginal_matrix(action, seed)


def test_single_av_alone_gives_zero_matrix():
    scenario = make_scenario([0.0], av_flags=[True])
    matrix = matrix_for(scenario, {0: 0})
    assert matrix.values.shape == (1, 1)
    assert matrix.values[0, 0] == 0.0


def test_non_interacting_avs_give_zero_matrix():
    # Far apart in time: conflict windows cannot overlap.
    scenario = make_scenario([0.0, 200.0], av_flags=[True, True])
    matrix = matrix_for(scenario, {0: 0, 1: 1})
    assert np.all(matrix.values == 0.0)


def test_all_route0_default_calibration_gives_zero_matrix(default_scenario):
    # At 4 s headway nobody queues on route 0, so removals change nothing.
    matrix = matrix_for(default_scenario, full_action(default_scenario))
    assert np.all(matrix.values == 0.0)


def test_priority_av_blocks_route0_av(default_scenario):
    action = full_action(default_scenario, {1: 1})
    matrix = matrix_for(default_scenario, action)
    assert matrix.entry(3, 1) == -6.0
    assert matrix.entry(5, 1) == -2.0
    assert matrix.entry(2, 1) == -8.0  # human row, system scope material


def test_fifo_violation_appears_above_diagonal():
    # Later-departing AV 1 holds priority; earlier AV 0 yields to it.
    scenario = make_scenario([0.0, 2.0], pre_merge=(40.0, 41.0))
    matrix = matrix_for(scenario, {0: 0, 1: 1})
    av_rows = [i for i in matrix.row_ids if i in matrix.col_ids]
    assert av_rows.index(0) < matrix.col_ids.index(1)
    assert matrix.entry(0, 1) == -5.0  # row above the diagonal, nonzero


def test_matrix_diagonal_zero_and_entries_nonpositive(default_scenario):
    rng = random.Random(3)
    for _ in range(5):
        action = full_action(
            default_scenario, {av: rng.randint(0, 1) for av in default_scenario.av_ids}
        )
        matrix = matrix_for(default_scenario, action)
        for av in default_scenario.av_ids:
            assert matrix.entry(av, av) == 0.0
        assert np.all(matrix.values <= 0.0)


def test_matrix_matches_independent_simulation_pairs(default_scenario):
    action = full_action(default_scenario, {1: 1, 9: 1, 15: 1})
    matrix = matrix_for(default_scenario, action)
    with_all = oracle_travel_times(default_scenario, action)
    for j in default_scenario.av_ids:
        rest = [a.id for a in default_scenario.agents if a.id != j]
        without = oracle_subset_times(default_scenario, action, rest)
        for i in rest:
            assert matrix.entry(i, j) == without[i] - with_all[i]


def test_agent_missing_from_base_run_contributes_zero(default_scenario):
    action = full_action(default_scenario, {1: 1})
    full = RewardEngine(default_scenario, RewardConfig()).marginal_matrix(action, seed=0)
    assert full.entry(3, 1) == -6.0
    assert full.entry(1, 1) == 0.0  # AV 1 is missing from its own counterfactual


def zero_matrix(row_ids, col_ids):
    return MarginalCostMatrix(
        row_ids=tuple(row_ids),
        col_ids=tuple(col_ids),
        values=np.zeros((len(row_ids), len(col_ids))),
        action={},
        seed=0,
    )


def test_intrinsic_zero_matrix():
    matrix = zero_matrix((0, 1, 2), (1, 2))
    config = RewardConfig(scope="system")
    assert intrinsic_reward(matrix, 1, config) == 0.0
    assert intrinsic_reward(matrix, 2, config) == 0.0


def test_intrinsic_saturates_on_large_entry():
    matrix = zero_matrix((0, 1), (0, 1))
    matrix.values[1, 0] = -21.0
    config = RewardConfig(scope="av-group", tanh_scale=1.0)
    value = intrinsic_reward(matrix, 0, config)
    assert value == pytest.approx(math.tanh(-21.0))
    assert value == pytest.approx(-1.0, abs=1e-8)


def test_intrinsic_bounded_by_scope_size():
    rng = np.random.default_rng(5)
    row_ids = tuple(range(8))
    col_ids = tuple(range(4))
    config = RewardConfig(scope="system")
    group = RewardConfig(scope="av-group")
    for _ in range(100):
        matrix = zero_matrix(row_ids, col_ids)
        matrix.values[:] = rng.normal(0.0, 50.0, size=matrix.values.shape)
        for j in col_ids:
            assert abs(intrinsic_reward(matrix, j, config)) < len(row_ids)
            assert abs(intrinsic_reward(matrix, j, group)) < len(col_ids)


def test_intrinsic_scope_and_raw_sum():
    matrix = zero_matrix((0, 1, 2, 3), (1, 3))
    matrix.values[0, 0] = -3.0  # human row, column of AV 1
    matrix.values[2, 0] = -1.0  # AV row? id 2 is not a column -> human row
    config_group = RewardConfig(scope="av-group")
    config_system = RewardConfig(scope="system")
    # av-group scope only sums rows whose id is also a column (ids 1 and 3).
    assert intrinsic_reward(matrix, 1, config_group) == 0.0
    assert intrinsic_reward(matrix, 1, config_system) == pytest.approx(
        math.tanh(-3.0) + math.tanh(-1.0)
    )
    raw = RewardConfig(scope="system", raw_sum=True)
    assert intrinsic_reward(matrix, 1, raw) == -4.0


def test_intrinsic_unknown_scope_errors():
    matrix = zero_matrix((0, 1), (0, 1))
    with pytest.raises(ConfigurationError):
        intrinsic_reward(matrix, 0, RewardConfig(scope="none"))


def test_tanh_scale_divides_argument():
    matrix = zero_matrix((0, 1), (0, 1))
    matrix.values[1, 0] = -2.0
    wide = RewardConfig(scope="av-group", tanh_scale=4.0)
    assert intrinsic_reward(matrix, 0, wide) == pytest.approx(math.tanh(-0.5))


def test_shaped_reward_values():
    assert shaped_reward(-50.0, 0.0, RewardConfig(alpha=1.0, beta=0.0)) == -50.0
    assert shaped_reward(-50.0, -1.0, RewardConfig(alpha=1.0, beta=200.0)) == -250.0
    assert shaped_reward(-50.0, -0.25, RewardConfig(alpha=0.0, beta=1.0)) == -0.25


def test_reward_config_validation():
    with pytest.raises(ConfigurationError):
        RewardConfig(scope="everyone")
    with pytest.raises(ConfigurationError):
        RewardConfig(tanh_scale=0.0)


def test_cache_hit_avoids_simulation(default_scenario):
    engine = RewardEngine(default_scenario, RewardConfig(beta=200.0, scope="av-group"))
    routes = default_scenario.routes_of(full_action(default_scenario, {1: 1}))
    engine.evaluate(routes, seed=0)
    first = engine.simulations_run
    assert first == 1 + len(default_scenario.av_ids)
    engine.evaluate(routes, seed=0)
    assert engine.simulations_run == first  # pure cache hits


def test_cache_off_matches_cache_on(default_scenario):
    config = RewardConfig(beta=200.0, scope="system")
    cached = RewardEngine(default_scenario, config)
    routes = default_scenario.routes_of(full_action(default_scenario, {3: 1, 7: 1}))
    uncached_runs = 0
    for seed in (0, 1, 0):  # the repeat is served from the memo of the shared engine only
        uncached = RewardEngine(default_scenario, config)
        t1, m1 = cached.evaluate(routes, seed)
        t2, m2 = uncached.evaluate(routes, seed)
        assert t1 == t2
        assert m1 == m2
        uncached_runs += uncached.simulations_run
    assert uncached_runs > cached.simulations_run


def test_memo_matches_fresh_engine_per_action(default_scenario):
    # One memoising engine against a fresh engine per call, on first sight of
    # an action (simulated) and on its repeat (served from the memo).
    config = RewardConfig(beta=1.0, scope="av-group")
    engine = RewardEngine(default_scenario, config)
    rng = random.Random(11)
    for _ in range(10):
        action = full_action(
            default_scenario, {av: rng.randint(0, 1) for av in default_scenario.av_ids}
        )
        routes = default_scenario.routes_of(action)
        for _repeat in range(2):
            t1, m1 = engine.evaluate(routes, 0)
            t2, m2 = RewardEngine(default_scenario, config).evaluate(routes, 0)
            assert t1 == t2
            assert m1 == m2
    stats = engine.cache.stats
    assert len(engine.cache) == stats.misses == 10
    assert stats.hits == 10
    assert engine.simulations_run == 10 * (1 + len(default_scenario.av_ids))
    assert stats.evictions == 0


class _TinyMemo(SimulationCache):
    """A memo that keeps only its newest ``capacity`` days after each lookup."""

    def __init__(self, capacity: int) -> None:
        super().__init__()
        self.capacity = capacity

    def get_or_compute(self, key, compute):
        value = super().get_or_compute(key, compute)
        while len(self._entries) > self.capacity:
            del self._entries[next(iter(self._entries))]
            self.stats.evictions += 1
        return value


def test_tiny_cache_evicts_but_stays_correct(default_scenario):
    # The engine must not rely on a day staying in its memo after the
    # lookup that returned it.
    config = RewardConfig(beta=1.0, scope="av-group")
    tiny = RewardEngine(default_scenario, config)
    tiny.cache = _TinyMemo(capacity=3)
    reference = RewardEngine(default_scenario, config)
    rng = random.Random(11)
    for _ in range(10):
        action = full_action(
            default_scenario, {av: rng.randint(0, 1) for av in default_scenario.av_ids}
        )
        routes = default_scenario.routes_of(action)
        t1, m1 = tiny.evaluate(routes, 0)
        t2, m2 = reference.evaluate(routes, 0)
        assert t1 == t2
        assert m1 == m2
    assert tiny.cache.stats.evictions > 0
    assert len(tiny.cache) == 3


def test_stochastic_engine_keeps_nothing_and_counts_every_roster(default_scenario):
    noisy = default_scenario.with_noise(2.0)
    action = full_action(noisy, {1: 1, 13: 1})
    shaped = RewardEngine(noisy, RewardConfig(beta=200.0, scope="av-group"))
    selfish = RewardEngine(noisy, RewardConfig())
    seeds = (5, 6, 5)  # a repeated day is simulated again
    routes = noisy.routes_of(action)
    for seed in seeds:
        times, _ = shaped.evaluate(routes, seed)
        assert dict(zip(noisy.ids, times, strict=True)) == simulate(noisy, action, seed).times
        assert selfish.evaluate(routes, seed)[0] == times
    assert shaped.cache is None and selfish.cache is None
    assert shaped.simulations_run == len(seeds) * (1 + len(noisy.av_ids))
    assert selfish.simulations_run == len(seeds)


def test_enumeration_budget_small_scenario():
    # 4 AVs, binary routes: a full sweep costs at most 16 base + 4*16 runs.
    scenario = make_scenario([0.0, 4.0, 8.0, 12.0], av_flags=[True] * 4)
    engine = RewardEngine(scenario, RewardConfig(beta=200.0, scope="av-group"))
    for routes in itertools.product((0, 1), repeat=4):
        action = {i: routes[i] for i in range(4)}
        engine.evaluate(scenario.routes_of(action), seed=0)
        engine.evaluate(scenario.routes_of(action), seed=0)  # repeats are free
    assert engine.simulations_run <= 16 + 4 * 16


def test_cache_safe_under_concurrent_evaluation(default_scenario):
    # Hammer one engine from several threads; every result must match the
    # single-threaded reference and no partial entries may surface.
    from concurrent.futures import ThreadPoolExecutor

    config = RewardConfig(beta=200.0, scope="system")
    engine = RewardEngine(default_scenario, config)
    reference = RewardEngine(default_scenario, config)
    rng = random.Random(17)
    actions = [
        default_scenario.routes_of(
            full_action(default_scenario, {av: rng.randint(0, 1) for av in default_scenario.av_ids})
        )
        for _ in range(12)
    ]
    expected = [reference.evaluate(a, seed=0) for a in actions]

    def worker(k):
        action = actions[k % len(actions)]
        return k % len(actions), engine.evaluate(action, seed=0)

    with ThreadPoolExecutor(max_workers=8) as pool:
        for index, (times, scores) in pool.map(worker, range(96)):
            assert times == expected[index][0]
            assert scores == expected[index][1]


def test_cache_flush_then_recompute_is_identical(default_scenario):
    config = RewardConfig(beta=200.0, scope="av-group")
    engine = RewardEngine(default_scenario, config)
    routes = default_scenario.routes_of(full_action(default_scenario, {1: 1, 13: 1}))
    before_times, before_scores = engine.evaluate(routes, seed=4)
    first = engine.simulations_run
    engine.cache = SimulationCache()  # an emptied memo
    after_times, after_scores = engine.evaluate(routes, seed=4)
    assert before_times == after_times
    assert before_scores == after_scores
    assert engine.simulations_run == 2 * first


def test_counterfactual_consistency_through_engine(default_scenario):
    config = RewardConfig(beta=1.0, scope="system")
    engine = RewardEngine(default_scenario, config)
    action = full_action(default_scenario, {5: 1, 11: 1})
    matrix = engine.marginal_matrix(action, seed=0)
    base = simulate(default_scenario, action, seed=0)
    for j in default_scenario.av_ids:
        direct = simulate_without(default_scenario, action, j, seed=0)
        for i in (a.id for a in default_scenario.agents):
            if i == j:
                continue
            assert matrix.entry(i, j) == direct[i] - base[i]


def test_scope_nesting_without_human_interaction():
    # Humans depart long after every AV: no human interacts with any AV.
    scenario = make_scenario(
        [0.0, 4.0, 400.0, 404.0], av_flags=[True, True, False, False]
    )
    action = {0: 0, 1: 1, 2: 0, 3: 0}
    matrix = RewardEngine(scenario, RewardConfig()).marginal_matrix(action, 0)
    for j in scenario.av_ids:
        group = intrinsic_reward(matrix, j, RewardConfig(scope="av-group"))
        system = intrinsic_reward(matrix, j, RewardConfig(scope="system"))
        assert group == system


def test_sign_preservation_deterministic(default_scenario):
    config = RewardConfig(beta=200.0, scope="system")
    engine = RewardEngine(default_scenario, config)
    rng = random.Random(2)
    for _ in range(5):
        action = full_action(
            default_scenario, {av: rng.randint(0, 1) for av in default_scenario.av_ids}
        )
        _, scores = engine.evaluate(default_scenario.routes_of(action), 0)
        assert all(m <= 0.0 for m in scores)


def test_matrix_csv_layout(default_scenario):
    action = full_action(default_scenario, {1: 1})
    matrix = matrix_for(default_scenario, action)
    text = matrix.to_csv(av_rows_only=True)
    lines = text.strip().split("\n")
    assert lines[0] == "id," + ",".join(str(j) for j in default_scenario.av_ids)
    assert len(lines) == 1 + len(default_scenario.av_ids)
    full = matrix.to_csv(av_rows_only=False)
    assert len(full.strip().split("\n")) == 1 + len(default_scenario.agents)


def test_intrinsic_reward_matches_entrywise_reference():
    # Each column must give, bit for bit, the per-entry sum in row order,
    # skipping the AV's own row even where its entry is nonzero.
    rng = np.random.default_rng(3)
    row_ids = (4, 0, 7, 2, 9, 5)
    col_ids = (0, 2, 5)
    for _ in range(50):
        matrix = zero_matrix(row_ids, col_ids)
        matrix.values[:] = rng.normal(0.0, 30.0, size=matrix.values.shape)
        for config in (
            RewardConfig(scope="system", tanh_scale=3.0),
            RewardConfig(scope="av-group", tanh_scale=0.5),
            RewardConfig(scope="system", raw_sum=True),
        ):
            scope = row_ids if config.scope == "system" else col_ids
            expected = {}
            for j in col_ids:
                total = 0.0
                for i in scope:
                    if i != j:
                        value = matrix.entry(i, j)
                        total += value if config.raw_sum else math.tanh(value / config.tanh_scale)
                expected[j] = total
            assert {j: intrinsic_reward(matrix, j, config) for j in col_ids} == expected


# -- day memo ------------------------------------------------------------------------


def test_repeated_day_is_one_lookup(default_scenario):
    routes = default_scenario.routes_of(full_action(default_scenario, {3: 1, 9: 1}))
    for config in (RewardConfig(beta=200.0, scope="av-group"), RewardConfig()):
        engine = RewardEngine(default_scenario, config)
        first = engine.evaluate(routes, seed=0)
        stats = engine.cache.stats
        hits, misses, simulated = stats.hits, stats.misses, engine.simulations_run
        again = engine.evaluate(routes, seed=0)
        assert again[0] is first[0] and again[1] is first[1]  # served from the day memo
        assert stats.hits == hits + 1
        assert stats.misses == misses == len(engine.cache)
        assert engine.simulations_run == simulated
        engine.evaluate(routes, seed=1)  # another seed, another day
        assert stats.misses == misses + 1 == len(engine.cache)


def test_a_new_day_simulates_all_its_rosters(default_scenario):
    config = RewardConfig(beta=1.0, scope="system")
    engine = RewardEngine(default_scenario, config)
    n_avs = len(default_scenario.av_ids)
    engine.evaluate(default_scenario.routes_of(full_action(default_scenario, {5: 0})), seed=0)
    second = default_scenario.routes_of(full_action(default_scenario, {5: 1}))
    _, scores = engine.evaluate(second, seed=0)
    # The roster without AV 5 is the same on both days, but nothing keeps rosters.
    assert engine.cache.stats.misses == 2 and engine.cache.stats.hits == 0
    assert engine.simulations_run == 2 * (1 + n_avs)
    assert scores == RewardEngine(default_scenario, config).evaluate(second, seed=0)[1]
    assert dict(zip(default_scenario.av_ids, scores, strict=True))[5] != 0.0


@pytest.mark.parametrize(
    "routes",
    [(0,) * 21, (0,) * 23, (2,) + (0,) * 21, (-1,) + (0,) * 21],
    ids=["short", "long", "unknown-route", "negative-route"],
)
def test_evaluate_rejects_routes_that_do_not_fit(default_scenario, routes):
    for scenario in (default_scenario, default_scenario.with_noise(2.0)):
        engine = RewardEngine(scenario, RewardConfig(beta=200.0, scope="av-group"))
        with pytest.raises(ConfigurationError, match="do not fit"):
            engine.evaluate(routes, seed=0)
        assert engine.simulations_run == 0


def _fixed_day(scenario):
    routes = {a.id: a.id % 4 // 2 for a in scenario.agents}
    return {i: (lambda obs, r=r: r) for i, r in routes.items()}


def test_mutating_an_episode_log_leaves_the_memo_intact(default_scenario):
    from routelab.episode import run_episode

    config = RewardConfig(beta=200.0, scope="system")
    engine = RewardEngine(default_scenario, config)
    policies = _fixed_day(default_scenario)
    first = run_episode(default_scenario, policies, config, 0, 0, engine)
    for values in (first.times, first.intrinsic):
        with pytest.raises(TypeError):
            values[0] = 123.0
    later = id_view(run_episode(default_scenario, policies, config, 1, 0, engine), default_scenario)
    fresh = id_view(run_episode(default_scenario, policies, config, 1, 0), default_scenario)
    assert later.times.times == fresh.times.times
    assert later.intrinsic == fresh.intrinsic
    assert later.shaped == fresh.shaped
    assert later.extrinsic == fresh.extrinsic


def test_logs_of_one_deterministic_day_share_the_memo_tuples(default_scenario):
    from routelab.episode import run_episode

    for config in (RewardConfig(beta=200.0, scope="av-group"), RewardConfig()):
        engine = RewardEngine(default_scenario, config)
        policies = _fixed_day(default_scenario)
        first = run_episode(default_scenario, policies, config, 0, 0, engine)
        second = run_episode(default_scenario, policies, config, 1, 0, engine)
        assert second.times is first.times and second.intrinsic is first.intrinsic
        assert second.routes == first.routes and second.config is config
