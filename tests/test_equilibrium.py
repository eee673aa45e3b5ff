from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import routelab.equilibrium
import routelab.rewards
from routelab import (
    AgentSpec,
    ConfigurationError,
    NetworkConfig,
    RewardConfig,
    RewardEngine,
    RouteSpec,
    Scenario,
    beta_max,
    intrinsic_reward,
    shaped_reward,
    simulate,
)
from routelab.equilibrium import EquilibriumAnalyzer, encode_action

from conftest import deviation_rows, deviation_terms, make_scenario


def small_game(n_av=4, n_human=2):
    """Compact two-route world: humans first, then AVs, 4 s headway."""
    flags = [False] * n_human + [True] * n_av
    departures = [4.0 * i for i in range(n_human + n_av)]
    scenario = make_scenario(departures, av_flags=flags)
    humans = {i: 0 for i in range(n_human)}
    return scenario, humans


def test_all_route0_unique_equilibrium_and_optimum_selfish():
    scenario, humans = small_game()
    analyzer = EquilibriumAnalyzer(scenario, humans)
    report = analyzer.enumerate_nash(RewardConfig(alpha=1.0, beta=0.0, scope="none"))
    assert report.count == 1
    assert report.equilibria == [(0, 0, 0, 0)]
    assert report.optima == [(0, 0, 0, 0)]
    assert report.optimum_total_time == 6 * 50.0


def test_alpha_zero_makes_every_profile_an_equilibrium():
    scenario, humans = small_game(n_av=3)
    analyzer = EquilibriumAnalyzer(scenario, humans)
    report = analyzer.enumerate_nash(RewardConfig(alpha=0.0, beta=0.0, scope="none"))
    assert report.count == 2**3


def test_symmetric_routes_tie_for_system_optimum():
    scenario = make_scenario(
        [0.0, 4.0, 8.0],
        pre_merge=(40.0, 40.0),
    )
    # make both routes priority so the game is fully symmetric
    from routelab import NetworkConfig, RouteSpec, Scenario

    network = NetworkConfig(
        routes=(RouteSpec(40.0, True), RouteSpec(40.0, True)),
        merge_gap_g=2.0,
        yield_window_w=6.0,
        post_merge_time=10.0,
    )
    scenario = Scenario(agents=scenario.agents, network=network)
    analyzer = EquilibriumAnalyzer(scenario, {})
    optima, total = analyzer.system_optimum()
    assert len(optima) == 2**3
    assert total == 3 * 50.0


def test_single_av_system_optimum_is_fastest_route():
    scenario = make_scenario([0.0], av_flags=[True])
    analyzer = EquilibriumAnalyzer(scenario, {})
    optima, total = analyzer.system_optimum()
    assert optima == [(0,)]
    assert total == 50.0


def test_system_optimum_scans_once_per_analyzer():
    scenario, humans = small_game(n_av=3)
    analyzer = EquilibriumAnalyzer(scenario, humans)
    optima, total = analyzer.system_optimum()
    assert optima == [(0, 0, 0)]
    optima.append((1, 1, 1))  # the caller's list: the stored optimum stays as it was
    # A second scan of these runs would find the slowest profile instead.
    analyzer._full = -analyzer._full
    for beta in (0.0, 1.0, 10.0):
        report = analyzer.enumerate_nash(RewardConfig(alpha=1.0, beta=beta, scope="system"))
        assert (report.optima, report.optimum_total_time) == ([(0, 0, 0)], total)


def test_deviation_terms_without_conflicts():
    # One AV alone: switching routes changes only its own time.
    scenario = make_scenario([0.0], av_flags=[True])
    analyzer = EquilibriumAnalyzer(scenario, {})
    config = RewardConfig(scope="av-group")
    delta_seconds, delta_score = deviation_terms(analyzer, (0,), 0, config)
    assert delta_seconds == 10.0  # route 1 free-flow minus route 0 free-flow
    assert delta_score == 0.0


def test_deviation_terms_need_binary_spaces():
    scenario = make_scenario([0.0], av_flags=[True], action_space=(0,))
    analyzer = EquilibriumAnalyzer(scenario, {})
    assert analyzer.deviation_records(RewardConfig()) is None


def test_beta_max_cases():
    assert beta_max(10.0, 0.5) == math.inf
    assert beta_max(10.0, -0.1) == pytest.approx(100.0)
    assert beta_max(0.0, 0.0) is None
    assert beta_max(-10.0, -0.1) == math.inf
    assert beta_max(-10.0, 0.5) == pytest.approx(20.0)
    assert beta_max(0.0, -0.3) == 0.0
    # ulp-level residue from tanh sums is treated as an exact zero
    assert beta_max(10.0, -4.4e-16) == math.inf
    assert beta_max(5e-16, -0.3) == 0.0


def test_rewards_affine_in_beta():
    scenario, humans = small_game()
    analyzer = EquilibriumAnalyzer(scenario, humans)
    rng = random.Random(0)
    for _ in range(20):
        action = tuple(rng.randint(0, 1) for _ in analyzer.av_ids)
        values = [
            analyzer.rewards(
                action, RewardConfig(alpha=1.0, beta=beta, scope="system")
            )
            for beta in (0.0, 1.0, 2.0)
        ]
        for av in analyzer.av_ids:
            mid = 0.5 * (values[0][av] + values[2][av])
            assert abs(values[1][av] - mid) <= 1e-9 * max(1.0, abs(mid))


def test_endpoint_rule_for_sign_constancy():
    # Affine functions keep a constant sign on [0, B] iff both endpoints agree.
    scenario, humans = small_game()
    analyzer = EquilibriumAnalyzer(scenario, humans)
    config = RewardConfig(scope="system")
    rng = random.Random(4)
    grid = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0]
    for _ in range(20):
        action = tuple(rng.randint(0, 1) for _ in analyzer.av_ids)
        av = rng.choice(analyzer.av_ids)
        delta_seconds, delta_score = deviation_terms(analyzer, action, av, config)
        delta_reward = -delta_seconds

        def delta_r(beta):
            return delta_reward + beta * delta_score

        endpoints_positive = delta_r(grid[0]) > 0 and delta_r(grid[-1]) > 0
        all_positive = all(delta_r(b) > 0 for b in grid)
        assert endpoints_positive == all_positive


def test_equilibria_invariant_over_positive_beta_small_game():
    scenario, humans = small_game()
    analyzer = EquilibriumAnalyzer(scenario, humans)
    for beta in (0.0, 0.3, 1.0, 10.0, 100.0):
        report = analyzer.enumerate_nash(RewardConfig(alpha=1.0, beta=beta, scope="av-group"))
        assert report.count == 1
        assert report.equilibria == [(0, 0, 0, 0)]


def test_all_route0_deviation_pattern_on_default_world(default_scenario):
    # Observed pattern from the calibrated world, frozen as a regression
    # check: leaving the all-route-0 profile costs the deviator the 10 s
    # route gap, and every AV except the last also delays the AVs behind it.
    from routelab.humans import freeze_all, run_warmup

    humans, _ = run_warmup(default_scenario, 200, seed=0)
    profile = freeze_all(humans)
    frozen = {i: profile[i] for i in default_scenario.human_ids}
    analyzer = EquilibriumAnalyzer(default_scenario, frozen)
    config = RewardConfig(alpha=1.0, beta=1.0, scope="av-group")
    all_zero = (0,) * len(analyzer.av_ids)
    for av in analyzer.av_ids[:-1]:
        delta_seconds, delta_score = deviation_terms(analyzer, all_zero, av, config)
        assert delta_seconds == 10.0
        assert delta_score < 0.0
    last = analyzer.av_ids[-1]
    delta_seconds, delta_score = deviation_terms(analyzer, all_zero, last, config)
    assert delta_seconds == 10.0
    assert delta_score == 0.0  # the last AV delays only humans


def test_aligned_externality_keeps_deviation_sign_constant():
    # Wherever the intrinsic change agrees in sign with the selfish reward
    # change, the shaped deviation value keeps that sign for every beta.
    scenario, humans = small_game()
    analyzer = EquilibriumAnalyzer(scenario, humans)
    config = RewardConfig(alpha=1.0, beta=1.0, scope="av-group")
    aligned = 0
    for action in analyzer.profiles():
        for slot, av in enumerate(analyzer.av_ids):
            delta_seconds, delta_score = deviation_terms(analyzer, action, av, config)
            delta_reward = -delta_seconds
            if delta_reward == 0.0 or delta_score == 0.0:
                continue
            if (delta_reward > 0) != (delta_score > 0):
                continue
            aligned += 1
            reference_sign = delta_reward > 0
            for beta in (0.0, 1.0, 10.0, 100.0):
                low = action[:slot] + (0,) + action[slot + 1 :]
                high = action[:slot] + (1,) + action[slot + 1 :]
                shaped = RewardConfig(alpha=1.0, beta=beta, scope="av-group")
                delta_r = (
                    analyzer.rewards(high, shaped)[av]
                    - analyzer.rewards(low, shaped)[av]
                )
                assert (delta_r > 0) == reference_sign
    assert aligned > 0


def test_negative_beta_enumeration_reports_without_asserting():
    # Hostile shaping can create additional equilibria; the analyzer just
    # reports whatever the enumeration finds.
    scenario, humans = small_game(n_av=3)
    analyzer = EquilibriumAnalyzer(scenario, humans)
    report = analyzer.enumerate_nash(RewardConfig(alpha=1.0, beta=-1.0, scope="av-group"))
    assert report.count >= 1
    assert report.count == len(report.equilibria)


def test_verification_closure_with_cold_cache():
    scenario, humans = small_game(n_av=3)
    analyzer = EquilibriumAnalyzer(scenario, humans)
    config = RewardConfig(alpha=1.0, beta=10.0, scope="av-group")
    report = analyzer.enumerate_nash(config)
    for action in report.equilibria:
        assert analyzer.verify_equilibrium(action, config)


def test_three_route_network_end_to_end():
    # K parallel routes work everywhere except the binary deviation analysis.
    from routelab import NetworkConfig, RouteSpec, Scenario, AgentSpec, simulate
    from conftest import build_observation

    network = NetworkConfig(
        routes=(
            RouteSpec(40.0, False),
            RouteSpec(50.0, True),
            RouteSpec(55.0, True),
        ),
        merge_gap_g=2.0,
        yield_window_w=6.0,
        post_merge_time=10.0,
    )
    agents = tuple(
        AgentSpec(
            id=i,
            kind="av" if i % 2 else "human",
            departure_time=4.0 * i,
            action_space=(0, 1, 2),
        )
        for i in range(4)
    )
    scenario = Scenario(agents=agents, network=network)
    times = simulate(scenario, {0: 0, 1: 1, 2: 2, 3: 0}, seed=0)
    assert times[2] == 55.0 + 10.0  # free-flow on the third route
    assert build_observation(scenario, {0: 0, 1: 2}) == (1, 0, 1)

    analyzer = EquilibriumAnalyzer(scenario, {0: 0, 2: 0})
    report = analyzer.enumerate_nash(RewardConfig(alpha=1.0, beta=0.0, scope="none"))
    assert analyzer.space_size == 9
    assert report.equilibria == [(0, 0)]
    assert analyzer.deviation_records(RewardConfig()) is None  # binary-only analysis skipped


def test_enumeration_bound_guard():
    scenario, humans = small_game(n_av=4)
    with pytest.raises(ConfigurationError, match="shrink"):
        EquilibriumAnalyzer(scenario, humans, bound=8)


def test_analyzer_requires_deterministic_mode():
    scenario, humans = small_game(n_av=2)
    noisy = scenario.with_noise(2.0)
    with pytest.raises(ConfigurationError):
        EquilibriumAnalyzer(noisy, humans)


def test_deviation_records_and_encoding():
    scenario, humans = small_game(n_av=2, n_human=1)
    analyzer = EquilibriumAnalyzer(scenario, humans)
    table = analyzer.deviation_records(RewardConfig(alpha=1.0, scope="system", beta=1.0))
    assert table.index.shape == (4, 2)
    records = deviation_rows(analyzer, table)
    assert len(records) == 4 * 2  # profiles x AVs
    assert encode_action((0, 1)) == "01"
    by_key = {(r.action, r.av_id): r for r in records}
    flat = by_key[((0, 0), scenario.av_ids[0])]
    # switching to the priority route costs the deviator ten seconds
    assert flat.delta_seconds >= 10.0


def mixed_radix_game():
    """Three routes; AV action spaces of sizes 3, 2 and 2, one with a gap."""
    from routelab import AgentSpec, NetworkConfig, RouteSpec, Scenario

    network = NetworkConfig(
        routes=(
            RouteSpec(40.0, False),
            RouteSpec(42.0, True),
            RouteSpec(44.0, True),
        ),
        merge_gap_g=2.0,
        yield_window_w=6.0,
        post_merge_time=10.0,
    )
    spaces = ((0, 1, 2), (0, 1, 2), (0, 1), (0, 2), (0, 1, 2))
    kinds = ("human", "av", "av", "av", "human")
    agents = tuple(
        AgentSpec(id=i, kind=kinds[i], departure_time=float(i), action_space=spaces[i])
        for i in range(5)
    )
    return Scenario(agents=agents, network=network), {0: 0, 4: 1}


BRUTE_FORCE_CONFIGS = (
    RewardConfig(alpha=1.0, beta=0.0, scope="none"),
    RewardConfig(alpha=1.0, beta=1.0, scope="system"),
    RewardConfig(alpha=1.0, beta=-40.0, scope="system"),
    RewardConfig(alpha=0.0, beta=1.0, scope="system"),
    RewardConfig(alpha=1.0, beta=-1.0, scope="av-group"),
    RewardConfig(alpha=0.1, beta=10.0, scope="av-group"),
)


@pytest.mark.parametrize("game", ["binary-3av", "three-route"])
def test_vectorised_nash_matches_brute_force(game):
    scenario, humans = small_game(n_av=3) if game == "binary-3av" else mixed_radix_game()
    analyzer = EquilibriumAnalyzer(scenario, humans)
    profiles = list(analyzer.profiles())
    assert [analyzer.profile_at(p) for p in range(len(profiles))] == profiles
    for slot, space in enumerate(analyzer.spaces):
        for position, route in enumerate(space):
            moved = analyzer._neighbours(slot, position).tolist()
            assert [analyzer.profile_at(q) for q in moved] == [
                a[:slot] + (route,) + a[slot + 1 :] for a in profiles
            ]
    found = set()
    for config in BRUTE_FORCE_CONFIGS:
        # A negative tolerance counts ties as gains; staying put is no switch.
        for tolerance in (1e-9, -1e-9):
            report = analyzer.enumerate_nash(config, tolerance)
            brute = [a for a in profiles if analyzer.verify_equilibrium(a, config, tolerance)]
            assert report.equilibria == brute
            found.add(tuple(report.equilibria))
    assert len(found) > 1  # the configs do not all agree, so the check bites


@pytest.mark.parametrize("scope", ["av-group", "system"])
def test_reward_table_rows_equal_per_profile_rewards(scope):
    scenario, humans = small_game()
    analyzer = EquilibriumAnalyzer(scenario, humans)
    for alpha, beta in ((1.0, 0.0), (1.0, 0.3), (1.0, 1.0), (0.5, 10.0), (1.0, -2.0)):
        config = RewardConfig(alpha=alpha, beta=beta, scope=scope)
        table = analyzer.reward_table(config)
        for p, action in enumerate(analyzer.profiles()):
            per_profile = analyzer.rewards(action, config)
            assert table[p].tolist() == [per_profile[av] for av in analyzer.av_ids]


def test_per_profile_rewards_make_one_kernel_call(monkeypatch):
    scenario, humans = small_game()
    analyzer = EquilibriumAnalyzer(scenario, humans)
    action = (1, 0, 1, 1)
    shaped = RewardConfig(alpha=1.0, beta=0.3, scope="system")
    calls = []
    kernel = routelab.rewards.simulate_slots

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(routelab.rewards, "simulate_slots", counted)
    values = {}
    for config in (shaped, RewardConfig(alpha=1.0, beta=0.0, scope="av-group")):
        calls.clear()
        values[config] = analyzer.rewards(action, config)
        assert len(calls) == 1
    monkeypatch.undo()
    joint = analyzer.full_action(action)
    times = simulate(scenario, joint, 0).times
    matrix = RewardEngine(scenario, shaped).marginal_matrix(joint, 0)
    assert values[shaped] == {
        av: shaped_reward(-times[av], intrinsic_reward(matrix, av, shaped), shaped)
        for av in analyzer.av_ids
    }
    assert any(intrinsic_reward(matrix, av, shaped) != 0.0 for av in analyzer.av_ids)  # it bites


def test_selfish_enumeration_builds_no_intrinsic_table(monkeypatch):
    def forbidden(*_args):
        raise AssertionError("selfish analysis scored an intrinsic reward")

    monkeypatch.setattr("routelab.equilibrium.intrinsic_reward", forbidden)
    # M is scored only in _intrinsic_table; only a counterfactual fill needs table rows.
    monkeypatch.setattr(EquilibriumAnalyzer, "_intrinsic_table", forbidden)
    monkeypatch.setattr(EquilibriumAnalyzer, "_counterfactual_rows", forbidden)
    scenario, humans = small_game()
    analyzer = EquilibriumAnalyzer(scenario, humans)
    for config in (
        RewardConfig(alpha=1.0, beta=0.0, scope="av-group"),
        RewardConfig(alpha=1.0, beta=5.0, scope="none"),
    ):
        analyzer.enumerate_nash(config)
        if config.scope == "none":
            analyzer.deviation_records(config)
    assert analyzer.simulations_run == analyzer.space_size


def test_verify_equilibrium_builds_no_table(monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("verify_equilibrium filled a reward table")

    monkeypatch.setattr(EquilibriumAnalyzer, "_simulate", forbidden)
    scenario, humans = small_game(n_av=3)
    analyzer = EquilibriumAnalyzer(scenario, humans)
    for config in (
        RewardConfig(alpha=1.0, beta=10.0, scope="av-group"),
        RewardConfig(alpha=1.0, beta=0.0, scope="none"),
    ):
        assert analyzer.verify_equilibrium((0, 0, 0), config)
        assert not analyzer.verify_equilibrium((1, 1, 1), config)
    assert analyzer.simulations_run == 0


@st.composite
def generated_games(draw, min_avs=1, binary=False):
    """(scenario, frozen humans) with ``min_avs``-4 AVs, 0-3 humans and 2-3 routes.

    AV action spaces are ordered subsets of the routes, so some hold one
    route (unless ``binary``: then each holds two) and some do not start at
    route 0. Half the calibrations are monotone (``Scenario.monotone``); the
    others have a window below the gap or a third route, where removing a
    vehicle can delay another.
    """
    monotone = draw(st.booleans())
    n_routes = 2 if monotone else draw(st.integers(2, 3))
    yielding = draw(st.integers(0, n_routes - 1))
    gap = draw(st.sampled_from([2.0, 3.0]))
    if monotone:
        window = gap + draw(st.sampled_from([0.0, 4.0]))
    else:
        window = draw(st.sampled_from([0.0, 1.0, gap, 6.0] if n_routes == 3 else [0.0, 1.0]))
    network = NetworkConfig(
        routes=tuple(
            RouteSpec(draw(st.sampled_from([40.0, 42.0, 44.0])), has_priority=k != yielding)
            for k in range(n_routes)
        ),
        merge_gap_g=gap,
        yield_window_w=window,
        post_merge_time=10.0,
    )
    n_avs, n_humans = draw(st.integers(min_avs, 4)), draw(st.integers(0, 3))
    kinds = draw(st.permutations(["av"] * n_avs + ["human"] * n_humans))
    departure, agents, humans = 0.0, [], {}
    for i, kind in enumerate(kinds):
        departure += draw(st.sampled_from([1.0, 0.5, 2.0]))
        space = tuple(range(n_routes))
        if kind == "av":
            size = 2 if binary else draw(st.sampled_from([2, 1, n_routes]))
            space = draw(st.permutations(space))[:size]
        else:
            humans[i] = draw(st.sampled_from(space))
        agents.append(AgentSpec(id=i, kind=kind, departure_time=departure, action_space=space))
    scenario = Scenario(agents=tuple(agents), network=network)
    assert scenario.monotone == monotone
    return scenario, humans


TABLE_CONFIGS = tuple(
    RewardConfig(alpha=1.0, beta=0.7, scope=scope, tanh_scale=scale, raw_sum=raw_sum)
    for scope in ("av-group", "system")
    for scale in (1.0, 0.37)
    for raw_sum in (False, True)
)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(generated_games())
def test_generated_reward_tables_equal_per_profile_rewards(game):
    scenario, humans = game
    selfish = EquilibriumAnalyzer(scenario, humans)
    selfish.enumerate_nash(RewardConfig(alpha=1.0, beta=0.0, scope="none"))
    n = selfish.space_size
    assert selfish.simulations_run == n
    analyzer = EquilibriumAnalyzer(scenario, humans)
    tables = [analyzer.reward_table(config) for config in TABLE_CONFIGS]
    # One shaped fill serves every scope and scoring setting.
    budget = n + sum(n // len(space) for space in analyzer.spaces)
    assert analyzer.simulations_run == budget
    # After the full runs, a shaped fill adds only the counterfactual rosters.
    selfish.reward_table(TABLE_CONFIGS[0])
    assert selfish.simulations_run == budget
    for config, table in zip(TABLE_CONFIGS, tables):
        for p, action in enumerate(analyzer.profiles()):
            per_profile = analyzer.rewards(action, config)
            assert table[p].tolist() == [per_profile[av] for av in analyzer.av_ids]


def test_reward_tables_equal_per_profile_rewards_beyond_64_agents():
    # The batched fill has no cap on the roster size: 70 drivers, 1 s apart
    # with a 2 s gap, so the queue spans the day and a removal moves many.
    n = 70
    avs = {5, 30, 52, 69}
    scenario = make_scenario(
        [float(i) for i in range(n)], av_flags=[i in avs for i in range(n)], pre_merge=(40.0, 42.0)
    )
    humans = {i: i % 3 % 2 for i in range(n) if i not in avs}
    analyzer = EquilibriumAnalyzer(scenario, humans)
    configs = (RewardConfig(alpha=1.0, beta=0.0, scope="none"), *TABLE_CONFIGS)
    tables = [analyzer.reward_table(config) for config in configs]
    assert analyzer.simulations_run == 16 + 4 * 8
    for config, table in zip(configs, tables):
        for p, action in enumerate(analyzer.profiles()):
            per_profile = analyzer.rewards(action, config)
            assert table[p].tolist() == [per_profile[av] for av in analyzer.av_ids]
    assert len({row.tobytes() for row in tables[1]}) > 1  # the scores differ, so the check bites


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(generated_games())
def test_generated_deviation_records_hold_no_negative_zero(game):
    # deviation_records and the deviations.csv writer memoise on the deltas,
    # where 0.0 and -0.0 would share a key but print differently.
    scenario, humans = game
    analyzer = EquilibriumAnalyzer(scenario, humans)
    configs = (
        RewardConfig(alpha=1.0, beta=0.0, scope="none"),
        RewardConfig(alpha=-2.0, beta=1.0, scope="system"),
        *TABLE_CONFIGS,
    )
    for config in configs:
        table = analyzer.deviation_records(config)
        if table is None:
            assert any(len(space) != 2 for space in analyzer.spaces)
            continue
        for r in deviation_rows(analyzer, table):
            assert "-0.0" not in (repr(r.delta_seconds), repr(r.delta_score))
            assert r.beta_threshold == beta_max(config.alpha * -r.delta_seconds, r.delta_score)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(generated_games(min_avs=2, binary=True))
def test_generated_deviation_tables_index_each_cells_deltas(game):
    scenario, humans = game
    analyzer = EquilibriumAnalyzer(scenario, humans)
    rows = {action: p for p, action in enumerate(analyzer.profiles())}
    times = analyzer._full_runs()[:, analyzer._av_columns].tolist()
    for config in (RewardConfig(alpha=-2.0, beta=1.0, scope="system"), *TABLE_CONFIGS):
        table = analyzer.deviation_records(config)
        scores = analyzer._intrinsic_table(config).tolist()
        assert table.index.shape == (analyzer.space_size, len(analyzer.av_ids))
        assert len(set(table.pairs)) == len(table.pairs)  # no two pairs compare equal
        for (seconds, score), threshold in zip(table.pairs, table.thresholds):
            assert threshold == beta_max(config.alpha * -seconds, score)
        for action, p in rows.items():
            for k, space in enumerate(analyzer.spaces):
                low, high = (
                    rows[action[:k] + (route,) + action[k + 1 :]] for route in sorted(space)
                )
                expected = (times[high][k] - times[low][k], scores[high][k] - scores[low][k])
                pair = table.pairs[table.index[p, k]]
                assert list(map(float.hex, pair)) == list(map(float.hex, expected))


def filled_tables(scenario, humans, shaped_first):
    """Everything a fill leaves behind, as bytes, after one order of table requests."""
    selfish = RewardConfig(alpha=1.0, beta=0.0, scope="none")
    analyzer = EquilibriumAnalyzer(scenario, humans)
    for config in (*TABLE_CONFIGS, selfish) if shaped_first else (selfish, *TABLE_CONFIGS):
        analyzer.reward_table(config)
    return (
        analyzer._full.tobytes(),
        [without.tobytes() for without in analyzer._withouts],
        [analyzer.reward_table(config).tobytes() for config in (selfish, *TABLE_CONFIGS)],
        analyzer.simulations_run,
    )


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(generated_games(), st.booleans())
def test_generated_fills_do_not_depend_on_the_pass_width(game, shaped_first):
    # Widths of 1, 3 and 7 rosters make passes cross from the full runs into
    # the counterfactual tables, and from one table into the next.
    expected = filled_tables(*game, shaped_first)
    for lanes in (1, 3, 7):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(routelab.equilibrium, "ROSTER_LANES", lanes)
            assert filled_tables(*game, shaped_first) == expected
