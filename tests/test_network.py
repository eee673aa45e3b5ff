from __future__ import annotations

import itertools
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from routelab import (
    AgentSpec,
    ConfigurationError,
    NetworkConfig,
    RouteSpec,
    Scenario,
    simulate,
    simulate_without,
)
from routelab.scenarios import two_route_yield_scenario
from conftest import make_scenario
from oracle_sim import oracle_subset_times, oracle_travel_times


def all_route(scenario, route):
    return {a.id: route for a in scenario.agents}


def test_single_agent_free_flow():
    scenario = make_scenario([0.0])
    times = simulate(scenario, {0: 0}, seed=0)
    assert times[0] == 50.0


def test_two_priority_agents_spaced_beyond_gap():
    scenario = make_scenario([0.0, 4.0], pre_merge=(40.0, 50.0))
    times = simulate(scenario, {0: 1, 1: 1}, seed=0)
    assert times[0] == 60.0
    assert times[1] == 60.0


def test_default_all_route0_is_free_flow(default_scenario):
    times = simulate(default_scenario, all_route(default_scenario, 0), seed=0)
    assert all(times[a.id] == 50.0 for a in default_scenario.agents)


def test_single_deviator_confirmed_by_oracle(default_scenario):
    action = all_route(default_scenario, 0)
    action[9] = 1
    times = simulate(default_scenario, action, seed=0)
    base = simulate(default_scenario, all_route(default_scenario, 0), seed=0)
    assert times[9] > base[9]
    delayed = [a.id for a in default_scenario.agents if a.id != 9 and times[a.id] > 50.0]
    assert delayed
    expected = oracle_travel_times(default_scenario, action)
    for agent in default_scenario.agents:
        assert times[agent.id] == expected[agent.id]


def test_remove_only_av_leaves_humans_at_base_times():
    scenario = make_scenario([0.0, 4.0, 8.0], av_flags=[False, True, False])
    action = {0: 0, 1: 1, 2: 0}
    reduced = simulate_without(scenario, action, removed_agent=1, seed=0)
    assert set(reduced.times) == {0, 2}
    humans_only = make_scenario([0.0, 8.0], av_flags=[False, False])
    base = simulate(humans_only, {0: 0, 1: 0}, seed=0)
    assert reduced[0] == base[0]
    assert reduced[2] == base[1]


def test_remove_non_interacting_agent_changes_nothing(default_scenario):
    action = all_route(default_scenario, 0)
    full = simulate(default_scenario, action, seed=0)
    reduced = simulate_without(default_scenario, action, removed_agent=19, seed=0)
    for agent_id, value in reduced.times.items():
        assert value == full[agent_id]


def test_removing_priority_vehicle_speeds_up_yielder(default_scenario):
    # AV 1 takes the priority route; AV 3 on route 0 has to let it through.
    action = all_route(default_scenario, 0)
    action[1] = 1
    full = simulate(default_scenario, action, seed=0)
    without = simulate_without(default_scenario, action, removed_agent=1, seed=0)
    assert without[3] < full[3]
    expected = oracle_subset_times(
        default_scenario, action, [a.id for a in default_scenario.agents if a.id != 1]
    )
    for agent_id, value in without.times.items():
        assert value == expected[agent_id]


def test_oracle_agreement_on_random_scenarios():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 7)
        departures = sorted(rng.sample(range(0, 60), n))
        scenario = make_scenario(
            [float(d) for d in departures],
            pre_merge=(rng.choice([20.0, 40.0]), rng.choice([25.0, 50.0])),
            gap=rng.choice([1.0, 2.0, 3.0]),
            window=rng.choice([0.0, 4.0, 6.0, 10.0]),
        )
        action = {a.id: rng.randint(0, 1) for a in scenario.agents}
        got = simulate(scenario, action, seed=0)
        expected = oracle_travel_times(scenario, action)
        for agent in scenario.agents:
            assert got[agent.id] == expected[agent.id], (departures, action)


def test_deterministic_mode_is_pure(default_scenario):
    action = all_route(default_scenario, 0)
    action[5] = 1
    first = simulate(default_scenario, action, seed=3)
    second = simulate(default_scenario, action, seed=11)
    assert first.times == second.times  # sigma = 0: seed has no effect


def test_seed_stability_with_noise():
    scenario = make_scenario([0.0, 4.0, 8.0], noise_sigma=2.0)
    action = {0: 0, 1: 1, 2: 0}
    a = simulate(scenario, action, seed=5)
    b = simulate(scenario, action, seed=5)
    c = simulate(scenario, action, seed=6)
    assert a.times == b.times
    assert a.times != c.times


def test_noise_draws_keyed_by_agent_id():
    scenario = make_scenario([0.0, 4.0, 8.0], noise_sigma=2.0)
    action = {0: 0, 1: 1, 2: 0}
    full = simulate(scenario, action, seed=9)
    reduced = simulate_without(scenario, action, removed_agent=1, seed=9)
    # Agent 0 departs first and yields to nobody once agent 1 is gone; its
    # jitter must be identical in both runs.
    assert reduced[0] == full[0]


def test_noisy_simulate_from_many_threads_matches_sequential_runs(default_scenario):
    # simulate is public and pure. Each agent's draw comes from a generator of
    # its own, so no thread can take a draw seeded for another's day.
    scenario = default_scenario.with_noise(2.0)
    rng = random.Random(3)
    jobs = [
        ({a.id: rng.randint(0, 1) for a in scenario.agents}, rng.randint(-(10**6), 10**6))
        for _ in range(64)
    ]
    expected = [simulate(scenario, action, seed) for action, seed in jobs]
    start = threading.Barrier(8)

    def run(share):
        start.wait()
        return [simulate(scenario, action, seed) for action, seed in jobs[share::8]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter will
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            shares = list(pool.map(run, range(8)))
    finally:
        sys.setswitchinterval(interval)
    for share, got in enumerate(shares):
        assert got == expected[share::8]


def test_travel_time_lower_bound_deterministic():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(1, 6)
        scenario = make_scenario([float(4 * i) for i in range(n)])
        action = {a.id: rng.randint(0, 1) for a in scenario.agents}
        times = simulate(scenario, action, seed=0)
        for agent in scenario.agents:
            route = scenario.network.routes[action[agent.id]]
            floor = route.pre_merge_time + scenario.network.post_merge_time
            assert times[agent.id] >= floor


def test_priority_monotonicity_exhaustive_small():
    # Adding one more priority-route vehicle never helps a yielding vehicle:
    # exhaustive over route assignments and a grid of insertion times.
    departures = [0.0, 3.0, 6.0, 9.0, 12.0]
    for assignment in itertools.product((0, 1), repeat=5):
        base_scenario = make_scenario(departures)
        base_action = {i: assignment[i] for i in range(5)}
        base = simulate(base_scenario, base_action, seed=0)
        for extra_departure in (1.5, 7.5, 13.5, 20.0):
            grown_scenario = make_scenario(sorted(departures + [extra_departure]))
            order = sorted(departures + [extra_departure])
            slot = order.index(extra_departure)
            # ids follow departure order in make_scenario; remap actions
            grown_action = {}
            for new_id, dep in enumerate(order):
                if dep == extra_departure:
                    grown_action[new_id] = 1  # the newcomer takes priority
                else:
                    grown_action[new_id] = base_action[departures.index(dep)]
            grown = simulate(grown_scenario, grown_action, seed=0)
            for new_id, dep in enumerate(order):
                if dep == extra_departure:
                    continue
                old_id = departures.index(dep)
                if assignment[old_id] == 0:
                    assert grown[new_id] >= base[old_id]


def test_removal_monotonicity_random_small():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(2, 6)
        departures = sorted(rng.sample(range(0, 40), n))
        scenario = make_scenario([float(d) for d in departures])
        action = {a.id: rng.randint(0, 1) for a in scenario.agents}
        full = simulate(scenario, action, seed=0)
        for removed in scenario.av_ids:
            reduced = simulate_without(scenario, action, removed, seed=0)
            for agent_id, value in reduced.times.items():
                assert value <= full[agent_id]


def test_tie_break_by_departure_then_id():
    # Vehicles 1 and 2 both become feasible at t = 15 once vehicle 0 clears;
    # the earlier departure passes first.
    scenario = make_scenario([0.0, 1.0, 2.0], pre_merge=(10.0, 50.0), gap=5.0)
    times = simulate(scenario, {0: 0, 1: 0, 2: 0}, seed=0)
    assert times[0] == 10.0 + 10.0 - 0.0
    assert times[1] == 15.0 + 10.0 - 1.0
    assert times[2] == 20.0 + 10.0 - 2.0


def test_action_validation_errors(default_scenario):
    with pytest.raises(ConfigurationError):
        simulate(default_scenario, {0: 0}, seed=0)
    bad = all_route(default_scenario, 0)
    bad[3] = 7
    with pytest.raises(ConfigurationError):
        simulate(default_scenario, bad, seed=0)


def test_removing_human_is_rejected(default_scenario):
    action = all_route(default_scenario, 0)
    with pytest.raises(ConfigurationError):
        simulate_without(default_scenario, action, removed_agent=0, seed=0)


def test_scenario_validation():
    net = NetworkConfig(
        routes=(RouteSpec(40.0, False), RouteSpec(50.0, True)),
        merge_gap_g=2.0,
        yield_window_w=6.0,
        post_merge_time=10.0,
    )
    agent = AgentSpec(id=0, kind="human", departure_time=0.0, action_space=(0, 1))
    with pytest.raises(ConfigurationError):
        Scenario(agents=(agent, agent), network=net)  # duplicate id
    with pytest.raises(ConfigurationError):
        Scenario(
            agents=(
                agent,
                AgentSpec(id=1, kind="human", departure_time=0.0, action_space=(0, 1)),
            ),
            network=net,
        )  # departure tie
    with pytest.raises(ConfigurationError):
        NetworkConfig(
            routes=(RouteSpec(40.0, False), RouteSpec(50.0, False)),
            merge_gap_g=2.0,
            yield_window_w=6.0,
            post_merge_time=10.0,
        ).validate()  # two yielding routes
    with pytest.raises(ConfigurationError):
        Scenario(agents=(agent,), network=net, noise_sigma=-1.0)


def test_repeated_route_in_action_space_is_rejected():
    # A repeated route would make the analyzer list one joint action twice.
    net = NetworkConfig(
        routes=(RouteSpec(40.0, False), RouteSpec(50.0, True)),
        merge_gap_g=2.0,
        yield_window_w=6.0,
        post_merge_time=10.0,
    )
    human = AgentSpec(id=0, kind="human", departure_time=0.0, action_space=(0, 1))
    for space in ((0, 0), (1, 0, 1)):
        av = AgentSpec(id=1, kind="av", departure_time=2.0, action_space=space)
        with pytest.raises(ConfigurationError, match="agent 1: route [01] repeated"):
            Scenario(agents=(human, av), network=net)
    av = AgentSpec(id=1, kind="av", departure_time=2.0, action_space=(1, 0))
    assert Scenario(agents=(human, av), network=net).agent(1).action_space == (1, 0)


def test_noise_that_could_precede_departure_is_rejected():
    # Route 0 reaches the merge after 40 s: jitter of 40 s or more could put
    # the merge arrival at or before the departure.
    with pytest.raises(ConfigurationError, match="noise_sigma"):
        make_scenario([0.0, 4.0], noise_sigma=40.0)
    with pytest.raises(ConfigurationError):
        two_route_yield_scenario().with_noise(100.0)
    assert make_scenario([0.0, 4.0], noise_sigma=39.9).noise_sigma == 39.9


def test_default_scenario_roster(default_scenario):
    assert len(default_scenario.agents) == 22
    assert default_scenario.av_ids == tuple(range(1, 20, 2))
    assert len(default_scenario.human_ids) == 12
