from __future__ import annotations

import csv
import io
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routelab import (
    AgentSpec,
    ConfigurationError,
    NetworkConfig,
    RewardConfig,
    RewardEngine,
    RouteSpec,
    Scenario,
    run_episode,
)
from routelab.episode import EPISODE_CSV_HEADER, EpisodeLog, episode_csv_blocks

from conftest import build_observation, id_view, make_scenario


def play(scenario, choosers, config, episode, seed):
    return run_episode(RewardEngine(scenario, config), choosers, episode, seed)


def test_all_route0_extrinsic_is_minus_50(default_scenario):
    routes = default_scenario.routes_of({a.id: 0 for a in default_scenario.agents})
    log = id_view(play(default_scenario, routes, RewardConfig(), 0, seed=0), default_scenario)
    assert all(log.extrinsic[a.id] == -50.0 for a in default_scenario.agents)
    assert all(v == 0 for v in log.action.values())


def test_beta_zero_shaped_equals_extrinsic(default_scenario):
    config = RewardConfig(alpha=1.0, beta=0.0, scope="av-group")
    routes = {a.id: (1 if a.id % 3 == 0 else 0) for a in default_scenario.agents}
    log = id_view(
        play(default_scenario, default_scenario.routes_of(routes), config, 0, seed=0),
        default_scenario,
    )
    assert log.shaped == log.extrinsic


def test_last_agent_sees_all_other_choices(default_scenario):
    routes = {a.id: (1 if a.id in (1, 5, 9) else 0) for a in default_scenario.agents}
    seen = {}

    def spy_policy(agent_id):
        def chooser(counts):
            seen[agent_id] = counts
            return routes[agent_id]

        return chooser

    choosers = [spy_policy(a.id) for a in default_scenario.agents]
    play(default_scenario, choosers, RewardConfig(), 0, seed=0)
    last = default_scenario.agents[-1].id
    assert sum(seen[last]) == 21
    assert seen[last] == (18, 3)


def test_fixed_routes_count_for_later_choosers(default_scenario):
    seen = []
    choosers = [1] * 21 + [lambda counts: seen.append(counts) or 0]
    log = play(default_scenario, choosers, RewardConfig(), 0, seed=0)
    assert seen == [(0, 21)]
    assert log.routes == (1,) * 21 + (0,)


def test_observation_histograms(default_scenario):
    assert build_observation(default_scenario, {}) == (0, 0)
    assert build_observation(default_scenario, {0: 0, 1: 0, 2: 1}) == (2, 1)
    partial = {a.id: a.id % 2 for a in default_scenario.agents[:10]}
    assert sum(build_observation(default_scenario, partial)) == 10


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(
    st.integers(2, 3),
    st.lists(st.booleans(), min_size=1, max_size=25),
    st.integers(0, 2**31),
    st.integers(0, 1_000),
)
def test_observations_equal_build_observation(n_routes, av_flags, policy_seed, episode):
    network = NetworkConfig(
        routes=tuple(
            RouteSpec(pre_merge_time=10.0 * (k + 1), has_priority=k > 0)
            for k in range(n_routes)
        ),
        merge_gap_g=2.0,
        yield_window_w=6.0,
        post_merge_time=10.0,
    )
    scenario = Scenario(
        agents=tuple(
            AgentSpec(
                id=i,
                kind="av" if flag else "human",
                departure_time=float(i),
                action_space=tuple(range(n_routes)),
            )
            for i, flag in enumerate(av_flags)
        ),
        network=network,
    )
    rng = random.Random(policy_seed)
    seen = {}

    def random_policy(agent_id):
        def chooser(counts):
            seen[agent_id] = counts
            return rng.randrange(n_routes)

        return chooser

    choosers = [random_policy(a.id) for a in scenario.agents]
    log = id_view(play(scenario, choosers, RewardConfig(), episode, seed=0), scenario)
    assert log.episode == episode
    for rank, agent in enumerate(scenario.agents):
        earlier = {a.id: log.action[a.id] for a in scenario.agents[:rank]}
        assert seen[agent.id] == build_observation(scenario, earlier)


def test_sequentiality_of_observations(default_scenario):
    seen = {}

    def spy_policy(agent_id):
        def chooser(counts):
            seen[agent_id] = sum(counts)
            return 0

        return chooser

    choosers = [spy_policy(a.id) for a in default_scenario.agents]
    play(default_scenario, choosers, RewardConfig(), 0, seed=0)
    for rank, agent in enumerate(default_scenario.agents):
        assert seen[agent.id] == rank


def test_episode_purity(default_scenario):
    config = RewardConfig(alpha=1.0, beta=200.0, scope="system")
    routes = {a.id: (1 if a.id % 4 == 1 else 0) for a in default_scenario.agents}
    logs = [
        id_view(
            play(default_scenario, default_scenario.routes_of(routes), config, 3, seed=17),
            default_scenario,
        )
        for _ in range(2)
    ]
    assert logs[0].times.times == logs[1].times.times
    assert logs[0].shaped == logs[1].shaped


def test_reward_identity(default_scenario):
    rng = random.Random(0)
    config = RewardConfig(alpha=0.7, beta=35.0, scope="av-group", tanh_scale=2.0)
    routes = {a.id: rng.randint(0, 1) for a in default_scenario.agents}
    log = id_view(
        play(default_scenario, default_scenario.routes_of(routes), config, 0, seed=0),
        default_scenario,
    )
    for agent in default_scenario.agents:
        expected = config.alpha * log.extrinsic[agent.id] + config.beta * log.intrinsic[agent.id]
        assert abs(log.shaped[agent.id] - expected) <= 1e-9 * max(1.0, abs(expected))


def test_humans_log_zero_intrinsic(default_scenario):
    config = RewardConfig(alpha=1.0, beta=200.0, scope="system")
    routes = {a.id: (1 if a.id == 1 else 0) for a in default_scenario.agents}
    log = id_view(
        play(default_scenario, default_scenario.routes_of(routes), config, 0, seed=0),
        default_scenario,
    )
    for human in default_scenario.human_ids:
        assert log.intrinsic[human] == 0.0
        assert log.shaped[human] == log.extrinsic[human]
    assert log.intrinsic[1] != 0.0


def test_policy_outside_action_space_names_agent():
    scenario = make_scenario([0.0, 4.0])
    choosers = [lambda counts: 0, lambda counts: 5]
    with pytest.raises(ConfigurationError, match="agent 1"):
        play(scenario, choosers, RewardConfig(), 0, seed=0)


def test_csv_rows_schema(default_scenario):
    routes = default_scenario.routes_of({a.id: 0 for a in default_scenario.agents})
    log = play(default_scenario, routes, RewardConfig(), 7, seed=5)
    blocks = episode_csv_blocks([log], default_scenario, "\r\n")
    rows = list(csv.DictReader(io.StringIO("".join(blocks)), fieldnames=EPISODE_CSV_HEADER))
    assert len(rows) == 22
    # DictReader files surplus cells under None and fills missing ones with None.
    assert all(tuple(row) == EPISODE_CSV_HEADER for row in rows)
    assert all(None not in row.values() for row in rows)
    assert rows[0]["episode"] == "7"
    assert rows[0]["kind"] == "human"
    assert rows[1]["kind"] == "av"
    assert rows[0]["seed"] == "5"


def test_a_pickled_log_list_keeps_recurring_days_shared(default_scenario):
    # A deterministic engine hands a recurring day the same times and
    # intrinsic tuples; a round trip through pickle (as from a --jobs worker)
    # must keep them shared, which the episode writer's recurring-day formatting relies on.
    engine = RewardEngine(default_scenario, RewardConfig(beta=200.0))
    agents = default_scenario.agents
    days = [default_scenario.routes_of({a.id: a.id % n for a in agents}) for n in (1, 2)]
    logs = [run_episode(engine, days[k], e, 0) for e, k in enumerate([0, 1, 0, 0, 1])]
    copies = pickle.loads(pickle.dumps(logs))
    assert copies == logs and {type(log) for log in copies} == {EpisodeLog}
    for field in ("times", "intrinsic"):
        day_0, day_1 = (getattr(copies[e], field) for e in (0, 1))
        assert day_0 is not day_1
        assert [getattr(log, field) is day_0 for log in copies] == [True, False, True, True, False]
        assert getattr(copies[4], field) is day_1
