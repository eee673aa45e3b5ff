from __future__ import annotations

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routelab import (
    AgentSpec,
    ConfigurationError,
    FixedLearner,
    PolicyGradientLearner,
    NetworkConfig,
    QLearner,
    RewardConfig,
    RouteSpec,
    Scenario,
    UcbLearner,
    freeze_all,
    make_learner,
    run_warmup,
    train,
)
from routelab.learners import ALGORITHMS, _argmax_lowest

from conftest import id_view, make_scenario


def viewed(result, scenario):
    """``result`` with its logs keyed by agent id (``conftest.id_view``)."""
    return dataclasses.replace(
        result,
        train_logs=[id_view(log, scenario) for log in result.train_logs],
        eval_logs=[id_view(log, scenario) for log in result.eval_logs],
    )


# -- UCB ----------------------------------------------------------------------


def test_ucb_fresh_state_forces_first_action():
    learner = UcbLearner(2)
    assert learner.select() == 0
    learner.update(None, 0, -50.0)
    assert learner.select() == 1


def test_ucb_pure_exploitation_with_zero_bonus():
    learner = UcbLearner(2, c=0.0)
    learner.counts = [100, 100]
    learner.means = [-50.0, -60.0]
    learner.total = 200
    assert learner.select() == 0


def test_ucb_exploration_bonus_dominates_neglected_arm():
    # Reward stream: 1000 pulls at -50 on arm 0, one -60 on arm 1. The
    # scale-adjusted bonus on the barely-sampled arm outweighs the mean gap.
    learner = UcbLearner(2, c=2.0)
    for _ in range(1000):
        learner.update(None, 0, -50.0)
    learner.update(None, 1, -60.0)
    assert learner.counts == [1000, 1]
    assert learner.means == [-50.0, -60.0]
    assert learner.select() == 1


def test_ucb_update_incremental_mean():
    learner = UcbLearner(2)
    learner.update(None, 0, -50.0)
    assert learner.means[0] == -50.0
    learner.update(None, 0, -60.0)
    assert learner.means[0] == -55.0
    for _ in range(1000):
        learner.update(None, 1, -42.0)
    assert abs(learner.means[1] - (-42.0)) <= 1e-12


def test_ucb_greedy_ties_to_lowest():
    learner = UcbLearner(3)
    learner.means = [-50.0, -50.0, -60.0]
    assert learner.greedy() == 0


def indices_list_select(learner: UcbLearner) -> int:
    """UCB's choice by its formula: unpulled actions first, else the lowest
    argmax of a list of indices with the bonus scaled by the reward spread."""
    for a in range(learner.n_actions):
        if learner.counts[a] == 0:
            return a
    scale = 1.0
    if learner.total >= 2:
        std = math.sqrt(learner._reward_m2 / learner.total)
        scale = std if std > 0.0 else 1.0
    c_eff = learner.c / scale
    log_total = math.log(learner.total)
    indices = [
        learner.means[a] + c_eff * math.sqrt(log_total / learner.counts[a])
        for a in range(learner.n_actions)
    ]
    return _argmax_lowest(indices)


# Few distinct rewards, so equal means (ties) and zero spread are common.
REWARDS = st.one_of(st.sampled_from([-50.0, -50.0, -60.0, 0.0]), st.floats(-300.0, 0.0))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(n_actions=st.integers(2, 4), c=st.sampled_from([0.0, 1e-3, 150.0]), data=st.data())
def test_ucb_select_matches_the_indices_list_formula(n_actions, c, data):
    pulls = st.tuples(st.integers(0, n_actions - 1), REWARDS)
    learner = UcbLearner(n_actions, c=c)
    for action, reward in data.draw(st.lists(pulls, max_size=30)):
        assert learner.select() == indices_list_select(learner)
        learner.update(None, action, reward)
    assert learner.select() == indices_list_select(learner)


# -- tabular Q ----------------------------------------------------------------


def test_q_full_learning_rate_tracks_last_reward():
    learner = QLearner(2, learning_rate=1.0)
    learner.update((0, 0), 1, -57.0)
    assert learner.table[(0, 0)][1] == -57.0
    learner.update((0, 0), 1, -61.0)
    assert learner.table[(0, 0)][1] == -61.0


def test_q_unseen_observation_defaults_to_action_zero():
    learner = QLearner(2)
    learner.epsilon = 0.0
    assert learner.select((5, 5), random.Random(0)) == 0
    assert learner.greedy((9, 9)) == 0


def test_q_geometric_convergence():
    learner = QLearner(2, learning_rate=0.25)
    target = -50.0
    for step in range(1, 9):
        learner.update((1, 1), 0, target)
        gap = target - learner.table[(1, 1)][0]
        assert gap == pytest.approx(target * 0.75**step)


def test_q_epsilon_schedule_linear():
    learner = QLearner(2, epsilon_start=0.2, epsilon_end=0.0)
    learner.on_episode(0, 101)
    assert learner.epsilon == pytest.approx(0.2)
    learner.on_episode(50, 101)
    assert learner.epsilon == pytest.approx(0.1)
    learner.on_episode(100, 101)
    assert learner.epsilon == pytest.approx(0.0)


# -- policy gradient ----------------------------------------------------------


def test_pg_uniform_preferences_give_uniform_probabilities():
    learner = PolicyGradientLearner(4)
    probs = learner.probabilities((0,))
    assert probs == pytest.approx([0.25, 0.25, 0.25, 0.25])


def test_pg_positive_advantage_concentrates_policy():
    learner = PolicyGradientLearner(2, learning_rate=0.1)
    learner.baseline = -10.0
    learner.updates = 1
    rng = random.Random(0)
    for _ in range(1000):
        learner.update((0,), 0, 0.0)  # advantage stays positive on action 0
        learner.baseline = -10.0  # hold the baseline down
    assert learner.probabilities((0,))[0] > 0.99
    assert learner.greedy((0,)) == 0


def test_pg_zero_advantage_changes_nothing():
    learner = PolicyGradientLearner(2)
    learner.update((0,), 0, -50.0)  # first update defines the baseline
    before = learner.probabilities((0,))
    learner.update((0,), 0, learner.baseline)
    assert learner.probabilities((0,)) == pytest.approx(before)


def test_pg_rejects_bad_temperature():
    with pytest.raises(ConfigurationError):
        PolicyGradientLearner(2, temperature=0.0)


def test_make_learner_dispatch():
    assert isinstance(make_learner({"algorithm": "ucb"}, 2), UcbLearner)
    assert isinstance(make_learner({"algorithm": "q"}, 2), QLearner)
    assert isinstance(make_learner({"algorithm": "pg"}, 2), PolicyGradientLearner)
    assert isinstance(make_learner({"algorithm": "fixed", "route": 1}, 2), FixedLearner)
    with pytest.raises(ConfigurationError):
        make_learner({"algorithm": "dqn"}, 2)


@pytest.mark.parametrize(
    "algorithm, direct",
    [
        ("ucb", UcbLearner(2)),
        ("q", QLearner(2)),
        ("pg", PolicyGradientLearner(2)),
        ("fixed", FixedLearner(2)),
    ],
)
def test_make_learner_defaults_are_the_constructors(algorithm, direct):
    assert vars(make_learner({"algorithm": algorithm}, 2)) == vars(direct)


@pytest.mark.parametrize(
    "spec, typo",
    [
        ({"algorithm": "ucb", "c": 3.0}, "C"),
        ({"algorithm": "q", "learning_rate": 0.2, "epsilon_start": 0.3, "epsilon_end": 0.1}, "epsilon"),
        ({"algorithm": "pg", "learning_rate": 0.05, "temperature": 2.0}, "learningrate"),
        ({"algorithm": "fixed", "route": 1}, "c"),
    ],
)
def test_make_learner_rejects_unknown_keys(spec, typo):
    make_learner(spec, 2)  # every key the algorithm reads is accepted
    with pytest.raises(ConfigurationError, match=f"unknown {spec['algorithm']} learner key"):
        make_learner({**spec, typo: 1.0}, 2)


# -- training loop ------------------------------------------------------------


def small_world():
    scenario = make_scenario(
        [0.0, 4.0, 8.0, 12.0, 16.0, 20.0],
        av_flags=[False, True, False, True, False, True],
    )
    frozen = {i: 0 for i in scenario.human_ids}
    return scenario, frozen


def test_zero_training_fixed_learners_reproduce_constant_action():
    scenario, frozen = small_world()
    specs = {av: {"algorithm": "fixed", "route": 1} for av in scenario.av_ids}
    from routelab.rewards import RewardConfig

    result = viewed(train(scenario, specs, RewardConfig(), 0, 5, 0, frozen), scenario)
    for log in result.eval_logs:
        assert all(log.action[av] == 1 for av in scenario.av_ids)


def test_eval_phase_is_exploration_free_and_constant():
    scenario, frozen = small_world()
    specs = {av: {"algorithm": "q"} for av in scenario.av_ids}
    from routelab.rewards import RewardConfig

    result = viewed(train(scenario, specs, RewardConfig(), 30, 10, 0, frozen), scenario)
    actions = [tuple(log.action[av] for av in scenario.av_ids) for log in result.eval_logs]
    assert len(set(actions)) == 1


def test_argmax_invariance_under_reward_scaling():
    # Feeding the same reward stream scaled by a positive constant leaves
    # every greedy decision unchanged.
    rng = random.Random(1)
    rewards = [rng.uniform(-80, -40) for _ in range(60)]
    plain = UcbLearner(2)
    scaled = UcbLearner(2)
    for k, value in enumerate(rewards):
        action = k % 2
        plain.update(None, action, value)
        scaled.update(None, action, value * 7.5)
        assert plain.greedy() == scaled.greedy()

    q_plain = QLearner(2)
    q_scaled = QLearner(2)
    q_plain.epsilon = q_scaled.epsilon = 0.0
    for k, value in enumerate(rewards):
        key = (k % 3, 0)
        a1 = q_plain.select(key, random.Random(k))
        a2 = q_scaled.select(key, random.Random(k))
        assert a1 == a2
        q_plain.update(key, a1, value)
        q_scaled.update(key, a2, value * 3.0)


def test_training_reproducible_per_seed():
    scenario, frozen = small_world()
    specs = {av: {"algorithm": "q"} for av in scenario.av_ids}
    from routelab.rewards import RewardConfig

    config = RewardConfig(beta=10.0, scope="av-group")
    a = viewed(train(scenario, specs, config, 40, 5, 3, frozen), scenario)
    b = viewed(train(scenario, specs, config, 40, 5, 3, frozen), scenario)
    assert [l.action for l in a.train_logs] == [l.action for l in b.train_logs]
    assert [l.shaped for l in a.eval_logs] == [l.shaped for l in b.eval_logs]
    c = viewed(train(scenario, specs, config, 40, 5, 4, frozen), scenario)
    assert [l.action for l in a.train_logs] != [l.action for l in c.train_logs]


def test_policy_gradient_trains_and_evaluates_reproducibly():
    scenario, frozen = small_world()
    specs = {av: {"algorithm": "pg", "learning_rate": 0.05} for av in scenario.av_ids}
    from routelab.rewards import RewardConfig

    config = RewardConfig(alpha=1.0, beta=200.0, scope="av-group")
    a = viewed(train(scenario, specs, config, 60, 5, 2, frozen), scenario)
    b = viewed(train(scenario, specs, config, 60, 5, 2, frozen), scenario)
    assert [l.action for l in a.eval_logs] == [l.action for l in b.eval_logs]
    eval_actions = {tuple(l.action[av] for av in scenario.av_ids) for l in a.eval_logs}
    assert len(eval_actions) == 1  # greedy softmax mode is constant


def test_train_requires_specs_and_frozen_routes():
    scenario, frozen = small_world()
    from routelab.rewards import RewardConfig

    with pytest.raises(ConfigurationError):
        train(scenario, {}, RewardConfig(), 1, 1, 0, frozen)
    specs = {av: {"algorithm": "ucb"} for av in scenario.av_ids}
    with pytest.raises(ConfigurationError):
        train(scenario, specs, RewardConfig(), 1, 1, 0, {})


def test_train_rejects_a_frozen_route_outside_the_action_space():
    scenario, frozen = small_world()
    specs = {av: {"algorithm": "ucb"} for av in scenario.av_ids}
    with pytest.raises(ConfigurationError, match="human 2"):
        train(scenario, specs, RewardConfig(), 1, 1, 0, {**frozen, 2: 5})


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_learner_trains_avs_whose_action_space_is_not_a_range(algorithm):
    # Three routes; humans may take any, AVs only routes 1 and 2. A learner
    # acts on indices into its AV's space: index a is route (1, 2)[a].
    network = NetworkConfig(
        routes=(RouteSpec(40.0, False), RouteSpec(50.0, True), RouteSpec(46.0, True)),
        merge_gap_g=2.0,
        yield_window_w=6.0,
        post_merge_time=10.0,
    )
    scenario = Scenario(
        agents=tuple(
            AgentSpec(i, "av" if i % 2 else "human", 4.0 * i, (1, 2) if i % 2 else (0, 1, 2))
            for i in range(6)
        ),
        network=network,
    )
    frozen = {i: 0 for i in scenario.human_ids}
    spec = {"algorithm": algorithm, **({"route": 1} if algorithm == "fixed" else {})}
    specs = {av: spec for av in scenario.av_ids}
    config = RewardConfig(beta=200.0)
    result = viewed(train(scenario, specs, config, 40, 5, 0, frozen), scenario)
    av_routes = [
        tuple(log.action[av] for av in scenario.av_ids)
        for log in result.train_logs + result.eval_logs
    ]
    assert len(av_routes) == 45
    assert all(route in (1, 2) for routes in av_routes for route in routes)
    if algorithm == "fixed":
        assert set(av_routes) == {(2, 2, 2)}
    if algorithm == "ucb":
        # Unpulled actions are forced first, lowest index first.
        assert av_routes[:2] == [(1, 1, 1), (2, 2, 2)]


@pytest.mark.parametrize("algorithm", ["q", "pg"])
def test_simulations_run_counts_every_roster_of_each_distinct_day(default_scenario, algorithm):
    # The definition perfbench's checker asserts on run_meta.json: one full run
    # plus one counterfactual per AV for each distinct deterministic (action, seed).
    humans, _ = run_warmup(default_scenario, 200, seed=0)
    profile = freeze_all(humans)
    frozen = {i: profile[i] for i in default_scenario.human_ids}
    specs = {av: {"algorithm": algorithm} for av in default_scenario.av_ids}
    config = RewardConfig(alpha=1.0, beta=200.0, scope="av-group")
    result = viewed(train(default_scenario, specs, config, 100, 20, 0, frozen), default_scenario)
    days = {
        (tuple(sorted(log.action.items())), log.seed)
        for log in result.train_logs + result.eval_logs
    }
    assert result.simulations_run == (1 + len(default_scenario.av_ids)) * len(days)
