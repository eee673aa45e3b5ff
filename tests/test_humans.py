from __future__ import annotations

import random

import pytest

from routelab import HumanState, freeze_all, run_warmup

from conftest import id_view


def fresh_state(estimates=(50.0, 60.0), smoothing=0.1, epsilon=0.0):
    return HumanState(
        routes=(0, 1),
        estimates=list(estimates),
        smoothing=smoothing,
        epsilon=epsilon,
    )


def test_greedy_choice_is_argmin():
    state = fresh_state((50.0, 60.0))
    assert state.choose(random.Random(0)) == 0
    state = fresh_state((61.0, 60.0))
    assert state.choose(random.Random(0)) == 1


def test_full_exploration_is_uniform():
    state = fresh_state(epsilon=1.0)
    rng = random.Random(42)
    draws = [state.choose(rng) for _ in range(10_000)]
    share = draws.count(0) / len(draws)
    assert abs(share - 0.5) <= 0.02


def test_update_full_replacement():
    state = fresh_state((50.0, 60.0), smoothing=1.0)
    state.update(0, 55.0)
    assert state.estimates[0] == 55.0


def test_update_half_smoothing():
    state = fresh_state((50.0, 60.0), smoothing=0.5)
    state.update(0, 60.0)
    assert state.estimates[0] == 55.0


def test_repeated_updates_decay_geometrically():
    state = fresh_state((50.0, 60.0), smoothing=0.5)
    target = 80.0
    gap = target - state.estimates[0]
    for step in range(1, 8):
        state.update(0, target)
        expected_gap = gap * 0.5**step
        assert target - state.estimates[0] == pytest.approx(expected_gap)


def test_freeze_picks_argmin_with_tie_to_lowest():
    state = fresh_state((50.0, 60.0))
    assert state.best_route() == 0
    tied = fresh_state((55.0, 55.0))
    assert tied.best_route() == 0


def test_freeze_all_returns_profile():
    humans = {0: fresh_state((50.0, 60.0), epsilon=0.3), 1: fresh_state((70.0, 60.0))}
    profile = freeze_all(humans)
    assert profile == {0: 0, 1: 1}
    assert humans[0].estimates == [50.0, 60.0] and humans[0].epsilon == 0.3
    assert humans[1].estimates == [70.0, 60.0] and humans[1].epsilon == 0.0


def test_initial_estimates_are_free_flow(default_scenario):
    states, logs = run_warmup(default_scenario, days=0, seed=0)
    assert logs == []
    assert list(states) == [agent.id for agent in default_scenario.agents]
    assert states[0].estimates == [50.0, 60.0]


def test_default_warmup_converges_to_route0(default_scenario):
    humans, logs = run_warmup(default_scenario, days=200, seed=0)
    profile = freeze_all(humans)
    assert len(logs) == 200
    assert all(route == 0 for route in profile.values())
    # post-freeze choices are constant regardless of rng state
    rng = random.Random(999)
    assert all(humans[i].choose(rng) == 0 for i in profile)


def test_warmup_epsilon_reaches_zero(default_scenario):
    humans, _ = run_warmup(default_scenario, days=50, seed=1)
    assert all(state.epsilon == 0.0 for state in humans.values())


def test_warmup_logs_selfish_rewards(default_scenario):
    _, logs = run_warmup(default_scenario, days=3, seed=2)
    for log in (id_view(log, default_scenario) for log in logs):
        for agent in default_scenario.agents:
            assert log.shaped[agent.id] == log.extrinsic[agent.id]
            assert log.intrinsic[agent.id] == 0.0
