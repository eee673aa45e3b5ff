"""Property tests of the merge kernel on generated scenarios.

Scenarios have 2-4 routes with at most one yielding route, 1-25 agents,
float departures and pre-merge times, gap > 0 and window >= 0. Agent ids
are distinct draws from range(100) in any order, so a mix-up of ids and
departure slots, or noise keyed by slot, shows. Times are
drawn partly from a coarse grid, so arrivals and passage times tie often,
and partly from arbitrary floats. The simulator must agree exactly with the
independent oracle in ``oracle_sim.py``, and the batched leave-one-out runs
with runs of the reduced roster simulated from scratch.

Marginal-cost entries are <= 0 only in the two-route yield regime with a
window at least the gap (``Scenario.monotone``); a pinned test shows a
counterexample outside it. The reward engine's memoised scores must equal
the matrix scored column by column, on first sight of a day and on its
repeat. Episode CSV lines must equal what ``csv.writer`` writes, both in
artifacts and on ``routelab simulate``'s stdout.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from routelab import (
    AgentSpec,
    NetworkConfig,
    RewardConfig,
    RewardEngine,
    RouteSpec,
    Scenario,
    intrinsic_reward,
    simulate,
    simulate_batch,
    simulate_without,
    run_episode,
    two_route_yield_scenario,
)
from routelab.cli import main
from routelab.episode import EPISODE_CSV_HEADER, episode_csv_lines, episode_seed
from routelab.harness import _cell
from routelab.scenarios import scenario_to_dict
from conftest import id_view, make_scenario
from oracle_sim import oracle_subset_times, oracle_travel_times

PROPERTY_SETTINGS = settings(
    max_examples=150, derandomize=True, deadline=None, database=None
)


def grid_or_float(grid, low, high):
    """Mostly round values, so that arrivals and passages tie, else any float."""
    return st.one_of(
        st.sampled_from(grid),
        st.floats(low, high, allow_nan=False, allow_infinity=False),
    )


@st.composite
def cases(draw, noisy: bool = False, yield_regime: bool = False):
    """(scenario, joint action, seed) for one generated world.

    ``yield_regime`` keeps to two routes, one of them yielding, with a
    window at least the gap, as in the default calibration.
    """
    n_routes = 2 if yield_regime else draw(st.integers(2, 4))
    pre_merge = draw(
        st.lists(
            grid_or_float([5.0, 10.0, 20.0, 40.0, 50.0], 1.0, 60.0),
            min_size=n_routes,
            max_size=n_routes,
        )
    )
    if yield_regime:
        yielding = draw(st.integers(0, 1))
    else:
        yielding = draw(st.one_of(st.none(), st.integers(0, n_routes - 1)))
    gap = draw(grid_or_float([0.5, 1.0, 2.0, 3.0], 0.01, 8.0))
    window = draw(grid_or_float([0.0, 2.0, 4.0, 6.0], 0.0, 12.0))
    network = NetworkConfig(
        routes=tuple(
            RouteSpec(pre_merge_time=p, has_priority=k != yielding)
            for k, p in enumerate(pre_merge)
        ),
        merge_gap_g=gap,
        yield_window_w=gap + window if yield_regime else window,
        post_merge_time=draw(grid_or_float([0.0, 10.0], 0.0, 20.0)),
    )
    steps = draw(
        st.lists(grid_or_float([0.5, 1.0, 2.0, 4.0], 0.01, 10.0), min_size=1, max_size=25)
    )
    # Ids in no particular order, so that an id is not its departure slot.
    ids = draw(st.lists(st.integers(0, 99), min_size=len(steps), max_size=len(steps), unique=True))
    departure, agents = 0.0, []
    for i, step in zip(ids, steps):
        departure += step
        agents.append(
            AgentSpec(
                id=i,
                kind="av" if draw(st.booleans()) else "human",
                departure_time=departure,
                action_space=tuple(range(n_routes)),
            )
        )
    sigma = 0.0
    if noisy:
        sigma = draw(st.floats(0.01, 0.99 * min(pre_merge)))
    scenario = Scenario(agents=tuple(agents), network=network, noise_sigma=sigma)
    action = {
        agent.id: draw(st.integers(0, n_routes - 1)) for agent in scenario.agents
    }
    return scenario, action, draw(st.integers(0, 2**31))


def without(scenario: Scenario, removed: int) -> Scenario:
    """The same world with one agent deleted from the roster."""
    rest = tuple(a for a in scenario.agents if a.id != removed)
    return Scenario(agents=rest, network=scenario.network, noise_sigma=scenario.noise_sigma)


@PROPERTY_SETTINGS
@given(cases())
def test_simulate_matches_oracle(case):
    scenario, action, seed = case
    assert simulate(scenario, action, seed).times == oracle_travel_times(scenario, action)


@PROPERTY_SETTINGS
@given(cases())
def test_batch_rows_match_oracle_rosters(case):
    scenario, action, seed = case
    ids = [a.id for a in scenario.agents]
    base, *rows = simulate_batch(scenario, action, scenario.av_ids, seed)
    assert base.times == oracle_travel_times(scenario, action)
    for j, row in zip(scenario.av_ids, rows):
        kept = [i for i in ids if i != j]
        assert row.times == oracle_subset_times(scenario, action, kept)


@PROPERTY_SETTINGS
@given(st.one_of(cases(), cases(noisy=True)))
def test_batch_rows_match_single_runs(case):
    scenario, action, seed = case
    removed = scenario.av_ids * 2  # a repeated id gets its own, equal row
    base, *rows = simulate_batch(scenario, action, removed, seed)
    assert base.times == simulate(scenario, action, seed).times
    for j, row in zip(removed, rows):
        assert row.times == simulate_without(scenario, action, j, seed).times
        if len(scenario.agents) > 1:
            # Noise is keyed by (seed, agent id): a roster simulated from
            # scratch without j sees the same jitter.
            reduced = without(scenario, j)
            rest = {i: action[i] for i in row.times}
            assert row.times == simulate(reduced, rest, seed).times
        else:
            assert row.times == {}


@PROPERTY_SETTINGS
@given(cases(yield_regime=True))
def test_deterministic_marginal_entries_nonpositive(case):
    scenario, action, seed = case
    assert scenario.monotone
    matrix = RewardEngine(scenario, RewardConfig()).marginal_matrix(action, seed)
    assert (matrix.values <= 0.0).all(), matrix.values


@PROPERTY_SETTINGS
@given(
    st.one_of(cases(), cases(noisy=True)),
    st.sampled_from(("av-group", "system")),
    st.booleans(),
    st.floats(0.1, 20.0),
)
def test_engine_scores_equal_column_scores(case, scope, raw_sum, tanh_scale):
    scenario, action, seed = case
    config = RewardConfig(beta=1.0, scope=scope, tanh_scale=tanh_scale, raw_sum=raw_sum)
    base = simulate(scenario, action, seed)
    matrix = RewardEngine(scenario, config).marginal_matrix(action, seed)
    expected = {j: intrinsic_reward(matrix, j, config) for j in scenario.av_ids}
    engine = RewardEngine(scenario, config)
    routes = scenario.routes_of(action)
    for repeat in range(2):
        simulated = engine.simulations_run
        times, scores = engine.evaluate(routes, seed)
        assert dict(zip(scenario.ids, times, strict=True)) == base.times
        assert dict(zip(scenario.av_ids, scores, strict=True)) == expected
        if repeat and scenario.noise_sigma == 0:
            assert engine.simulations_run == simulated


def window_shorter_than_gap_scenario() -> Scenario:
    return make_scenario(
        [0.0, 1.0, 2.0],
        av_flags=[True, False, False],
        pre_merge=(10.0, 10.0),
        gap=4.0,
        window=0.0,
    )


def test_window_shorter_than_gap_lets_a_removal_delay_someone():
    # Yielding agents 0 and 1 reach the merge at 10 and 11, priority agent 2
    # at 12. With agent 0 present, agent 1 still waits when agent 2 arrives,
    # so agent 2 passes first. Without agent 0, agent 1 passes at 11 because
    # the window (0 s) ends before agent 2 arrives, and agent 2 must then
    # wait out the 4 s gap: removing agent 0 delays agent 2 by one second.
    scenario = window_shorter_than_gap_scenario()
    action = {0: 0, 1: 0, 2: 1}
    base = simulate(scenario, action)
    assert simulate_without(scenario, action, 0)[2] - base[2] == 1.0
    assert RewardEngine(scenario, RewardConfig()).marginal_matrix(action, 0).entry(2, 0) == 1.0


def test_monotone_marks_the_two_route_yield_regime():
    assert two_route_yield_scenario().monotone
    assert not window_shorter_than_gap_scenario().monotone


def constant_policies(action):
    return {i: (lambda obs, r=route: r) for i, route in action.items()}


def csv_writer_lines(logs, scenario, end: str) -> str:
    """Episode rows as ``csv.writer`` writes them, each cell through ``harness._cell``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=end)
    for log in (id_view(log, scenario) for log in logs):
        for agent in scenario.agents:
            i = agent.id
            row = (log.episode, i, agent.kind, log.action[i], log.times[i])
            row += (log.extrinsic[i], log.intrinsic[i], log.shaped[i], log.seed)
            writer.writerow([_cell(value) for value in row])
    return out.getvalue()


@PROPERTY_SETTINGS
@given(st.one_of(cases(), cases(noisy=True)), st.sampled_from((0.0, 200.0)))
def test_episode_lines_match_csv_writer(case, beta):
    scenario, action, seed = case
    config = RewardConfig(beta=beta)
    stochastic = scenario.noise_sigma > 0
    logs = [
        run_episode(
            scenario,
            constant_policies(action),
            config,
            day,
            episode_seed(seed, day, stochastic),
        )
        for day in range(3)
    ]
    for end in ("\r\n", "\n"):
        expected = csv_writer_lines(logs, scenario, end)
        assert "".join(episode_csv_lines(logs, scenario, end)) == expected


@PROPERTY_SETTINGS
@given(st.one_of(cases(), cases(noisy=True)), st.sampled_from((0.0, 200.0)))
def test_simulate_stdout_is_header_and_episode_lines(case, beta):
    scenario, action, seed = case
    doc = {
        "scenario": scenario_to_dict(scenario),
        "reward": {"beta": beta},
        "seeds": [seed],
        "mode": "stochastic" if scenario.noise_sigma > 0 else "deterministic",
    }
    routes = ",".join(str(action[a.id]) for a in scenario.agents)
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            assert main(["simulate", "--config", str(path), "--action", routes]) == 0
    log = run_episode(scenario, constant_policies(action), RewardConfig(beta=beta), 0, seed)
    header = ",".join(EPISODE_CSV_HEADER) + "\n"
    assert stdout.getvalue() == header + "".join(episode_csv_lines([log], scenario, "\n"))
