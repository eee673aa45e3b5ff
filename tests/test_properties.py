"""Property tests of the merge kernel on generated scenarios.

Scenarios have 2-4 routes with at most one yielding route, 1-25 agents,
float departures and pre-merge times, gap > 0 and window >= 0. Agent ids
are distinct draws from range(100) in any order, so a mix-up of ids and
departure slots, or noise keyed by slot, shows. Times are
drawn partly from a coarse grid, so arrivals and passage times tie often,
and partly from arbitrary floats. The simulator must agree exactly with the
independent oracle in ``oracle_sim.py``, noisy or not, and each
leave-one-out run with the reduced roster simulated from scratch. The
analyzer's roster kernel must give ``simulate_slots``' floats and the oracle's on
batches that mix full rosters with rosters short of one slot, and the noise
draws those of a fresh generator per agent.

Marginal-cost entries are <= 0 only in the two-route yield regime with a
window at least the gap (``Scenario.monotone``); a pinned test shows a
counterexample outside it. The reward engine's memoised scores must equal
the matrix scored column by column, on first sight of a day and on its
repeat. Episode CSV lines must equal what ``csv.writer`` writes, both in
artifacts and on ``routelab simulate``'s stdout, and a day's block must not
depend on which other days share the call. A trained learner must update on
the observation it selected on.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import random
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from routelab import (
    AgentSpec,
    NetworkConfig,
    RewardConfig,
    RewardEngine,
    RouteSpec,
    Scenario,
    freeze_all,
    intrinsic_reward,
    run_warmup,
    simulate,
    simulate_without,
    run_episode,
    train,
    two_route_yield_scenario,
)
import routelab.learners as learners
from routelab.cli import main
from routelab.episode import EPISODE_CSV_HEADER, episode_csv_blocks, episode_seed
from routelab.harness import _cell
from routelab.network import (
    _arrival_noise,
    _arrival_noise_days,
    counterfactual_row,
    simulate_rosters,
    simulate_slots,
)
from routelab.plots import Series, _axes, _fmt, line_plot
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
def cases(
    draw,
    noisy: bool = False,
    yield_regime: bool = False,
    on_grid: bool = False,
    n_routes: int | None = None,
):
    """(scenario, joint action, seed) for one generated world.

    ``yield_regime`` keeps to two routes, one of them yielding, with a
    window at least the gap, as in the default calibration. ``on_grid``
    draws every time from the round values only, so that ties abound.
    ``n_routes`` fixes the route count, else 2-4 are drawn.
    """

    def value(grid, low, high):
        return st.sampled_from(grid) if on_grid else grid_or_float(grid, low, high)

    if n_routes is None:
        n_routes = 2 if yield_regime else draw(st.integers(2, 4))
    pre_merge = draw(
        st.lists(
            value([5.0, 10.0, 20.0, 40.0, 50.0], 1.0, 60.0),
            min_size=n_routes,
            max_size=n_routes,
        )
    )
    if yield_regime:
        yielding = draw(st.integers(0, 1))
    else:
        yielding = draw(st.one_of(st.none(), st.integers(0, n_routes - 1)))
    gap = draw(value([0.5, 1.0, 2.0, 3.0], 0.01, 8.0))
    window = draw(value([0.0, 2.0, 4.0, 6.0], 0.0, 12.0))
    network = NetworkConfig(
        routes=tuple(
            RouteSpec(pre_merge_time=p, has_priority=k != yielding)
            for k, p in enumerate(pre_merge)
        ),
        merge_gap_g=gap,
        yield_window_w=gap + window if yield_regime else window,
        post_merge_time=draw(value([0.0, 10.0], 0.0, 20.0)),
    )
    steps = draw(
        st.lists(value([0.5, 1.0, 2.0, 4.0], 0.01, 10.0), min_size=1, max_size=25)
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
@given(st.one_of(cases(), cases(noisy=True)))
def test_simulate_matches_oracle(case):
    scenario, action, seed = case
    assert simulate(scenario, action, seed).times == oracle_travel_times(scenario, action, seed)


@PROPERTY_SETTINGS
@given(st.one_of(cases(), cases(noisy=True)))
def test_batch_rows_match_oracle_rosters(case):
    # A counterfactual keeps every remaining agent's jitter.
    scenario, action, seed = case
    ids = [a.id for a in scenario.agents]
    for j in scenario.av_ids:
        kept = [i for i in ids if i != j]
        row = simulate_without(scenario, action, j, seed)
        assert row.times == oracle_subset_times(scenario, action, kept, seed)


@PROPERTY_SETTINGS
@given(st.one_of(cases(), cases(noisy=True)))
def test_simulate_without_matches_the_reduced_roster(case):
    scenario, action, seed = case
    for j in scenario.av_ids:
        row = simulate_without(scenario, action, j, seed)
        if len(scenario.agents) > 1:
            # Noise is keyed by (seed, agent id): a roster simulated from
            # scratch without j sees the same jitter.
            reduced = without(scenario, j)
            rest = {i: action[i] for i in row.times}
            assert row.times == simulate(reduced, rest, seed).times
        else:
            assert row.times == {}


@PROPERTY_SETTINGS
@given(
    # A negative run seed gives negative day seeds, and seed 10**30 runs.
    st.one_of(
        st.integers(-(2**63), 2**63),
        st.integers(2**64, 10**40),
        st.integers(-(10**40), -(2**64)),
    ),
    st.lists(st.integers(-5, 10**6), max_size=25),
    st.floats(1e-9, 60.0),
)
def test_arrival_noise_matches_one_fresh_generator_per_agent(seed, ids, sigma):
    expected = [random.Random(f"{seed}:{i}").uniform(-sigma, sigma) for i in ids]
    assert _arrival_noise(seed, ids, sigma) == expected


# Keys are f"{seed}:{id}" plus a 64-byte digest, so a 4-character string
# makes a key of exactly 17 words and a 5-character one spills into an 18th.
KEY_WORD_EDGES = ("1:23", "12:3", "-1:2", "1:234", "12:34", "-1:23", "123:4")


@PROPERTY_SETTINGS
@given(
    st.lists(
        st.one_of(
            st.integers(-99, 999),  # short keys, either side of a word boundary
            st.integers(-(2**63), 2**63),
            st.integers(2**64, 10**40),
            st.integers(-(10**40), -(2**64)),
            st.integers(10**999, 10**2400),  # keys of 267 to 619 words
        ),
        min_size=1,
        max_size=4,
    ),
    st.lists(st.one_of(st.integers(-5, 99), st.integers(-5, 10**6)), max_size=25),
    st.floats(1e-9, 60.0),
    st.integers(1, 4),
    st.integers(1, 9),
)
# init_by_array mixes max(624, key words) times: "{seed}:{id}" of 2,432
# characters makes a key of 624 words, and one more character a 625th.
@example([10**2429 - 1, 10**2429, -(10**2429), 5, 10**2500, 1 - 10**2999], [0, 3, 10], 2.0, 2, 9)
def test_lane_noise_matches_one_fresh_generator_per_agent_and_day(
    seeds, ids, sigma, days_per_pass, key_block
):
    expected = [
        [random.Random(f"{s}:{i}").uniform(-sigma, sigma).hex() for i in ids] for s in seeds
    ]
    # A pass holds days_per_pass days, so passes end inside the seed list, and
    # its key table is built key_block keys at a time.
    with (
        mock.patch("routelab.network.NOISE_LANES", days_per_pass * max(1, len(ids))),
        mock.patch("routelab.network.KEY_BLOCK", key_block),
    ):
        drawn = [[x.hex() for x in day] for day in _arrival_noise_days(seeds, ids, sigma)]
    assert drawn == expected


def test_lane_noise_keys_either_side_of_a_word_boundary():
    assert {(len(text) + 64 + 3) // 4 for text in KEY_WORD_EDGES} == {17, 18}
    pairs = [tuple(map(int, text.rsplit(":", 1))) for text in KEY_WORD_EDGES]
    seeds, ids = sorted({s for s, _ in pairs}), sorted({i for _, i in pairs})
    expected = [[random.Random(f"{s}:{i}").uniform(-2.0, 2.0) for i in ids] for s in seeds]
    assert list(_arrival_noise_days(seeds, ids, 2.0)) == expected


@st.composite
def roster_batches(draw):
    """(scenario, routes, present, drawn): a deterministic world and rosters of it.

    Each joint action comes as its full roster and as one roster without
    each slot in turn, so one batch mixes both kinds. Besides the drawn
    joint actions, a world with at most 81 joint actions brings every one of
    them, so that exact ties between routes are common; ``drawn`` marks the
    lanes of the drawn ones. Lanes come in a drawn order.
    """
    scenario, action, _ = draw(st.one_of(cases(), cases(on_grid=True)))
    n, n_routes = len(scenario.agents), len(scenario.network.routes)
    first = tuple(action[i] for i in scenario.ids)
    extra = st.lists(st.integers(0, n_routes - 1), min_size=n, max_size=n).map(tuple)
    joints = [first, *draw(st.lists(extra, max_size=2))]
    drawn = len(joints)
    if n_routes**n <= 81:
        joints += itertools.product(range(n_routes), repeat=n)
    lanes = [
        (joint, [k != absent for k in range(n)], j < drawn)
        for j, joint in enumerate(joints)
        for absent in (None, *range(n))
    ]
    routes, present, drawn = zip(*draw(st.permutations(lanes)))
    return scenario, np.array(routes), np.array(present), drawn


def passes_of(routes, present, widths):
    """The rosters in passes of the given widths, cycled; the last pass takes what is left."""
    start, widths = 0, itertools.cycle(widths)
    while start < len(routes):
        stop = start + next(widths)
        yield routes[start:stop], present[start:stop]
        start = stop


@PROPERTY_SETTINGS
@given(roster_batches(), st.lists(st.sampled_from([2, 7, 10_000]), min_size=1, max_size=3))
def test_roster_kernel_matches_slot_kernel_and_oracle(batch, widths):
    # Passes narrower and wider than the one before reuse and regrow the lane buffers.
    scenario, routes, present, drawn = batch
    times = np.full(routes.shape, -1.0)
    simulate_rosters(scenario, passes_of(routes, present, widths), times)
    for row, joint, drives, check in zip(times.tolist(), routes.tolist(), present.tolist(), drawn):
        removed = [k for k, here in enumerate(drives) if not here]
        full, sparse = simulate_slots(scenario, tuple(joint), removed)
        expected = counterfactual_row(full, removed[0], sparse[0]) if removed else full
        assert list(map(math.isnan, row)) == [not here for here in drives]
        kept = [k for k, here in enumerate(drives) if here]
        assert [row[k] for k in kept] == [expected[k] for k in kept]
        if check:
            ids = [scenario.ids[k] for k in kept]
            oracle = oracle_subset_times(scenario, dict(zip(scenario.ids, joint)), ids)
            assert [row[k] for k in kept] == [oracle[i] for i in ids]


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


# A day of the stream: ("day", k) plays joint action variant k on the shared
# engine; ("copy", field) copies the previous log with the next episode number
# and, unless field is "episode", a new value of that field, which the writer
# must not mistake for a repeated day.
STREAM_DAYS = st.one_of(
    st.tuples(st.just("day"), st.integers(0, 2)),
    st.tuples(
        st.just("copy"),
        st.sampled_from(("episode", "seed", "config", "routes", "times", "intrinsic")),
    ),
)


@PROPERTY_SETTINGS
@given(
    st.one_of(cases(), cases(noisy=True)),
    st.sampled_from((1.0, 0.5, -2.0)),
    st.sampled_from((0.0, 200.0, -3.0)),
    st.sampled_from(("av-group", "system")),
    st.lists(STREAM_DAYS, min_size=1, max_size=8),
)
def test_episode_lines_match_csv_writer(case, alpha, beta, scope, stream):
    scenario, action, seed = case
    config = RewardConfig(alpha=alpha, beta=beta, scope=scope)
    n_routes = len(scenario.network.routes)
    variants = [action, {i: 0 for i in action}, {i: (r + 1) % n_routes for i, r in action.items()}]
    stochastic = scenario.noise_sigma > 0
    # One engine for the stream: a deterministic one returns the very same
    # tuples for a repeated day, as in training.
    engine = RewardEngine(scenario, config)
    logs = []
    for day, (kind, arg) in enumerate(stream):
        if kind == "day" or not logs:
            routes = scenario.routes_of(variants[arg if kind == "day" else 0])
            logs.append(run_episode(engine, routes, day, episode_seed(seed, day, stochastic)))
            continue
        last = logs[-1]
        changes = {
            "episode": {},
            "seed": {"seed": last.seed + 1},
            "config": {"config": RewardConfig(alpha=-alpha, beta=beta + 1.0, scope=scope)},
            "routes": {"routes": scenario.routes_of(variants[2])},
            "times": {"times": tuple(t + 1.0 for t in last.times)},
            "intrinsic": {"intrinsic": tuple(m + 1.0 for m in last.intrinsic)},
        }[arg]
        logs.append(dataclasses.replace(last, episode=day, **changes))
    for end in ("\r\n", "\n"):
        expected = [csv_writer_lines([log], scenario, end) for log in logs]
        assert list(episode_csv_blocks(logs, scenario, end)) == expected


def trained_logs(scenario, frozen, algorithm, beta, seed, days=12):
    """A seed's training and evaluation run; the humans keep their ``frozen`` routes."""
    specs = {av: {"algorithm": algorithm} for av in scenario.av_ids}
    config = RewardConfig(beta=beta)
    return train(scenario, specs, config, days, 4, seed, frozen, episode_offset=days)


# Each example trains a seed: fewer examples keep these within the suite's budget.
TRAINING_SETTINGS = settings(PROPERTY_SETTINGS, max_examples=40)


@TRAINING_SETTINGS
@given(
    st.one_of(cases(), cases(noisy=True)),
    st.sampled_from((0.0, 200.0)),
    st.randoms(use_true_random=False),
)
def test_episode_blocks_do_not_depend_on_the_other_days(case, beta, rng):
    # Warm-up and training logs, each listed twice and shuffled together, so
    # that repeated days, noisy ones included, are seldom neighbours.
    scenario, action, seed = case
    humans, warmup = run_warmup(scenario, 12, seed)
    profile = freeze_all(humans)
    frozen = {i: profile[i] for i in scenario.human_ids}
    result = trained_logs(scenario, frozen, "ucb", beta, seed)
    logs = (warmup + result.train_logs + result.eval_logs) * 2
    rng.shuffle(logs)
    for end in ("\r\n", "\n"):
        expected = [next(episode_csv_blocks([log], scenario, end)) for log in logs]
        assert list(episode_csv_blocks(logs, scenario, end)) == expected


@TRAINING_SETTINGS
@given(
    st.one_of(cases(n_routes=3), cases(noisy=True, n_routes=3)),
    st.sampled_from(("ucb", "q", "pg")),
)
def test_learners_update_on_the_observation_they_selected_on(case, algorithm):
    scenario, action, seed = case
    calls = []  # per AV in departure order: ("select" | "update", observation)
    make_learner = learners.make_learner

    def spied(spec, n_actions):
        learner, seen = make_learner(spec, n_actions), []
        select, update = learner.select, learner.update

        def spy_select(obs, rng):
            seen.append(("select", obs))
            return select(obs, rng)

        def spy_update(obs, index, reward):
            seen.append(("update", obs))
            update(obs, index, reward)

        learner.select, learner.update = spy_select, spy_update
        calls.append(seen)
        return learner

    frozen = {i: action[i] for i in scenario.human_ids}
    with mock.patch.object(learners, "make_learner", spied):
        result = trained_logs(scenario, frozen, algorithm, 200.0, seed)
    slots = [k for k, agent in enumerate(scenario.agents) if agent.kind == "av"]
    assert len(calls) == len(slots)
    for slot, seen in zip(slots, calls):
        expected = []
        for log in result.train_logs:
            earlier = log.routes[:slot]
            observed = tuple(earlier.count(route) for route in range(3))
            expected += [("select", observed), ("update", observed)]
        assert seen == expected


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
    engine = RewardEngine(scenario, RewardConfig(beta=beta))
    log = run_episode(engine, scenario.routes_of(action), 0, seed)
    header = ",".join(EPISODE_CSV_HEADER) + "\n"
    assert stdout.getvalue() == header + "".join(episode_csv_blocks([log], scenario, "\n"))


# Repeats, both zeros and NaN objects that equal nothing, even themselves.
COORDINATES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 7.0]),
    st.floats(-10.0, 10.0),
    st.builds(float, st.just("nan")),
)


@PROPERTY_SETTINGS
@given(
    st.floats(-10.0, 10.0),
    st.lists(st.lists(st.tuples(COORDINATES, COORDINATES), max_size=12), min_size=1, max_size=4),
)
def test_line_plot_points_are_each_points_formatted_coordinates(first_x, points):
    # A finite first x keeps the x range finite (min and max skip a later NaN).
    points[0].insert(0, (first_x, 0.5))
    series = [Series(f"s{k}", [x for x, _ in p], [y for _, y in p]) for k, p in enumerate(points)]
    svg = line_plot(series, title="t", xlabel="x", ylabel="y", y_range=(0.0, 1.02))
    xs = [x for s in series for x in s.xs]
    _, sx, sy = _axes(min(xs), max(xs), 0.0, 1.02, "x", "y", "t")
    assert re.findall(r'points="([^"]*)"', svg) == [
        " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(s.xs, s.ys)) for s in series
    ]
