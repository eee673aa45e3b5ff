from __future__ import annotations

import itertools
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from routelab import AgentSpec, NetworkConfig, RouteSpec, Scenario, TravelTimeVector
from routelab.scenarios import two_route_yield_scenario


@pytest.fixture(scope="session")
def default_scenario() -> Scenario:
    return two_route_yield_scenario()


def make_scenario(
    departures,
    av_flags=None,
    pre_merge=(40.0, 50.0),
    post_merge=10.0,
    gap=2.0,
    window=6.0,
    noise_sigma=0.0,
    action_space=(0, 1),
):
    """Small ad-hoc scenario: agents at the given departures, optional kinds."""
    if av_flags is None:
        av_flags = [True] * len(departures)
    network = NetworkConfig(
        routes=(
            RouteSpec(pre_merge_time=pre_merge[0], has_priority=False),
            RouteSpec(pre_merge_time=pre_merge[1], has_priority=True),
        ),
        merge_gap_g=gap,
        yield_window_w=window,
        post_merge_time=post_merge,
    )
    agents = tuple(
        AgentSpec(
            id=i,
            kind="av" if av_flags[i] else "human",
            departure_time=float(dep),
            action_space=tuple(action_space),
        )
        for i, dep in enumerate(departures)
    )
    return Scenario(agents=agents, network=network, noise_sigma=noise_sigma)


def build_observation(scenario: Scenario, partial_choices) -> tuple[int, ...]:
    """Route counts of the agents that already departed, recounted from
    ``partial_choices`` (agent id -> route): the reference for the running
    counts that ``run_episode`` hands each chooser."""
    counts = [0] * len(scenario.network.routes)
    for route in partial_choices.values():
        counts[route] += 1
    return tuple(counts)


def id_view(log, scenario: Scenario) -> SimpleNamespace:
    """An ``EpisodeLog`` keyed by agent id: ``action``, ``extrinsic``,
    ``intrinsic`` and ``shaped`` dicts and a ``TravelTimeVector`` of ``times``.

    Humans score 0.0; extrinsic and shaped are derived here, with the float
    operations of the definition (``-t``, ``alpha * extrinsic + beta *
    intrinsic``), independently of the code under test.
    """
    ids, config = scenario.ids, log.config
    scores = dict(zip(scenario.av_ids, log.intrinsic, strict=True))
    intrinsic = {i: scores.get(i, 0.0) for i in ids}
    extrinsic = {i: -t for i, t in zip(ids, log.times, strict=True)}
    return SimpleNamespace(
        episode=log.episode,
        action=dict(zip(ids, log.routes, strict=True)),
        times=TravelTimeVector(times=dict(zip(ids, log.times))),
        extrinsic=extrinsic,
        intrinsic=intrinsic,
        shaped={i: config.alpha * extrinsic[i] + config.beta * intrinsic[i] for i in ids},
        seed=log.seed,
    )


class DeviationRow(NamedTuple):
    action: tuple[int, ...]
    av_id: int
    delta_seconds: float
    delta_score: float
    beta_threshold: float | None


def deviation_rows(analyzer, table) -> list[DeviationRow]:
    """``analyzer.deviation_records``' table as one row per (joint action, AV),
    profile by profile, then AV by AV: the order of deviations.csv."""
    return [
        DeviationRow(action, av, *table.pairs[i], table.thresholds[i])
        for action, row in zip(itertools.product(*analyzer.spaces), table.index.tolist())
        for av, i in zip(analyzer.av_ids, row)
    ]


def deviation_terms(analyzer, action, av_id, config) -> tuple[float, float]:
    """(delta_seconds, delta_score) of ``analyzer.deviation_records(config)``'s
    row for AV ``av_id`` in joint action ``action``."""
    (row,) = (
        r
        for r in deviation_rows(analyzer, analyzer.deviation_records(config))
        if r.action == action and r.av_id == av_id
    )
    return row.delta_seconds, row.delta_score
