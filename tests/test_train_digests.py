"""Digests of whole training runs beyond the golden UCB config.

``tests/test_golden.py`` pins one UCB configuration, and UCB never reads the
route counts of earlier departures. These cases pin warm-up, training and
evaluation for every learner, every scope, ``raw_sum``, a ``tanh_scale`` of
2 and a negative beta, noise-free and noisy, on the default world and on a
3-route world. Each digest is a sha256 over the ``repr`` of every log's
``(episode, routes, times, intrinsic, seed)``, then of ``simulations_run``.
A change that claims "same results" keeps every value here.
"""

from __future__ import annotations

import hashlib

import pytest

from routelab import NetworkConfig, RouteSpec
from routelab.harness import RunConfig, run_seed
from routelab.rewards import RewardConfig
from routelab.scenarios import two_route_yield_scenario

THREE_ROUTES = NetworkConfig(
    routes=(RouteSpec(40.0, False), RouteSpec(50.0, True), RouteSpec(46.0, True)),
    merge_gap_g=2.0,
    yield_window_w=6.0,
    post_merge_time=10.0,
)
# 10 agents, 5 of them AVs, each free to take any of the three routes.
THREE_ROUTE_WORLD = two_route_yield_scenario(
    n_agents=10, av_ids=(1, 3, 4, 6, 9), network=THREE_ROUTES
)

# name -> (scenario, learner spec, per-AV specs, reward config, mode)
CASES = {
    "ucb-av-group": (None, {"algorithm": "ucb"}, {}, RewardConfig(beta=200.0), "deterministic"),
    "q-av-group": (None, {"algorithm": "q"}, {}, RewardConfig(beta=200.0), "deterministic"),
    "pg-system": (
        None,
        {"algorithm": "pg", "learning_rate": 0.05},
        {},
        RewardConfig(beta=200.0, scope="system"),
        "deterministic",
    ),
    "fixed-none": (
        None,
        {"algorithm": "fixed", "route": 1},
        {},
        RewardConfig(beta=200.0, scope="none"),
        "deterministic",
    ),
    "q-system-raw-sum": (
        None,
        {"algorithm": "q", "epsilon_start": 0.5},
        {},
        RewardConfig(beta=20.0, scope="system", raw_sum=True),
        "deterministic",
    ),
    "mixed-av-group-negative-beta": (
        None,
        {"algorithm": "ucb"},
        {1: {"algorithm": "q"}, 7: {"algorithm": "pg"}, 9: {"algorithm": "fixed"}},
        RewardConfig(alpha=0.5, beta=-3.0),
        "deterministic",
    ),
    "pg-av-group-tanh-scale-noisy": (
        None,
        {"algorithm": "pg"},
        {},
        RewardConfig(beta=-3.0, tanh_scale=2.0),
        "stochastic",
    ),
    "ucb-system-noisy": (
        None,
        {"algorithm": "ucb"},
        {},
        RewardConfig(beta=200.0, scope="system"),
        "stochastic",
    ),
    "q-none-noisy": (None, {"algorithm": "q"}, {}, RewardConfig(scope="none"), "stochastic"),
    "three-routes-q-av-group": (
        THREE_ROUTE_WORLD,
        {"algorithm": "q"},
        {3: {"algorithm": "fixed", "route": 2}, 6: {"algorithm": "ucb"}},
        RewardConfig(beta=200.0, tanh_scale=2.0),
        "deterministic",
    ),
    "three-routes-pg-system-noisy": (
        THREE_ROUTE_WORLD,
        {"algorithm": "pg"},
        {4: {"algorithm": "q"}},
        RewardConfig(beta=-3.0, scope="system", raw_sum=True),
        "stochastic",
    ),
}

DIGESTS = {
    "fixed-none": [
        "3c065ddee3ffd9743eb2526e925b9ed29dd52942e9bdde196bc24f2d7cbc708d",
        "55fa971ef3d569593fbaf83bd91d5d812b5eeec49376839456cbe047344dbbc3",
    ],
    "mixed-av-group-negative-beta": [
        "0ffdbd4401d0ee34392aeb35c72ee8e513c3b83078b9210a5be5dd6ce421183c",
        "81042fe6cf483cff33e6c8e29a177a7b7087f4b02e06908318e9503b0695fd64",
    ],
    "pg-av-group-tanh-scale-noisy": [
        "6af9cc40649e68da9e17f3a27b568ae4bb15145b981eea57fb9c6865185dcb59",
        "03685c535b2a7294f9c23bbc916673fdfce018198ee8ef3eb6f0d28bf536d66d",
    ],
    "pg-system": [
        "90ca83147df6648cf4079839e7ed077e8e706055c93f509ecb92f65392fc5826",
        "5931061c6fc59cda6e730312deff1b14c0d80e933cbd61aac8d90feaf0770043",
    ],
    "q-av-group": [
        "a6e82f677f4ffdc7da8b90b2d2c44437d72d206d5684465e4a3312d272d49feb",
        "282515ae5295e2fb1ffb47884f7f83fd13b0038aefb892f42419d223089f1b61",
    ],
    "q-none-noisy": [
        "d2b8872525768468e100e68581540180fc1bc43af45236e060ad870c631c8e8c",
        "81d512f204618181105dc486b7d242606429051df137e008ab880a10e22d76c3",
    ],
    "q-system-raw-sum": [
        "daa6b7f8916961d1a3f88fac1ca41efb637abdc4c15913b1df94e50a16a4e41e",
        "b151515c2550a6e950d1daf7dea674fcc560585af8de7d7dd80411a0d4bc2012",
    ],
    "three-routes-pg-system-noisy": [
        "a97c49f98a055e19dd4f5c4cd3350e1209682cf180fed527cfc237f59900f924",
        "0576409b7e42ba115b6662fd7ef100bad93833f4434f8a4c6fdd16704f350b37",
    ],
    "three-routes-q-av-group": [
        "bc61f38127213f0c15ed2b709e8d1f1e02b8d5c6d36e97c7216ec1a4a258114e",
        "3d8a78c2b416645c15516ae70f20b81b85176f09f84d4c375b356dd631f30bc5",
    ],
    "ucb-av-group": [
        "5f02368abfdd39cfec0536394464fac33466af03fc25c3711ffc2337d5ecb845",
        "885b40a066790e824386cfd8e578d650f29cbbca49484176fa9599e0341cf529",
    ],
    "ucb-system-noisy": [
        "691c05348ddafd6ea9a5a6c5ffa899536625243840b472d756655fa82f65b52f",
        "08234519d9f91ba5311d13dc86474d891d8ae07d40bb5a741c5a5f476f7f218d",
    ],
}


def run_digests(name: str) -> list[str]:
    scenario, learner, by_id, reward, mode = CASES[name]
    config = RunConfig(
        scenario=scenario or two_route_yield_scenario(),
        learner=learner,
        learners_by_id=by_id,
        reward=reward,
        warmup_days=30,
        train_episodes=150,
        eval_episodes=10,
        seeds=(0, 1),
        mode=mode,
    )
    digests = []
    for seed in config.seeds:
        run = run_seed(config, config.effective_scenario(), seed)
        digest = hashlib.sha256()
        for log in run.all_logs:
            digest.update(repr((log.episode, log.routes, log.times, log.intrinsic, log.seed)).encode())
        digest.update(repr(run.result.simulations_run).encode())
        digests.append(digest.hexdigest())
    return digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_training_run_digests(name):
    assert run_digests(name) == DIGESTS[name]
