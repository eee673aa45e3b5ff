"""Golden digests of run artifacts.

Each run below writes its artifacts to a fresh directory; every file except
``config.json`` (which embeds the output directory) must hash to the value
recorded here. ``config.json`` is pinned by its own run, whose output
directory is relative. A refactor that claims "same results" keeps these unchanged;
a change that alters results on purpose must say so and record new digests.
The stochastic run guards how noisy 17-digit floats are written. The kernel
digest pins the raw travel times of ``simulate`` and of ``simulate_without``
for every AV on generated worlds beyond the default scenario.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

from routelab import AgentSpec, NetworkConfig, RouteSpec, Scenario, simulate, simulate_without
from routelab.harness import RunConfig, equilibrium_grid, run_experiment
from routelab.rewards import RewardConfig
from routelab.scenarios import two_route_yield_network, two_route_yield_scenario

EXPERIMENT_DIGESTS = {
    "convergence.csv": "51ee3cc3c49285de59e6f4c3e1f7a65c816d50bf166762f0b52220fc8d3c5142",
    "convergence.svg": "4cb54d636799851300299590cd14c643a5ec6ec576cda35b43dbd3de852c0761",
    "episodes.csv": "83a096092d1c32a6d07d6d7cb3a3c9f584c28f9c69391ddaa2957f391e429122",
    "run_meta.json": "e682724c97867e362a50bba099db0919d3d2755efe17e92ab4590c59e71721dc",
    "seed_0/episodes.csv": "010e86201b78b33d895bd8627cc0fa68fcebb418c96978b50bdab63d6c33c049",
    "seed_1/episodes.csv": "3b2791b40891b6b4df2d28eb0d72442b6706f9e36bcb2f3642a63a7b56277976",
    "summary.csv": "96a94efc5a05050d4022126a82c57bb0ed471e54e6f6164ea351ceba70f2235f",
}

STOCHASTIC_EXPERIMENT_DIGESTS = {
    "convergence.csv": "1eb7d946f9da7bef4fec6514aa97a3d9c4ae14b028980d71eb5acbcbe79116c4",
    "convergence.svg": "bd65a273dbd869fed85302b615ec85ba0bab72830cee727ebc4ae631958bd29e",
    "episodes.csv": "7392ecfb9952e31553d2c75ed4d1d3ee8829199b3d5132e6351148beb08729ca",
    "run_meta.json": "0d4be83074567349ab52448b01cea36f6c682a5b8b38721b49a84d671e28d3d8",
    "seed_0/episodes.csv": "c1af5b8a4b2c19e693a78493d0ccaeb51a97007570516e76324d90b3f918a5c2",
    "seed_1/episodes.csv": "f0404e9614ff8fb359b4114b750f085c375d598e4d399476f83de26f0d26057e",
    "summary.csv": "1812cc9e5388e6038f74296a66be4606dc2973ea0c68a923498a6f6997566307",
}

GRID_DIGESTS = {
    "av-group/deviations.csv": "1fe25e5122c8f5eae3a8b7e9954d0d9254cffdf31a51644f3e31497aabc5ea50",
    "av-group/equilibria.csv": "580c23a5ac8fd2be2430415f1d1c5d8b39ee4d31b9c11a5319503b51a9149874",
    "av-group/equilibria.svg": "77a07cc771fdd432e0a41ad470aca4b8abe888bcd31a5857913beb32f6487b66",
    "system/deviations.csv": "b6b171f8f32f7c0e5b6b342391f4f5a2cf9c4f7d3d7cdbcd6056e10b8c7cc3f3",
    "system/equilibria.csv": "71e79d24b86c5db8d2c65324d62708c755f24840a66cec3ec9dc07f22db25d48",
    "system/equilibria.svg": "77a07cc771fdd432e0a41ad470aca4b8abe888bcd31a5857913beb32f6487b66",
}

# Window below the gap: removing a vehicle can delay another, so positive
# marginal entries and finite, inf and indifferent thresholds all reach
# deviations.csv.
NON_MONOTONE_GRID_DIGESTS = {
    "av-group/deviations.csv": "2815675a2a14357f9bc0be90e0923e7c27b1cd68e28ef99f06772812eaa030b6",
    "av-group/equilibria.csv": "e6f2b013f633c35a9dfd02007b6bc1e7b91d9a6e53bc3e0fbf26273dd63ba28b",
    "av-group/equilibria.svg": "c1f9f16a53473f9d2aa6f52e33c530dced669ee7f0cf8ede9793672476b7e8e4",
    "system/deviations.csv": "c03fc26c368cb714262b719558b7d28d2d8b2fbd8c8e80ff172ac687ae4e6d86",
    "system/equilibria.csv": "ec59ad5135c22682788b78712b50bc017218c2e14128a035f513b763a652117f",
    "system/equilibria.svg": "b2699d8807fc192fe757432ba158932e7e4f75923547317abd2087d517827a00",
}

# 10 generated worlds x 20 seeded days: 3-4 routes, window below the gap,
# shuffled non-contiguous agent ids, every other world noisy.
# A run config that sets every key to something other than its default.
CONFIG_JSON_DIGEST = "ead447edda9f19ab117bf7a47bd3326c563d9c128153e99c3c7729c5e7f6d23d"

KERNEL_DIGEST = "99fe4cfe37b4599ace6943d952180d4af99c78dd2de4afb71bbc0c8b482e8364"


def digests(out_dir):
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file() and path.name != "config.json"
    }


def shaped_experiment(out_dir, mode):
    return RunConfig(
        scenario=two_route_yield_scenario(),
        learner={"algorithm": "ucb"},
        reward=RewardConfig(alpha=1.0, beta=200.0, scope="av-group"),
        warmup_days=30,
        train_episodes=80,
        eval_episodes=10,
        seeds=(0, 1),
        mode=mode,
        out_dir=out_dir,
    )


def test_shaped_deterministic_experiment_digests(tmp_path):
    config = shaped_experiment(tmp_path / "run", "deterministic")
    run_experiment(config)
    assert digests(config.out_dir) == EXPERIMENT_DIGESTS


def test_shaped_stochastic_experiment_digests(tmp_path):
    config = shaped_experiment(tmp_path / "run", "stochastic")
    run_experiment(config)
    assert digests(config.out_dir) == STOCHASTIC_EXPERIMENT_DIGESTS


def test_config_json_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    network = two_route_yield_network(pre_merge=(40.0, 44.5), merge_gap=3.0, yield_window=1.0)
    base = two_route_yield_scenario(
        n_agents=6, av_ids=(1, 3), headway=1.5, noise_sigma=0.5, network=network
    )
    agents = tuple(
        dataclasses.replace(a, action_space=(1, 0)) if a.id == 3 else a for a in base.agents
    )
    config = RunConfig(
        scenario=dataclasses.replace(base, agents=agents),
        learner={"algorithm": "q", "learning_rate": 0.3},
        learners_by_id={3: {"algorithm": "fixed", "route": 1}},
        reward=RewardConfig(alpha=2.0, beta=0.7, scope="system", tanh_scale=0.25, raw_sum=True),
        warmup_days=3,
        train_episodes=2,
        eval_episodes=1,
        seeds=(2, 0),
        mode="stochastic",
        noise_sigma=1.25,
        out_dir="run",
    )
    run_experiment(config)
    assert hashlib.sha256((tmp_path / "run" / "config.json").read_bytes()).hexdigest() == (
        CONFIG_JSON_DIGEST
    )


def grid_digests(config):
    for scope in ("av-group", "system"):
        scoped = dataclasses.replace(config, out_dir=config.out_dir / scope)
        equilibrium_grid(scoped, (1.0,), (0.0, 0.3, 1.0, 10.0, 100.0), scope)
    return digests(config.out_dir)


def test_three_av_shaped_grid_digests(tmp_path):
    config = RunConfig(
        scenario=two_route_yield_scenario(av_ids=(1, 3, 5)),
        warmup_days=30,
        seeds=(0,),
        out_dir=tmp_path / "grid",
    )
    assert grid_digests(config) == GRID_DIGESTS


def test_non_monotone_shaped_grid_digests(tmp_path):
    network = two_route_yield_network(pre_merge=(40.0, 44.0), merge_gap=3.0, yield_window=1.0)
    scenario = two_route_yield_scenario(
        n_agents=8, av_ids=(1, 3, 5, 7), headway=1.0, network=network
    )
    assert not scenario.monotone
    config = RunConfig(
        scenario=scenario,
        reward=RewardConfig(tanh_scale=0.5),
        warmup_days=20,
        seeds=(0,),
        out_dir=tmp_path / "grid",
    )
    assert grid_digests(config) == NON_MONOTONE_GRID_DIGESTS


def kernel_worlds(n_worlds=10, days=20):
    """(scenario, joint action, seed) for each generated day."""
    rng = random.Random(9)
    for world in range(n_worlds):
        n_routes = rng.choice((3, 4))
        yielding = rng.choice((None, *range(n_routes)))
        gap = rng.choice((2.0, 3.0, rng.uniform(1.0, 4.0)))
        pre_merge = [rng.choice((10.0, 12.0, 15.0, rng.uniform(8.0, 30.0))) for _ in range(n_routes)]
        network = NetworkConfig(
            routes=tuple(RouteSpec(p, k != yielding) for k, p in enumerate(pre_merge)),
            merge_gap_g=gap,
            yield_window_w=rng.uniform(0.0, gap),
            post_merge_time=rng.choice((0.0, 10.0)),
        )
        ids = rng.sample(range(100), rng.randint(12, 22))
        departure, agents = 0.0, []
        for i in ids:
            departure += rng.choice((0.5, 1.0, 2.0, rng.uniform(0.1, 3.0)))
            kind = "av" if rng.random() < 0.5 else "human"
            agents.append(AgentSpec(i, kind, departure, tuple(range(n_routes))))
        sigma = rng.uniform(0.1, 0.9 * min(pre_merge)) if world % 2 else 0.0
        scenario = Scenario(tuple(agents), network, sigma)
        for _ in range(days):
            action = {i: rng.randrange(n_routes) for i in ids}
            yield scenario, action, rng.randrange(2**31)


def test_kernel_travel_times_digest():
    digest = hashlib.sha256()
    for scenario, action, seed in kernel_worlds():
        runs = [simulate(scenario, action, seed)]
        runs += [simulate_without(scenario, action, j, seed) for j in scenario.av_ids]
        for run in runs:
            for agent in scenario.agents:
                if agent.id in run:
                    digest.update(f"{agent.id}:{run[agent.id]!r};".encode())
        digest.update(b"|")
    assert digest.hexdigest() == KERNEL_DIGEST
