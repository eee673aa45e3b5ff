from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import pickle
import random
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import routelab.harness as harness

from routelab import ConfigurationError, simulate
from routelab.cli import main
from routelab.equilibrium import EquilibriumAnalyzer, encode_action
from routelab.harness import (
    BETA_SUMMARY_CSV_HEADER,
    CONVERGENCE_CSV_HEADER,
    EQUILIBRIA_CSV_HEADER,
    DEVIATIONS_CSV_HEADER,
    SUMMARY_CSV_HEADER,
    RunConfig,
    config_from_dict,
    convergence_svg,
    equilibrium_grid,
    load_config,
    regenerate_report,
    run_experiment,
    sweep_beta,
)
from routelab.episode import EPISODE_CSV_HEADER
from routelab.network import simulate_rosters
from routelab.rewards import RewardConfig
from routelab.scenarios import (
    DEFAULT_NOISE_SIGMA,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    two_route_yield_scenario,
)

from conftest import deviation_rows, make_scenario


def small_scenario():
    return make_scenario(
        [0.0, 4.0, 8.0, 12.0, 16.0, 20.0],
        av_flags=[False, True, False, True, False, True],
    )


def small_config(tmp_path, **overrides):
    defaults = dict(
        scenario=small_scenario(),
        learner={"algorithm": "q"},
        reward=RewardConfig(alpha=1.0, beta=10.0, scope="av-group"),
        warmup_days=30,
        train_episodes=40,
        eval_episodes=10,
        seeds=(0, 1),
        mode="deterministic",
        out_dir=tmp_path / "run",
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


# -- CLI simulate -------------------------------------------------------------


def write_default_scenario(tmp_path) -> Path:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_dict(two_route_yield_scenario())))
    return path


def test_cli_simulate_all_route0(tmp_path, capsys):
    scenario_path = write_default_scenario(tmp_path)
    code = main(["simulate", "--scenario", str(scenario_path), "--route", "0"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == ",".join(EPISODE_CSV_HEADER)
    assert len(lines) == 23
    assert all(line.split(",")[4] == "50.0" for line in lines[1:])


def test_cli_simulate_mixed_profile_matches_direct_call(tmp_path, capsys):
    scenario = two_route_yield_scenario()
    scenario_path = write_default_scenario(tmp_path)
    routes = [1 if i % 5 == 0 else 0 for i in range(22)]
    action = {a.id: routes[k] for k, a in enumerate(scenario.agents)}
    expected = simulate(scenario, action, seed=0)
    code = main(
        [
            "simulate",
            "--scenario",
            str(scenario_path),
            "--action",
            ",".join(str(r) for r in routes),
            "--seed",
            "0",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")[1:]
    for line in lines:
        cells = line.split(",")
        assert float(cells[4]) == expected[int(cells[1])]


def test_cli_simulate_stochastic_seeds_differ(tmp_path, capsys):
    scenario_path = write_default_scenario(tmp_path)
    outputs = []
    for seed in ("1", "2"):
        code = main(
            [
                "simulate",
                "--scenario",
                str(scenario_path),
                "--mode",
                "stochastic",
                "--seed",
                seed,
            ]
        )
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] != outputs[1]


def test_cli_simulate_writes_out_file(tmp_path, capsys):
    scenario_path = write_default_scenario(tmp_path)
    out_file = tmp_path / "one_day.csv"
    code = main(
        ["simulate", "--scenario", str(scenario_path), "--route", "0", "--out", str(out_file)]
    )
    assert code == 0
    assert out_file.read_text() == capsys.readouterr().out


def test_cli_bad_config_exits_nonzero(tmp_path, capsys):
    code = main(["simulate", "--scenario", str(tmp_path / "missing.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_simulate_rejects_noise_beyond_pre_merge_time(tmp_path, capsys):
    scenario_path = write_default_scenario(tmp_path)
    code = main(
        [
            "simulate",
            "--scenario",
            str(scenario_path),
            "--mode",
            "stochastic",
            "--noise-sigma",
            "100",
            "--route",
            "0",
        ]
    )
    assert code == 2
    assert "noise_sigma" in capsys.readouterr().err


def test_jobs_below_one_rejected(tmp_path):
    for jobs in (0, -1):
        with pytest.raises(ConfigurationError, match="jobs"):
            small_config(tmp_path, jobs=jobs)


def test_cli_rejects_unknown_run_config_key(tmp_path, capsys):
    doc = {"scenario": scenario_to_dict(small_scenario()), "train_epsiodes": 5}
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["train", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "train_epsiodes" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def small_train_doc(**overrides) -> dict:
    doc = {
        "scenario": scenario_to_dict(small_scenario()),
        "warmup_days": 3,
        "train_episodes": 2,
        "eval_episodes": 1,
        "seeds": [0],
    }
    return {**doc, **overrides}


def run_train_cli(tmp_path, doc: dict, *flags: str) -> int:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return main(["train", "--config", str(path), *flags, "--out", str(tmp_path / "out")])


def test_cli_rejects_learners_for_ids_that_are_not_avs(tmp_path, capsys):
    ucb = {"algorithm": "ucb"}
    doc = small_train_doc(learners={"99": ucb, "0": ucb, "1": ucb})  # only 1 is an AV
    assert run_train_cli(tmp_path, doc) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "learners [0, 99]" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "doc, flags",
    [(small_train_doc(), ("--seeds", "0,0")), (small_train_doc(seeds=[0, 0]), ())],
)
def test_cli_rejects_repeated_seeds(tmp_path, capsys, doc, flags):
    assert run_train_cli(tmp_path, doc, *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seeds [0]" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "doc, named",
    [
        ({"learner": {"algorithm": "dqn"}}, "unknown algorithm 'dqn'"),
        ({"learners": {"1": {"algorithm": "q", "epsilon": 0.1}}}, "unknown q learner key"),
        ({"learners": {"1": {"algorithm": "ucb", "c": "wide"}}}, "ucb learner c"),
    ],
)
def test_bad_learner_spec_fails_at_load(doc, named):
    with pytest.raises(ConfigurationError, match=named):
        config_from_dict({"scenario": scenario_to_dict(small_scenario()), **doc})


def test_cli_rejects_a_fixed_route_outside_the_action_space(tmp_path, capsys, monkeypatch):
    def no_warmup(*args):
        raise AssertionError("warm-up ran")

    monkeypatch.setattr(harness, "run_warmup", no_warmup)
    doc = small_train_doc(learner={"algorithm": "fixed", "route": 5})
    assert run_train_cli(tmp_path, doc) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "fixed route 5 is outside range(2)" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "learner, named",
    [
        ({"algorithm": "ucb", "c": -1.0}, "ucb c"),
        ({"algorithm": "ucb", "c": math.inf}, "ucb c"),
        ({"algorithm": "ucb", "c": math.nan}, "ucb c"),
        ({"algorithm": "q", "learning_rate": -1.0}, "q learning_rate"),
        ({"algorithm": "q", "learning_rate": 0.0}, "q learning_rate"),
        ({"algorithm": "q", "learning_rate": 1.5}, "q learning_rate"),
        ({"algorithm": "q", "learning_rate": math.nan}, "q learning_rate"),
        ({"algorithm": "q", "epsilon_start": 7.0}, "q epsilon_start"),
        ({"algorithm": "q", "epsilon_start": -0.1}, "q epsilon_start"),
        ({"algorithm": "q", "epsilon_end": 1.5}, "q epsilon_end"),
        ({"algorithm": "q", "epsilon_end": math.nan}, "q epsilon_end"),
        ({"algorithm": "pg", "learning_rate": 0.0}, "pg learning_rate"),
        ({"algorithm": "pg", "learning_rate": math.inf}, "pg learning_rate"),
        ({"algorithm": "pg", "temperature": -1.0}, "pg temperature"),
        ({"algorithm": "pg", "temperature": math.nan}, "pg temperature"),
        ({"algorithm": "pg", "temperature": math.inf}, "pg temperature"),
        ({"algorithm": "fixed", "route": -1}, "fixed route"),
    ],
)
def test_cli_rejects_learner_hyperparameters_out_of_range(tmp_path, capsys, learner, named):
    assert run_train_cli(tmp_path, small_train_doc(learners={"3": learner})) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def mistyped_network(**network) -> dict:
    doc = scenario_to_dict(small_scenario())
    doc["network"].update(network)
    return {"scenario": doc}


@pytest.mark.parametrize(
    "argv, named",
    [
        (["marginal", "--action", "1.5,0,0,0,0,0,0,0,0,0"], "--action"),
        (["equilibria", "--beta", "abc"], "--beta"),
        (["simulate", "--seeds", "1,x"], "--seeds"),
        ({"warmup_days": "x"}, "warmup_days"),
        ({"seeds": 5}, "seeds"),
        ({"reward": 5}, "reward"),
        ({"learners": [1]}, "learners"),
        ({"reward": {"beta": "big"}}, "reward beta"),
        ({"learner": {"algorithm": "ucb", "c": "wide"}}, "ucb learner c"),
        (mistyped_network(merge_gap_g="wide"), "merge_gap_g"),
        ({"train_episodes": 3.9}, "train_episodes"),
        ({"seeds": [0.5]}, "seeds"),
        ({"jobs": True}, "jobs"),
        ({"reward": {"beta": True}}, "reward beta"),
        (mistyped_network(merge_gap_g=True), "merge_gap_g"),
        ({"seeds": "01"}, "seeds"),
        ({"train_episodes": "7"}, "train_episodes"),
        ({"reward": {"beta": "2.5"}}, "reward beta"),
        ({"noise_sigma": "2"}, "noise_sigma"),
        ({"out_dir": 5}, "out_dir"),
        ({"mode": 5}, "run config mode: cannot read 5 as str"),
        ({"reward": {"scope": 5}}, "reward scope: cannot read 5 as str"),
    ],
)
def test_cli_mistyped_value_is_a_configuration_error(tmp_path, capsys, argv, named):
    if isinstance(argv, dict):  # a run config with one mistyped value
        doc = {
            "scenario": scenario_to_dict(small_scenario()),
            "warmup_days": 3,
            "train_episodes": 2,
            "eval_episodes": 1,
            "seeds": [0],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**doc, **argv}), encoding="utf-8")
        argv = ["train", "--config", str(path)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err


def mistyped_route(has_priority) -> dict:
    doc = scenario_to_dict(small_scenario())
    doc["network"]["routes"][1]["has_priority"] = has_priority
    return {"scenario": doc}


@pytest.mark.parametrize(
    "overrides, named",
    [
        ({"reward": {"raw_sum": "false"}}, "reward raw_sum"),
        ({"reward": {"raw_sum": "true"}}, "reward raw_sum"),
        ({"reward": {"raw_sum": 0}}, "reward raw_sum"),
        ({"reward": {"raw_sum": None}}, "reward raw_sum"),
        (mistyped_route("false"), "has_priority"),
        (mistyped_route(1), "has_priority"),
    ],
)
def test_cli_boolean_other_than_json_true_or_false_is_a_configuration_error(
    tmp_path, capsys, overrides, named
):
    doc = {
        "scenario": scenario_to_dict(small_scenario()),
        "warmup_days": 3,
        "train_episodes": 2,
        "eval_episodes": 1,
        "seeds": [0],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**doc, **overrides}), encoding="utf-8")
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_json_booleans_are_read_as_given():
    for flag in (False, True):
        doc = scenario_to_dict(small_scenario())
        for route, priority in zip(doc["network"]["routes"], (not flag, flag)):
            route["has_priority"] = priority
        config = config_from_dict({"scenario": doc, "reward": {"raw_sum": flag}})
        assert config.reward.raw_sum is flag
        assert [r.has_priority for r in config.scenario.network.routes] == [not flag, flag]


def test_cli_algorithm_override_drops_other_hyperparameters(tmp_path):
    doc = {
        "scenario": scenario_to_dict(small_scenario()),
        "learner": {"algorithm": "ucb", "c": 9.0},
        "warmup_days": 3,
        "train_episodes": 2,
        "eval_episodes": 1,
        "seeds": [0],
        "mode": "deterministic",
    }
    path = tmp_path / "ucb.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["train", "--config", str(path), "--algorithm", "q", "--out", str(out)]) == 0
    assert json.loads((out / "config.json").read_text())["learner"] == {"algorithm": "q"}


def test_unknown_reward_key_rejected():
    with pytest.raises(ConfigurationError, match="unknown reward key.*'betta'"):
        config_from_dict({"reward": {"alpha": 1.0, "betta": 200.0}})


def test_optimal_actions_take_first_tied_optimum():
    from routelab.harness import _optimal_actions

    # Three AVs 1 s apart, the priority route 2 s shorter: three joint
    # actions tie for the least total time.
    scenario = make_scenario([0.0, 1.0, 2.0], pre_merge=(42.0, 40.0))
    optima, _ = EquilibriumAnalyzer(scenario, {}).system_optimum()
    assert optima == [(1, 0, 1), (1, 1, 0), (1, 1, 1)]
    assert _optimal_actions(scenario, {}) == {0: 1, 1: 0, 2: 1}


def test_cli_action_wrong_length(tmp_path, capsys):
    scenario_path = write_default_scenario(tmp_path)
    code = main(["simulate", "--scenario", str(scenario_path), "--action", "0,1"])
    assert code == 2


# -- train pipeline artifacts ---------------------------------------------------


@pytest.fixture(scope="module")
def train_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("train")
    config = small_config(tmp_path)
    result = run_experiment(config)
    return config, result


def test_train_writes_expected_files(train_run):
    config, _ = train_run
    out = config.out_dir
    for name in (
        "config.json",
        "run_meta.json",
        "episodes.csv",
        "summary.csv",
        "convergence.csv",
        "convergence.svg",
        "seed_0/episodes.csv",
        "seed_1/episodes.csv",
    ):
        assert (out / name).exists(), name


def test_episode_csv_schema_and_row_count(train_run):
    config, _ = train_run
    rows = read_csv(config.out_dir / "episodes.csv")
    assert tuple(rows[0]) == EPISODE_CSV_HEADER
    episodes = config.warmup_days + config.train_episodes + config.eval_episodes
    assert len(rows) == 1 + len(config.seeds) * episodes * 6


def test_combined_episodes_csv_concatenates_seed_files(train_run):
    config, _ = train_run
    out = config.out_dir
    per_seed = [(out / f"seed_{s}" / "episodes.csv").read_bytes() for s in config.seeds]
    header = per_seed[0].split(b"\r\n", 1)[0] + b"\r\n"
    assert all(text.startswith(header) for text in per_seed)
    combined = header + b"".join(text[len(header) :] for text in per_seed)
    assert (out / "episodes.csv").read_bytes() == combined


def test_summary_csv_schema(train_run):
    config, _ = train_run
    rows = read_csv(config.out_dir / "summary.csv")
    assert tuple(rows[0]) == SUMMARY_CSV_HEADER
    assert [row[0] for row in rows[1:]] == ["avs", "humans"]


def test_convergence_csv_schema(train_run):
    config, _ = train_run
    rows = read_csv(config.out_dir / "convergence.csv")
    assert tuple(rows[0]) == CONVERGENCE_CSV_HEADER
    assert {row[2] for row in rows[1:]} == {"train", "eval"}


def test_summary_matches_recomputation_from_episodes(train_run):
    config, result = train_run
    rows = read_csv(config.out_dir / "summary.csv")
    eval_start = config.warmup_days + config.train_episodes
    pooled = {"av": [], "human": []}
    for row in csv.DictReader(open(config.out_dir / "episodes.csv", encoding="utf-8")):
        if int(row["episode"]) >= eval_start:
            pooled[row["kind"]].append(float(row["travel_time"]))
    import numpy as np

    for row in rows[1:]:
        values = pooled["av" if row[0] == "avs" else "human"]
        assert abs(float(row[1]) - float(np.mean(values))) <= 1e-9
        assert abs(float(row[2]) - float(np.std(values))) <= 1e-9


def test_deterministic_rerun_is_byte_identical(tmp_path):
    config_a = small_config(tmp_path, out_dir=tmp_path / "a", seeds=(3,))
    config_b = small_config(tmp_path, out_dir=tmp_path / "b", seeds=(3,))
    run_experiment(config_a)
    run_experiment(config_b)
    for name in ("episodes.csv", "summary.csv", "convergence.csv", "convergence.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_report_regenerates_identical_summary(train_run, tmp_path):
    config, _ = train_run
    out = config.out_dir
    summary_before = (out / "summary.csv").read_bytes()
    convergence_before = (out / "convergence.csv").read_bytes()
    (out / "summary.csv").unlink()
    regenerate_report(out)
    assert (out / "summary.csv").read_bytes() == summary_before
    assert (out / "convergence.csv").read_bytes() == convergence_before


def test_cli_report_command(train_run):
    config, _ = train_run
    assert main(["report", "--out", str(config.out_dir)]) == 0


def test_report_regenerates_stochastic_run(tmp_path):
    # per-episode seeds vary within each block here, so reconstruction must
    # not lean on the seed column
    config = small_config(
        tmp_path, out_dir=tmp_path / "stoch", mode="stochastic", seeds=(2, 5)
    )
    run_experiment(config)
    out = config.out_dir
    summary_before = (out / "summary.csv").read_bytes()
    convergence_before = (out / "convergence.csv").read_bytes()
    (out / "summary.csv").unlink()
    (out / "convergence.csv").unlink()
    regenerate_report(out)
    assert (out / "summary.csv").read_bytes() == summary_before
    assert (out / "convergence.csv").read_bytes() == convergence_before


@pytest.mark.parametrize("edit", ["truncate", "pad"])
def test_report_rejects_episodes_that_miss_the_phases(tmp_path, capsys, edit):
    config = small_config(tmp_path, seeds=(0, 1))
    run_experiment(config)
    out = config.out_dir
    path = out / "episodes.csv"
    lines = path.read_bytes().splitlines(keepends=True)
    # Dropping the last row leaves seed 1's final day short; repeating it
    # leaves a row that no day of the phases accounts for.
    edited = lines[:-1] if edit == "truncate" else lines + lines[-1:]
    path.write_bytes(b"".join(edited))
    convergence_before = (out / "convergence.csv").read_bytes()
    with pytest.raises(ConfigurationError, match="episodes.csv"):
        regenerate_report(out)
    assert main(["report", "--out", str(out)]) == 2
    assert "episodes.csv" in capsys.readouterr().err
    assert (out / "convergence.csv").read_bytes() == convergence_before


def test_report_rejects_a_seed_block_missing_a_day(tmp_path):
    # Same row count as a complete file, but seed 0's block lacks its last
    # day and seed 1's block holds one day twice.
    config = small_config(tmp_path, seeds=(0, 1))
    run_experiment(config)
    path = config.out_dir / "episodes.csv"
    header, *rows = path.read_bytes().splitlines(keepends=True)
    agents = len(config.scenario.agents)
    half = len(rows) // 2
    rows = rows[: half - agents] + rows[half:] + rows[-agents:]
    path.write_bytes(header + b"".join(rows))
    with pytest.raises(ConfigurationError, match="seed 0"):
        regenerate_report(config.out_dir)


def test_cli_rejects_unknown_scenario_key(tmp_path, capsys):
    doc = scenario_to_dict(two_route_yield_scenario())
    doc["noise_sigam"] = 2.0
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["simulate", "--scenario", str(path), "--route", "0"])
    assert code == 2
    assert "noise_sigam" in capsys.readouterr().err


@pytest.mark.parametrize(
    "where, key",
    [("network", "merge_gap"), ("route", "priority"), ("agent", "departure")],
)
def test_unknown_nested_scenario_keys_rejected(where, key):
    doc = scenario_to_dict(two_route_yield_scenario())
    target = {
        "network": doc["network"],
        "route": doc["network"]["routes"][1],
        "agent": doc["agents"][3],
    }[where]
    target[key] = 1.0
    with pytest.raises(ConfigurationError, match=key):
        scenario_from_dict(doc)


def artifacts(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` but config.json, which names the output directory."""
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != "config.json"
    }


def count_forks(monkeypatch) -> list:
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_jobs_parallel_matches_serial(tmp_path, monkeypatch):
    # Three seeds in two shares, (0, 2) here and (1,) in the child, come back in seed order.
    forks = count_forks(monkeypatch)
    seeds = (0, 1, 2)
    run_experiment(small_config(tmp_path, out_dir=tmp_path / "serial", seeds=seeds, jobs=1))
    assert forks == []
    run_experiment(small_config(tmp_path, out_dir=tmp_path / "parallel", seeds=seeds, jobs=2))
    assert len(forks) == 1
    serial = artifacts(tmp_path / "serial")
    assert "seed_2/episodes.csv" in serial and "convergence.svg" in serial
    assert artifacts(tmp_path / "parallel") == serial
    assert_no_child_left()


def test_jobs_beyond_the_seed_count_fork_one_child(tmp_path, monkeypatch):
    forks = count_forks(monkeypatch)
    run_experiment(small_config(tmp_path, out_dir=tmp_path / "serial", jobs=1))
    run_experiment(small_config(tmp_path, out_dir=tmp_path / "parallel", jobs=4))
    assert len(forks) == 1
    assert artifacts(tmp_path / "parallel") == artifacts(tmp_path / "serial")
    assert_no_child_left()


def test_sweep_beta_parallel_matches_serial(tmp_path):
    sweep_beta(small_config(tmp_path, out_dir=tmp_path / "serial", jobs=1), [0.0, 10.0])
    sweep_beta(small_config(tmp_path, out_dir=tmp_path / "parallel", jobs=2), [0.0, 10.0])
    serial = artifacts(tmp_path / "serial")
    assert "beta_10/seed_1/episodes.csv" in serial and "beta_summary.csv" in serial
    assert artifacts(tmp_path / "parallel") == serial
    assert_no_child_left()


def test_importing_the_harness_loads_no_pool_module():
    root = Path(__file__).resolve().parent.parent
    probe = (
        "import sys; import routelab.harness; "
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-B", "-c", probe],
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def tiny_config(tmp_path, **overrides):
    phases = dict(warmup_days=3, train_episodes=2, eval_episodes=1, jobs=2)
    return small_config(tmp_path, **{**phases, **overrides})


def fail_on_seed(monkeypatch, failing_seed, fail):
    run_seed = harness.run_seed

    def patched(config, scenario, seed):
        if seed == failing_seed:
            fail()
        return run_seed(config, scenario, seed)

    monkeypatch.setattr(harness, "run_seed", patched)


RUN_FILES = (
    "config.json",
    "run_meta.json",
    "episodes.csv",
    "summary.csv",
    "convergence.csv",
    "convergence.svg",
)


def assert_no_run_files(out: Path) -> None:
    """A failed run writes none of its run-level files; a finished seed may leave its own."""
    assert [name for name in RUN_FILES if (out / name).exists()] == []


def test_a_child_exception_is_raised_again_with_its_type_and_message(tmp_path, monkeypatch):
    def fail():
        raise ConfigurationError("seed 1 cannot run")

    fail_on_seed(monkeypatch, 1, fail)
    for jobs in (1, 2):
        config = tiny_config(tmp_path, out_dir=tmp_path / f"jobs_{jobs}", jobs=jobs)
        with pytest.raises(ConfigurationError, match="^seed 1 cannot run$"):
            run_experiment(config)
        assert_no_child_left()
        assert_no_run_files(config.out_dir)
        # Seed 0 ran first (jobs 1) or in the calling process's share (jobs 2).
        assert (config.out_dir / "seed_0" / "episodes.csv").is_file()
        cli_dir = tmp_path / f"cli_{jobs}"
        cli_dir.mkdir()
        assert run_train_cli(cli_dir, small_train_doc(seeds=[0, 1]), "--jobs", str(jobs)) == 2
        assert_no_child_left()
        assert_no_run_files(cli_dir / "out")


def test_a_child_that_exits_without_a_result_is_named(tmp_path, monkeypatch):
    fail_on_seed(monkeypatch, 1, lambda: os._exit(3))
    with pytest.raises(RuntimeError, match=r"worker for \[1\] exited with status 3"):
        run_experiment(tiny_config(tmp_path))
    assert_no_child_left()
    assert_no_run_files(tmp_path / "run")


def test_each_share_formats_only_its_own_seeds(tmp_path, monkeypatch):
    # The child's calls append to its own copy of the list, never to this one.
    formatted = []
    blocks = harness.episode_csv_blocks

    def spy(logs, scenario, end):
        formatted.append({log.seed for log in logs})
        return blocks(logs, scenario, end)

    monkeypatch.setattr(harness, "episode_csv_blocks", spy)
    seeds = (0, 1, 2)
    run_experiment(small_config(tmp_path, out_dir=tmp_path / "parallel", seeds=seeds, jobs=2))
    assert formatted == [{0}, {2}]
    assert_no_child_left()
    formatted.clear()
    run_experiment(small_config(tmp_path, out_dir=tmp_path / "serial", seeds=seeds, jobs=1))
    assert formatted == [{0}, {1}, {2}]
    assert artifacts(tmp_path / "parallel") == artifacts(tmp_path / "serial")


def test_a_failing_parent_share_kills_its_children(tmp_path, monkeypatch):
    run_seed = harness.run_seed

    def patched(config, scenario, seed):
        if seed == 0:
            raise ConfigurationError("seed 0 cannot run")
        time.sleep(60)  # the child would outlive the test if it were waited for
        return run_seed(config, scenario, seed)

    monkeypatch.setattr(harness, "run_seed", patched)
    start = time.monotonic()
    with pytest.raises(ConfigurationError, match="seed 0 cannot run"):
        run_experiment(tiny_config(tmp_path))
    assert time.monotonic() - start < 30
    assert_no_child_left()


class Unpicklable(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.callback = lambda: None


class Unrebuildable(Exception):
    def __init__(self, message, code):
        super().__init__(message)


@pytest.mark.parametrize(
    "exc",
    [Unpicklable("no pickle"), Unrebuildable("no rebuild", 7)],
    ids=lambda exc: type(exc).__name__,
)
def test_an_exception_that_cannot_travel_comes_back_as_its_repr(exc):
    def fn(item):
        if item == 1:
            raise exc
        return item

    with pytest.raises(RuntimeError) as caught:
        harness.fork_map(fn, [0, 1], 2)
    assert str(caught.value) == repr(exc)
    assert_no_child_left()


def test_a_child_never_returns_into_the_caller(monkeypatch):
    # A child that cannot even pickle its error still exits, from its finally.
    parent = os.getpid()

    def dumps(_):
        raise pickle.PicklingError("no pickling here")

    monkeypatch.setattr(harness, "pickle", SimpleNamespace(dumps=dumps, loads=pickle.loads))
    with pytest.raises(RuntimeError, match=r"worker for \[1\] exited with status 1"):
        harness.fork_map(lambda item: item, [0, 1], 2)
    assert os.getpid() == parent
    assert_no_child_left()


def test_fork_map_deals_interleaved_shares_and_keeps_input_order():
    items = list(range(7))
    assert harness.fork_map(lambda item: item * item, items, 3) == [i * i for i in items]
    pids = harness.fork_map(lambda item: os.getpid(), items, 3)
    # The caller runs items 0, 3 and 6; each child runs one other share.
    assert set(pids[0::3]) == {os.getpid()}
    assert len(set(pids[1::3])) == len(set(pids[2::3])) == 1
    assert len(set(pids)) == 3
    assert_no_child_left()


def test_jobs_above_one_need_fork(tmp_path, monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert small_config(tmp_path, jobs=1).jobs == 1
    with pytest.raises(ConfigurationError, match="os.fork"):
        small_config(tmp_path, jobs=2)
    assert run_train_cli(tmp_path, small_train_doc(seeds=[0, 1]), "--jobs", "2") == 2


# -- sweep-beta -----------------------------------------------------------------


def test_sweep_beta_artifacts_and_selfish_baseline(tmp_path):
    config = small_config(tmp_path, out_dir=tmp_path / "sweep")
    results = sweep_beta(config, [0.0, 10.0])
    assert set(results) == {0.0, 10.0}
    rows = read_csv(tmp_path / "sweep" / "beta_summary.csv")
    assert tuple(rows[0]) == BETA_SUMMARY_CSV_HEADER
    assert len(rows) == 3
    assert (tmp_path / "sweep" / "convergence_overlay.svg").exists()

    # the beta = 0 entry reproduces a selfish train run exactly
    selfish = small_config(
        tmp_path,
        out_dir=tmp_path / "selfish",
        reward=RewardConfig(alpha=1.0, beta=0.0, scope="av-group"),
    )
    run_experiment(selfish)
    assert (tmp_path / "sweep" / "beta_0" / "episodes.csv").read_bytes() == (
        tmp_path / "selfish" / "episodes.csv"
    ).read_bytes()


def test_sweep_beta_scores_each_logged_day_once(tmp_path, monkeypatch):
    # 2 seeds x 2 betas x 110 days: 440 calls, one per logged day. Each
    # SeedRun's proportions used to be rebuilt four times per sweep point.
    calls = []
    score = harness.proportion_optimal
    monkeypatch.setattr(
        harness, "proportion_optimal", lambda *args: calls.append(1) or score(*args)
    )
    config = small_config(tmp_path, train_episodes=100, eval_episodes=10, out_dir=tmp_path / "s")
    sweep_beta(config, [0.0, 10.0])
    assert len(calls) == 440
    # The sweep's own artifacts are byte for byte those of the four-fold code.
    assert {
        name: hashlib.sha256((tmp_path / "s" / name).read_bytes()).hexdigest()
        for name in ("beta_summary.csv", "convergence_overlay.svg")
    } == {
        "beta_summary.csv": "87bd99ce8b50532472a3dc7a27a5dcac141567ed2e796d4b4503127b86e5bc14",
        "convergence_overlay.svg": (
            "05ef8cfcbb483408032ed35a945769b66b09009aea017f6b0fb5fe7d6865a907"
        ),
    }


def test_sweep_beta_pools_eval_times_once_per_point(tmp_path, monkeypatch):
    # Each point's pooled eval times feed both its summary.csv and its
    # beta_summary.csv row; they used to be pooled once for each.
    calls = []
    pool = harness.ExperimentResult.eval_times_by_kind.func
    monkeypatch.setattr(
        harness.ExperimentResult.eval_times_by_kind,
        "func",
        lambda result: calls.append(1) or pool(result),
    )
    sweep_beta(small_config(tmp_path, out_dir=tmp_path / "serial"), [0.0, 10.0])
    assert len(calls) == 2
    # At jobs 2 the second point pools in the child, and its result brings the times back.
    calls.clear()
    sweep_beta(small_config(tmp_path, out_dir=tmp_path / "parallel", jobs=2), [0.0, 10.0])
    assert len(calls) == 1


def test_sweep_beta_rejects_empty_list(tmp_path):
    config = small_config(tmp_path)
    with pytest.raises(Exception):
        sweep_beta(config, [])


def test_cli_sweep_requires_beta(tmp_path):
    scenario_path = write_default_scenario(tmp_path)
    code = main(
        ["sweep-beta", "--scenario", str(scenario_path), "--beta", "", "--out", str(tmp_path / "s")]
    )
    assert code == 2


@pytest.mark.parametrize("betas", ["0.1234567,0.1234568", "1,1.0"])
def test_cli_sweep_rejects_betas_that_share_a_directory(tmp_path, capsys, betas):
    scenario_path = write_default_scenario(tmp_path)
    out = tmp_path / "s"
    argv = ["sweep-beta", "--scenario", str(scenario_path), "--beta", betas, "--jobs", "2"]
    small = ["--warmup-days", "3", "--episodes", "2", "--eval-episodes", "1", "--seeds", "0"]
    assert main([*argv, *small, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "share an output directory" in err
    assert not out.exists()


IGNORED_FLAG_VALUES = {
    "--mode": "stochastic",
    "--noise-sigma": "1",
    "--warmup-days": "5",
    "--jobs": "2",
    "--episodes": "5",
    "--eval-episodes": "5",
    "--algorithm": "q",
}
TRAINING_FLAGS = ("--jobs", "--episodes", "--eval-episodes", "--algorithm")


@pytest.mark.parametrize(
    "argv, flag",
    [(["simulate"], flag) for flag in ("--warmup-days", *TRAINING_FLAGS)]
    + [
        (argv, flag)
        for argv in (["equilibria"], ["marginal", "--action", "0"])
        for flag in ("--mode", "--noise-sigma", *TRAINING_FLAGS)
    ],
)
def test_cli_rejects_flags_the_subcommand_would_ignore(capsys, argv, flag):
    with pytest.raises(SystemExit) as exited:
        main([*argv, flag, IGNORED_FLAG_VALUES[flag]])
    assert exited.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["train"], ["sweep-beta", "--beta", "0,1", "--jobs", "2"]])
def test_cli_rejects_a_scenario_without_avs(tmp_path, capsys, command):
    doc = {
        "scenario": scenario_to_dict(two_route_yield_scenario(av_ids=())),
        "warmup_days": 5,
        "train_episodes": 5,
        "eval_episodes": 2,
        "seeds": [0],
    }
    path = tmp_path / "no_avs.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main([*command, "--config", str(path), "--out", str(out)]) == 2
    assert "at least one AV" in capsys.readouterr().err
    assert not list(tmp_path.rglob("episodes.csv"))


# -- equilibria command -----------------------------------------------------------


def test_cli_equilibria_grid(tmp_path, capsys):
    scenario = small_scenario()
    scenario_path = tmp_path / "small.json"
    scenario_path.write_text(json.dumps(scenario_to_dict(scenario)))
    out = tmp_path / "eq"
    code = main(
        [
            "equilibria",
            "--scenario",
            str(scenario_path),
            "--alpha",
            "1,0",
            "--beta",
            "0,10",
            "--scope",
            "av-group",
            "--warmup-days",
            "30",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out / "equilibria.csv")
    assert tuple(rows[0]) == EQUILIBRIA_CSV_HEADER
    by_point = {(row[0], row[1]): row for row in rows[1:]}
    assert by_point[("1.0", "0.0")][3] == "1"
    assert by_point[("1.0", "0.0")][4] == "000"
    assert by_point[("0.0", "0.0")][3] == "8"  # constant game: everything ties
    dev_rows = read_csv(out / "deviations.csv")
    assert tuple(dev_rows[0]) == DEVIATIONS_CSV_HEADER
    assert len(dev_rows) == 1 + 8 * 3
    assert (out / "equilibria.svg").exists()


def test_equilibria_grid_simulates_each_profile_once(tmp_path, monkeypatch):
    # The selfish point comes first, yet the shaped fill must serve it. Each
    # roster is a (routes, present) row handed to the batched kernel.
    import routelab.equilibrium as equilibrium

    rosters, analyzers = [], []

    def counting(scenario, routes, present):
        rosters.extend(zip(map(tuple, routes.tolist()), map(tuple, present.tolist())))
        return simulate_rosters(scenario, routes, present)

    enumerate_nash = EquilibriumAnalyzer.enumerate_nash

    def spy(analyzer, *args):
        analyzers.append(analyzer)
        return enumerate_nash(analyzer, *args)

    monkeypatch.setattr(equilibrium, "simulate_rosters", counting)
    monkeypatch.setattr(EquilibriumAnalyzer, "enumerate_nash", spy)
    config = small_config(tmp_path, out_dir=tmp_path / "eq")
    results = equilibrium_grid(config, [1.0], [0.0, 10.0], "system")
    assert [r.beta for r in results] == [0.0, 10.0]
    full = [routes for routes, present in rosters if all(present)]
    assert len(full) == len(set(full)) == 8  # every profile of 3 binary AVs
    assert len(rosters) == len(set(rosters)) == 8 + 3 * 4  # one AV absent, on its first route
    assert analyzers[0].simulations_run == len(rosters)


@pytest.mark.parametrize("scope", ["av-group", "system"])
def test_deviations_csv_is_the_records_one_at_a_time(tmp_path, monkeypatch, scope):
    records = []
    deviation_records = EquilibriumAnalyzer.deviation_records

    def spy(analyzer, config):
        table = deviation_records(analyzer, config)
        records.extend(deviation_rows(analyzer, table))
        return table

    monkeypatch.setattr(EquilibriumAnalyzer, "deviation_records", spy)
    scenario = make_scenario(
        [0.0, 1.0, 2.0, 3.0, 4.0, 200.0],
        av_flags=[False, True, True, False, True, True],
        pre_merge=(40.0, 42.0),
    )
    config = small_config(tmp_path, scenario=scenario, out_dir=tmp_path / "eq")
    equilibrium_grid(config, [1.0], [0.0, 1.0], scope)
    thresholds = [r.beta_threshold for r in records]
    assert None in thresholds and math.inf in thresholds  # indifferent and inf rows
    expected = ",".join(DEVIATIONS_CSV_HEADER) + "\r\n"
    for r in records:
        threshold = "indifferent" if r.beta_threshold is None else repr(r.beta_threshold)
        expected += (
            f"{encode_action(r.action)},{r.av_id},{r.delta_seconds!r},"
            f"{r.delta_score!r},{threshold}\r\n"
        )
    with open(tmp_path / "eq" / "deviations.csv", newline="", encoding="utf-8") as handle:
        assert handle.read() == expected


def test_deviations_csv_codes_are_dashed_where_a_route_has_two_digits(tmp_path):
    from routelab import AgentSpec, NetworkConfig, RouteSpec, Scenario

    network = NetworkConfig(
        routes=tuple(RouteSpec(40.0 + k, has_priority=k != 0) for k in range(11)),
        merge_gap_g=2.0,
        yield_window_w=6.0,
        post_merge_time=10.0,
    )
    agents = tuple(
        AgentSpec(i, "av" if i % 2 else "human", 2.0 * i, (0, 10) if i % 2 else (0, 1))
        for i in range(6)
    )
    scenario = Scenario(agents=agents, network=network)
    config = small_config(tmp_path, scenario=scenario, out_dir=tmp_path / "eq")
    equilibrium_grid(config, [1.0], [0.0, 1.0], "av-group")
    codes = [row[0] for row in read_csv(tmp_path / "eq" / "deviations.csv")[1:]]
    analyzer = EquilibriumAnalyzer(scenario, dict.fromkeys(scenario.human_ids, 0))
    assert codes == [encode_action(a) for a in analyzer.profiles() for _ in analyzer.av_ids]
    assert codes[:3] == ["000"] * 3  # every AV on route 0: one digit each, no dashes
    assert all(("-" in code) == ("10" in code) for code in codes)
    assert "0-10-0" in codes


@pytest.mark.parametrize("n_seeds", range(1, 13))
def test_convergence_svg_means_are_per_episode_np_mean(monkeypatch, n_seeds):
    # numpy sums 8 or more values pairwise, so the seed counts straddle it.
    rng = random.Random(n_seeds)
    episodes = range(5, 12)
    proportions = [
        [(e, "train" if e < 10 else "eval", rng.random()) for e in episodes]
        for _ in range(n_seeds)
    ]
    plotted = []
    monkeypatch.setattr(harness, "line_plot", lambda series, **_: plotted.append(series) or "")
    convergence_svg(proportions)
    (series,) = plotted
    mean = series[-1]
    assert mean.xs == [float(e) for e in episodes]
    assert mean.ys == [
        float(np.mean([points[k][2] for points in proportions])) for k in range(len(episodes))
    ]


# -- marginal command --------------------------------------------------------------


def test_cli_marginal_single_av(tmp_path, capsys):
    scenario = make_scenario([0.0, 4.0], av_flags=[False, True])
    scenario_path = tmp_path / "one_av.json"
    scenario_path.write_text(json.dumps(scenario_to_dict(scenario)))
    code = main(
        [
            "marginal",
            "--scenario",
            str(scenario_path),
            "--action",
            "0",
            "--warmup-days",
            "10",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "id,1"
    assert lines[1] == "1,0.0"


def test_cli_marginal_accepts_bracketed_action(tmp_path, capsys):
    scenario_path = write_default_scenario(tmp_path)
    out_file = tmp_path / "matrix.csv"
    code = main(
        [
            "marginal",
            "--scenario",
            str(scenario_path),
            "--action",
            "[1, 0, 1, 0, 0, 0, 1, 0, 1, 1]",
            "--warmup-days",
            "50",
            "--out",
            str(out_file),
        ]
    )
    assert code == 0
    text = out_file.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "id," + ",".join(str(i) for i in range(1, 20, 2))
    assert len(lines) == 11



@pytest.mark.parametrize(
    "command",
    [
        ["marginal", "--action", "0,1"],
        ["equilibria", "--beta", "0,1"],
        ["train", "--episodes", "4", "--eval-episodes", "2", "--seed", "0"],
    ],
    ids=lambda command: command[0],
)
def test_cli_warns_once_outside_the_monotone_regime(tmp_path, capsys, command):
    shapes = {"monotone": 6.0, "window-below-gap": 1.0}
    for label, window in shapes.items():
        scenario = make_scenario([0.0, 4.0, 8.0], av_flags=[True, False, True], window=window)
        assert scenario.monotone == (label == "monotone")
        scenario_path = tmp_path / f"{label}.json"
        scenario_path.write_text(json.dumps(scenario_to_dict(scenario)))
        out = tmp_path / label / "out"
        code = main(
            command
            + ["--scenario", str(scenario_path), "--warmup-days", "5", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        warnings = capsys.readouterr().err.count("warning:")
        assert warnings == (0 if scenario.monotone else 1)


# -- config loading ------------------------------------------------------------------


def test_config_from_dict_roundtrip(tmp_path):
    doc = {
        "scenario": scenario_to_dict(small_scenario()),
        "learner": {"algorithm": "ucb", "c": 9.0},
        "learners": {"1": {"algorithm": "fixed", "route": 0}},
        "reward": {"alpha": 1.0, "beta": 200.0, "scope": "system"},
        "warmup_days": 12,
        "train_episodes": 34,
        "eval_episodes": 5,
        "seeds": [7],
        "mode": "stochastic",
        "noise_sigma": 3.0,
        "out_dir": str(tmp_path / "x"),
        "jobs": 2,
    }
    config = config_from_dict(doc)
    assert config.reward.beta == 200.0
    assert config.learners_by_id[1]["algorithm"] == "fixed"
    assert config.effective_scenario().noise_sigma == 3.0
    specs = config.learner_specs()
    assert specs[1]["algorithm"] == "fixed"
    assert specs[3]["algorithm"] == "ucb"
    back = config.to_dict()
    assert back["reward"]["scope"] == "system"


def test_empty_document_is_the_default_config():
    assert config_from_dict({}) == RunConfig()


def test_to_dict_round_trips(tmp_path):
    every_key_set = RunConfig(
        scenario=small_scenario(),
        learner={"algorithm": "pg", "temperature": 2.0},
        learners_by_id={3: {"algorithm": "fixed", "route": 1}},
        reward=RewardConfig(alpha=2.0, beta=0.5, scope="system", tanh_scale=3.0, raw_sum=True),
        warmup_days=4,
        train_episodes=5,
        eval_episodes=6,
        seeds=(9, 2),
        mode="stochastic",
        noise_sigma=1.5,
        out_dir=tmp_path / "x",
        jobs=2,
    )
    for config in (RunConfig(), every_key_set):
        doc = json.loads(json.dumps(config.to_dict()))
        assert config_from_dict(doc) == config


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# The shipped scenario is the built-in world carrying the stochastic mode's default jitter.
SHIPPED_WORLD = two_route_yield_scenario(noise_sigma=DEFAULT_NOISE_SIGMA)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("train_*.json")), ids=lambda p: p.name)
def test_shipped_run_configs_load_and_round_trip(path):
    config = load_config(path)
    assert config.scenario == SHIPPED_WORLD
    assert config_from_dict(json.loads(json.dumps(config.to_dict()))) == config


def test_shipped_scenario_is_the_built_in_world():
    assert load_scenario(CONFIGS / "two_route_yield.json") == SHIPPED_WORLD
