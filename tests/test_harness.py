from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from routelab import ConfigurationError, simulate
from routelab.cli import main
from routelab.equilibrium import EquilibriumAnalyzer
from routelab.harness import (
    BETA_SUMMARY_CSV_HEADER,
    CONVERGENCE_CSV_HEADER,
    EQUILIBRIA_CSV_HEADER,
    DEVIATIONS_CSV_HEADER,
    SUMMARY_CSV_HEADER,
    RunConfig,
    config_from_dict,
    equilibrium_grid,
    regenerate_report,
    run_experiment,
    sweep_beta,
)
from routelab.episode import EPISODE_CSV_HEADER
from routelab.network import simulate_slots
from routelab.rewards import RewardConfig
from routelab.scenarios import (
    scenario_from_dict,
    scenario_to_dict,
    two_route_yield_scenario,
)

from conftest import make_scenario


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
    optima, _ = EquilibriumAnalyzer(scenario, {}).system_optimum("system")
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


def test_jobs_parallel_matches_serial(tmp_path):
    serial = small_config(tmp_path, out_dir=tmp_path / "serial", jobs=1)
    parallel = small_config(tmp_path, out_dir=tmp_path / "parallel", jobs=2)
    run_experiment(serial)
    run_experiment(parallel)
    assert (tmp_path / "serial" / "episodes.csv").read_bytes() == (
        tmp_path / "parallel" / "episodes.csv"
    ).read_bytes()


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
    # The selfish point comes first, yet the shaped fill must serve it.
    import routelab.equilibrium as equilibrium

    calls = []

    def counting(*args):
        calls.append(args[1])
        return simulate_slots(*args)

    monkeypatch.setattr(equilibrium, "simulate_slots", counting)
    config = small_config(tmp_path, out_dir=tmp_path / "eq")
    results = equilibrium_grid(config, [1.0], [0.0, 10.0], "system")
    assert [r["beta"] for r in results] == [0.0, 10.0]
    assert len(calls) == len(set(calls)) == 8


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
    specs = config.learner_specs(config.scenario)
    assert specs[1]["algorithm"] == "fixed"
    assert specs[3]["algorithm"] == "ucb"
    back = config.to_dict()
    assert back["reward"]["scope"] == "system"
