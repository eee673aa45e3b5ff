"""Command-line entry point.

Subcommands:

    simulate    one episode with constant route choices, CSV to stdout
    train       warm-up -> freeze -> train -> evaluate, artifacts to --out
    sweep-beta  repeat train for several shaping coefficients
    equilibria  exhaustive Nash enumeration over an (alpha, beta) grid
    marginal    marginal-cost matrix for one AV joint action
    report      recompute summary/convergence CSVs from an existing run

Flags given on the command line override the corresponding config fields.
No environment variables are required. Exit status is 0 exactly when every
requested artifact was written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .episode import EPISODE_CSV_HEADER, episode_csv_blocks, run_episode
from .harness import (
    RunConfig,
    equilibrium_grid,
    load_config,
    regenerate_report,
    run_experiment,
    sweep_beta,
)
from .humans import freeze_all, run_warmup
from .learners import ALGORITHMS
from .network import ConfigurationError
from .rewards import SCOPES, RewardEngine
from .scenarios import load_scenario


def _parse_list(text: str, cast, flag: str) -> list:
    parts = text.strip().strip("[]").replace(";", ",").split(",")
    values = []
    try:
        for part in filter(None, map(str.strip, parts)):
            values.append(cast(part))
    except ValueError:
        raise ConfigurationError(f"{flag}: cannot read {part!r} as {cast.__name__}") from None
    return values


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    reward = config.reward
    if getattr(args, "beta", None) is not None and args.command == "train":
        betas = _parse_list(args.beta, float, "--beta")
        if len(betas) != 1:
            raise ConfigurationError("train expects a single --beta value")
        reward = dataclasses.replace(reward, beta=betas[0])
    if getattr(args, "scope", None):
        reward = dataclasses.replace(reward, scope=args.scope)
    seeds = config.seeds
    if getattr(args, "seed", None) is not None:
        seeds = (args.seed,)
    if getattr(args, "seeds", None):
        seeds = tuple(_parse_list(args.seeds, int, "--seeds"))
    learner = config.learner
    if getattr(args, "algorithm", None) and args.algorithm != learner.get("algorithm"):
        # The old algorithm's hyperparameters would be unknown keys to the new one.
        learner = {"algorithm": args.algorithm}

    updates = {"reward": reward, "seeds": seeds, "learner": learner}
    for field, attr in (
        ("warmup_days", "warmup_days"),
        ("train_episodes", "episodes"),
        ("eval_episodes", "eval_episodes"),
        ("mode", "mode"),
        ("noise_sigma", "noise_sigma"),
        ("jobs", "jobs"),
    ):
        value = getattr(args, attr, None)
        if value is not None:
            updates[field] = value
    if getattr(args, "out", None):
        updates["out_dir"] = Path(args.out)
    return dataclasses.replace(config, **updates)


def _load(args: argparse.Namespace) -> RunConfig:
    config = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    if getattr(args, "scenario", None):
        config = dataclasses.replace(config, scenario=load_scenario(args.scenario))
    return _apply_overrides(config, args)


def _warn_unless_monotone(config: RunConfig) -> None:
    """One stderr warning when removing a vehicle can delay another."""
    if not config.scenario.monotone:
        print(
            "warning: the scenario is outside the monotone regime (two routes, exactly "
            "one yielding, yield_window_w >= merge_gap_g); marginal-cost entries can be "
            "positive and intrinsic scores need not preserve their sign",
            file=sys.stderr,
        )


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to stdout and, when ``out`` is given, to that file too."""
    sys.stdout.write(text)
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load(args)
    scenario = config.effective_scenario()
    if args.action:
        routes = _parse_list(args.action, int, "--action")
        if len(routes) != len(scenario.agents):
            raise ConfigurationError(
                f"--action needs {len(scenario.agents)} entries, got {len(routes)}"
            )
        constant = dict(zip((a.id for a in scenario.agents), routes))
    else:
        constant = {a.id: args.route for a in scenario.agents}
    engine = RewardEngine(scenario, config.reward)
    log = run_episode(engine, scenario.routes_of(constant), 0, config.seeds[0])
    (block,) = episode_csv_blocks([log], scenario, "\n")
    _emit(",".join(EPISODE_CSV_HEADER) + "\n" + block, args.out)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _load(args)
    _warn_unless_monotone(config)
    result = run_experiment(config)
    for run in result.seed_runs:
        routes = sorted(set(run.frozen_profile.values()))
        profile = ",".join(str(run.frozen_profile[i]) for i in sorted(run.frozen_profile))
        print(
            f"seed {run.seed}: humans frozen to route"
            f"{'s' if len(routes) > 1 else ''} {profile}"
        )
    print(f"run artifacts written to {result.out_dir}")
    return 0


def cmd_sweep_beta(args: argparse.Namespace) -> int:
    config = _load(args)
    betas = _parse_list(args.beta or "", float, "--beta")
    sweep_beta(config, betas)
    print(f"sweep artifacts written to {config.out_dir}")
    return 0


def cmd_equilibria(args: argparse.Namespace) -> int:
    config = _load(args)
    _warn_unless_monotone(config)
    alphas = _parse_list(args.alpha, float, "--alpha") if args.alpha else [1.0]
    betas = _parse_list(args.beta, float, "--beta") if args.beta else [0.0]
    scope = args.scope or config.reward.scope
    for report in equilibrium_grid(config, alphas, betas, scope):
        print(
            f"alpha={report.alpha:g} beta={report.beta:g} scope={report.scope}: "
            f"{report.count} equilibrium(s)"
        )
    print(f"equilibria artifacts written to {config.out_dir}")
    return 0


def cmd_marginal(args: argparse.Namespace) -> int:
    config = _load(args)
    _warn_unless_monotone(config)
    scenario = config.scenario.with_noise(0.0)
    routes = _parse_list(args.action, int, "--action")
    if len(routes) != len(scenario.av_ids):
        raise ConfigurationError(
            f"--action needs one route per AV ({len(scenario.av_ids)}), got {len(routes)}"
        )
    humans, _ = run_warmup(scenario, config.warmup_days, config.seeds[0])
    profile = freeze_all(humans)
    action = {i: profile[i] for i in scenario.human_ids}
    action.update(zip(scenario.av_ids, routes))
    engine = RewardEngine(scenario, config.reward)
    matrix = engine.marginal_matrix(action, config.seeds[0])
    _emit(matrix.to_csv(av_rows_only=(config.reward.scope != "system")), args.out)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    regenerate_report(args.out)
    print(f"report regenerated in {args.out}")
    return 0


def _add_common(
    parser: argparse.ArgumentParser, noise: bool = False, warmup: bool = False, training: bool = False
) -> None:
    """The config flags a subcommand reads: the shared six, then the groups it asks for."""
    parser.add_argument("--config", help="run-config JSON path")
    parser.add_argument("--scenario", help="scenario JSON path (overrides config)")
    parser.add_argument("--seed", type=int, help="single seed (overrides config list)")
    parser.add_argument("--seeds", help="comma-separated seed list")
    parser.add_argument("--out", help="output directory or file")
    parser.add_argument("--scope", choices=SCOPES)
    if noise or training:
        parser.add_argument("--mode", choices=("deterministic", "stochastic"))
        parser.add_argument("--noise-sigma", type=float, dest="noise_sigma")
    if warmup or training:
        parser.add_argument("--warmup-days", type=int, dest="warmup_days")
    if training:
        parser.add_argument("--jobs", type=int, help="forked processes for seeds/sweep points")
        parser.add_argument("--episodes", type=int, help="training episodes")
        parser.add_argument("--eval-episodes", type=int, dest="eval_episodes")
        parser.add_argument("--algorithm", choices=ALGORITHMS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="routelab",
        description="Congestion-game laboratory for counterfactual reward shaping",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one episode with constant routes")
    _add_common(p, noise=True)
    p.add_argument("--route", type=int, default=0, help="route for every agent")
    p.add_argument("--action", help="per-agent route list, departure order")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="full pipeline: warm-up, train, evaluate")
    _add_common(p, training=True)
    p.add_argument("--beta", help="shaping coefficient override")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep-beta", help="repeat train over a beta list")
    _add_common(p, training=True)
    p.add_argument("--beta", help="comma-separated beta values", required=True)
    p.set_defaults(func=cmd_sweep_beta)

    p = sub.add_parser("equilibria", help="enumerate Nash equilibria on a grid")
    _add_common(p, warmup=True)
    p.add_argument("--alpha", help="comma-separated alpha values (default 1)")
    p.add_argument("--beta", help="comma-separated beta values (default 0)")
    p.set_defaults(func=cmd_equilibria)

    p = sub.add_parser("marginal", help="marginal cost matrix for one joint action")
    _add_common(p, warmup=True)
    p.add_argument("--action", required=True, help="per-AV route list, e.g. [1,0,1,0,0,0,1,0,1,1]")
    p.set_defaults(func=cmd_marginal)

    p = sub.add_parser("report", help="recompute derived CSVs for a run directory")
    p.add_argument("--out", required=True, help="existing run directory")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
