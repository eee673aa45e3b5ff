"""Output checks for one benchmark repetition.

Every check returns a list of problems; an empty list means the outputs are
right. Travel times are recomputed with the independent merge oracle in
``tests/oracle_sim.py`` wherever the run is deterministic, and the reward
definitions (marginal cost, tanh-squashed intrinsic score) are recomputed
here from that oracle rather than taken from routelab.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import random
import statistics
from pathlib import Path

TOLERANCE = 1e-9  # routelab's strictness tolerance for Nash deviations
DEVIATION_SAMPLE = 64  # deviation rows whose intrinsic term is recomputed


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every artifact except config.json, which embeds out_dir and jobs."""
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file() and path.name != "config.json"
    }


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOLERANCE, abs_tol=TOLERANCE)


class Oracle:
    """Memoised oracle travel times for one deterministic scenario."""

    def __init__(self, oracle_module: dict, scenario):
        self._subset = oracle_module["oracle_subset_times"]
        self.scenario = scenario
        self.ids = [agent.id for agent in scenario.agents]
        self._memo: dict = {}

    def times(self, action: dict, removed: int | None = None) -> dict[int, float]:
        key = (tuple(action[i] for i in self.ids), removed)
        if key not in self._memo:
            kept = [i for i in self.ids if i != removed]
            self._memo[key] = self._subset(self.scenario, action, kept)
        return self._memo[key]

    def intrinsic(self, action: dict, av: int, rows, tanh_scale: float) -> float:
        """Marginal-cost score of one AV: sum of tanh over its column."""
        base = self.times(action)
        without = self.times(action, removed=av)
        return sum(
            math.tanh((without[i] - base[i]) / tanh_scale) for i in rows if i != av
        )

    def optima(self, humans: dict[int, int]) -> list[tuple[int, ...]]:
        """AV profiles minimising total travel time against frozen humans."""
        avs = self.scenario.av_ids
        spaces = [self.scenario.agent(av).action_space for av in avs]
        totals = {}
        for profile in itertools.product(*spaces):
            action = {**humans, **dict(zip(avs, profile))}
            totals[profile] = sum(self.times(action).values())
        best = min(totals.values())
        return [p for p, total in totals.items() if total <= best + TOLERANCE]


def check_train(out_dir: Path, doc: dict, routelab, oracle_module: dict) -> list[str]:
    scenario = routelab.scenario_from_dict(doc["scenario"])
    oracle = Oracle(oracle_module, scenario.with_noise(0.0))
    seeds = doc["seeds"]
    warmup, train, evaluation = doc["warmup_days"], doc["train_episodes"], doc["eval_episodes"]
    days = warmup + train + evaluation
    deterministic = doc["mode"] == "deterministic"
    alpha, beta = doc["reward"]["alpha"], doc["reward"]["beta"]
    agents = [agent.id for agent in scenario.agents]
    kinds = {agent.id: agent.kind for agent in scenario.agents}
    avs = scenario.av_ids
    scope_rows = avs if doc["reward"]["scope"] == "av-group" else agents
    # Each tanh term lies in [-1, 1]; the AV itself is left out of its sum.
    score_bound = len(scope_rows) - 1
    memo: dict = {}

    def scores(action: dict, av: int) -> float:
        key = (tuple(action[i] for i in agents), av)
        if key not in memo:
            memo[key] = oracle.intrinsic(action, av, scope_rows, doc["reward"]["tanh_scale"])
        return memo[key]

    problems = []

    meta = json.loads((out_dir / "run_meta.json").read_text(encoding="utf-8"))
    phases = {"warmup": [0, warmup], "train": [warmup, warmup + train], "eval": [warmup + train, days]}
    if meta["seed_order"] != seeds or meta["phases"] != phases:
        problems.append("run_meta.json: seed order or phases differ from the config")
    rows = _rows(out_dir / "episodes.csv")
    if len(rows) != len(seeds) * days * len(agents):
        return problems + [f"episodes.csv: {len(rows)} rows for {len(seeds)} seeds x {days} days"]

    expected_convergence = []
    eval_times: dict[str, list[float]] = {"av": [], "human": []}
    for k, seed in enumerate(seeds):
        block = rows[k * days * len(agents) : (k + 1) * days * len(agents)]
        if _rows(out_dir / f"seed_{seed}" / "episodes.csv") != block:
            problems.append(f"seed_{seed}/episodes.csv differs from its block of episodes.csv")
        info = meta["seeds"][str(seed)]
        frozen = {int(i): route for i, route in info["frozen_profile"].items()}
        optimal = {int(i): route for i, route in info["optimal_actions"].items()}
        optimum = tuple(optimal[av] for av in avs)
        if optimum not in oracle.optima(frozen):
            problems.append(f"seed {seed}: optimal_actions is not a system optimum")
        learning_actions = set()
        for day in range(days):
            day_rows = block[day * len(agents) : (day + 1) * len(agents)]
            if [(int(r["episode"]), int(r["agent_id"])) for r in day_rows] != [
                (day, i) for i in agents
            ]:
                return problems + [f"seed {seed} day {day}: rows out of order"]
            action = {int(r["agent_id"]): int(r["action"]) for r in day_rows}
            for r in day_rows:
                travel = float(r["travel_time"])
                intrinsic = float(r["intrinsic"])
                if not (math.isfinite(travel) and travel > 0):
                    problems.append(f"seed {seed} day {day}: travel time {travel}")
                if float(r["extrinsic"]) != -travel or not _close(
                    float(r["shaped"]), alpha * -travel + beta * intrinsic
                ):
                    problems.append(f"seed {seed} day {day}: reward terms inconsistent")
                if r["kind"] == "human" and intrinsic != 0.0:
                    problems.append(f"seed {seed} day {day}: human with intrinsic reward")
                if abs(intrinsic) > score_bound:
                    problems.append(f"seed {seed} day {day}: intrinsic score out of bounds")
            if day >= warmup:
                learning_actions.add(tuple(action[i] for i in agents))
                if any(action[i] != route for i, route in frozen.items()):
                    problems.append(f"seed {seed} day {day}: a frozen human changed route")
                phase = "eval" if day >= warmup + train else "train"
                share = sum(1 for av in avs if action[av] == optimal[av]) / len(avs)
                expected_convergence.append([day, seed, phase, share])
                if phase == "eval":
                    for r in day_rows:
                        eval_times[kinds[int(r["agent_id"])]].append(float(r["travel_time"]))
            if deterministic:
                oracle_times = oracle.times(action)
                if any(not _close(float(r["travel_time"]), oracle_times[int(r["agent_id"])]) for r in day_rows):
                    problems.append(f"seed {seed} day {day}: travel times differ from the oracle")
                if day >= warmup and any(
                    not _close(float(r["intrinsic"]), scores(action, int(r["agent_id"])))
                    for r in day_rows
                    if r["kind"] == "av"
                ):
                    problems.append(f"seed {seed} day {day}: intrinsic scores differ from the oracle")
        # One base run plus one counterfactual per AV for each distinct
        # (action, seed); stochastic episodes each have their own seed.
        distinct = len(learning_actions) if deterministic else train + evaluation
        if info["simulations_run"] != (len(avs) + 1) * distinct:
            problems.append(
                f"seed {seed}: simulations_run {info['simulations_run']}, "
                f"expected {(len(avs) + 1) * distinct}"
            )

    convergence = [
        [int(r["episode"]), int(r["seed"]), r["phase"], float(r["proportion_optimal"])]
        for r in _rows(out_dir / "convergence.csv")
    ]
    if convergence != expected_convergence:
        problems.append("convergence.csv disagrees with episodes.csv and run_meta.json")
    summary = {r["group"]: r for r in _rows(out_dir / "summary.csv")}
    for group, kind in (("avs", "av"), ("humans", "human")):
        values = eval_times[kind]
        if not (
            _close(float(summary[group]["mean_travel_time"]), statistics.fmean(values))
            and _close(float(summary[group]["std_travel_time"]), statistics.pstdev(values))
        ):
            problems.append(f"summary.csv: {group} row disagrees with eval travel times")
    if not (out_dir / "convergence.svg").read_text(encoding="utf-8").startswith("<svg"):
        problems.append("convergence.svg is not an SVG document")
    return problems


def check_grid(
    out_dir: Path,
    doc: dict,
    routelab,
    oracle_module: dict,
    alphas,
    betas,
    scopes,
) -> list[str]:
    scenario = routelab.scenario_from_dict(doc["scenario"]).with_noise(0.0)
    # The grid writes no human profile; rebuild it as equilibrium_grid does.
    states, _ = routelab.run_warmup(scenario, doc["warmup_days"], doc["seeds"][0])
    profile = routelab.freeze_all(states)
    humans = {i: profile[i] for i in scenario.human_ids}
    oracle = Oracle(oracle_module, scenario)
    avs = scenario.av_ids
    tanh_scale = doc["reward"].get("tanh_scale", 1.0)
    profiles = list(itertools.product((0, 1), repeat=len(avs)))

    def action(p):
        return {**humans, **dict(zip(avs, p))}

    def switch(p, slot, route):
        return p[:slot] + (route,) + p[slot + 1 :]

    selfish = set()
    for p in profiles:
        own = oracle.times(action(p))
        if all(
            oracle.times(action(switch(p, s, 1 - p[s])))[av] >= own[av] - TOLERANCE
            for s, av in enumerate(avs)
        ):
            selfish.add("".join(map(str, p)))

    problems = []
    rng = random.Random(0)
    for scope in scopes:
        where = out_dir / scope
        grid = _rows(where / "equilibria.csv")
        expected_points = [(float(a), float(b)) for a in alphas for b in betas]
        if [(float(r["alpha"]), float(r["beta"])) for r in grid] != expected_points or any(
            r["scope"] != scope for r in grid
        ):
            problems.append(f"{scope}/equilibria.csv: wrong grid points")
            continue
        deviations = _rows(where / "deviations.csv")
        if [(r["action"], int(r["av_id"])) for r in deviations] != [
            ("".join(map(str, p)), av) for p in profiles for av in avs
        ]:
            problems.append(f"{scope}/deviations.csv: wrong rows")
            continue
        terms = {}
        for r in deviations:
            p = tuple(int(c) for c in r["action"])
            slot = avs.index(int(r["av_id"]))
            delta_seconds = float(r["delta_seconds"])
            high, low = action(switch(p, slot, 1)), action(switch(p, slot, 0))
            if not _close(delta_seconds, oracle.times(high)[avs[slot]] - oracle.times(low)[avs[slot]]):
                problems.append(f"{scope}/deviations.csv {r['action']}/{r['av_id']}: delta_seconds")
            if r["beta_max"] != "indifferent" and not float(r["beta_max"]) >= 0:
                problems.append(f"{scope}/deviations.csv {r['action']}/{r['av_id']}: beta_max")
            terms[p, slot] = (delta_seconds, float(r["delta_score"]))
        rows_in_scope = avs if scope == "av-group" else oracle.ids
        for p, slot in rng.sample(sorted(terms), min(DEVIATION_SAMPLE, len(terms))):
            av = avs[slot]
            score = oracle.intrinsic(action(switch(p, slot, 1)), av, rows_in_scope, tanh_scale)
            score -= oracle.intrinsic(action(switch(p, slot, 0)), av, rows_in_scope, tanh_scale)
            if not _close(terms[p, slot][1], score):
                problems.append(f"{scope}/deviations.csv {p}/{av}: delta_score differs from the oracle")
        for r in grid:
            alpha, beta = float(r["alpha"]), float(r["beta"])
            listed = set(r["equilibria"].split(";")) - {""}
            if int(r["count"]) != len(listed):
                problems.append(f"{scope} beta={beta:g}: count disagrees with the list")
            # The shaped reward is affine in beta, so the deviation terms
            # decide every profile's stability at every grid point.
            stable = set()
            for p in profiles:
                gains = (
                    (-alpha * terms[p, s][0] + beta * terms[p, s][1]) * (1 if p[s] == 0 else -1)
                    for s in range(len(avs))
                )
                if all(gain <= TOLERANCE for gain in gains):
                    stable.add("".join(map(str, p)))
            if listed != stable:
                problems.append(f"{scope} beta={beta:g}: equilibria disagree with deviations.csv")
            if beta == 0.0 and listed != selfish:
                problems.append(f"{scope} beta=0: equilibria disagree with the oracle")
        if not (where / "equilibria.svg").read_text(encoding="utf-8").startswith("<svg"):
            problems.append(f"{scope}/equilibria.svg is not an SVG document")
    return problems
