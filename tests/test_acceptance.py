"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Heavy experiments are shared through a module-level cache. Every tolerance
is pinned here, not configurable. Run with ``pytest tests/test_acceptance.py
-v -s`` to see the per-criterion lines.
"""

from __future__ import annotations

import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from routelab import (
    RewardConfig,
    RewardEngine,
    beta_max,
    freeze_all,
    run_warmup,
    simulate,
    simulate_without,
)
from routelab.equilibrium import EquilibriumAnalyzer
from routelab.harness import RunConfig, run_experiment
from routelab.episode import run_episode
from routelab.rewards import MarginalCostMatrix, intrinsic_reward
from routelab.scenarios import two_route_yield_scenario

from conftest import deviation_rows, id_view, make_scenario

ALL_ROUTE_0 = (0,) * 10
N_AVS = 10


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def world():
    scenario = two_route_yield_scenario()
    humans, _ = run_warmup(scenario, 200, seed=0)
    profile = freeze_all(humans)
    frozen = {i: profile[i] for i in scenario.human_ids}
    return scenario, frozen


@pytest.fixture(scope="module")
def shared_analyzer(world):
    scenario, frozen = world
    return EquilibriumAnalyzer(scenario, frozen)


_EXPERIMENTS: dict = {}


def experiment(algo: str, mode: str, beta: float, scope: str, train_episodes: int):
    key = (algo, mode, beta, scope, train_episodes)
    if key not in _EXPERIMENTS:
        config = RunConfig(
            scenario=two_route_yield_scenario(),
            learner={"algorithm": algo},
            reward=RewardConfig(alpha=1.0, beta=beta, scope=scope),
            warmup_days=200,
            train_episodes=train_episodes,
            eval_episodes=100,
            seeds=(0, 1, 2, 3, 4),
            mode=mode,
            noise_sigma=2.0 if mode == "stochastic" else None,
            out_dir=Path("/tmp/routelab-acceptance") / "_".join(map(str, key)),
        )
        _EXPERIMENTS[key] = run_experiment(config, write=False)
    return _EXPERIMENTS[key]


def eval_means(result) -> tuple[float, float]:
    pooled = result.eval_times_by_kind
    return float(np.mean(pooled["av"])), float(np.mean(pooled["human"]))


# -- criterion 1: calibration gate ---------------------------------------------


def test_criterion_1_calibration_gate(world):
    scenario, frozen = world
    analyzer = EquilibriumAnalyzer(scenario, frozen)
    start = time.perf_counter()
    selfish = RewardConfig(alpha=1.0, beta=0.0, scope="none")
    nash = analyzer.enumerate_nash(selfish)
    optima, _ = analyzer.system_optimum()
    elapsed = time.perf_counter() - start
    ok = (
        nash.count == 1
        and nash.equilibria == [ALL_ROUTE_0]
        and optima == [ALL_ROUTE_0]
        and analyzer.simulations_run <= 1024
        and elapsed < 60.0
    )
    report(
        "criterion 1 (calibration gate)",
        ok,
        f"equilibria={nash.count}, optima={len(optima)}, "
        f"simulations={analyzer.simulations_run}, {elapsed:.1f}s",
    )


# -- criterion 2: equilibrium invariance over beta ------------------------------


def test_criterion_2_equilibrium_invariance(shared_analyzer):
    counts = {}
    for scope in ("av-group", "system"):
        for beta in (0.0, 0.3, 1.0, 10.0, 100.0):
            nash = shared_analyzer.enumerate_nash(RewardConfig(alpha=1.0, beta=beta, scope=scope))
            counts[(scope, beta)] = (nash.count, nash.equilibria)
    budget = shared_analyzer.simulations_run
    ok = all(
        count == 1 and equilibria == [ALL_ROUTE_0]
        for count, equilibria in counts.values()
    ) and budget <= 1024 + N_AVS * 1024
    report(
        "criterion 2 (equilibrium invariance)",
        ok,
        f"counts={[c for c, _ in counts.values()]}, simulations={budget}",
    )


# -- criterion 3: affine structure and beta_max ----------------------------------


def test_criterion_3_affine_and_beta_max(shared_analyzer):
    analyzer = shared_analyzer
    rng = random.Random(123)
    scope_config = lambda beta: RewardConfig(alpha=1.0, beta=beta, scope="av-group")

    def delta_r(action, slot, av, beta):
        low = action[:slot] + (0,) + action[slot + 1 :]
        high = action[:slot] + (1,) + action[slot + 1 :]
        config = scope_config(beta)
        return analyzer.rewards(high, config)[av] - analyzer.rewards(low, config)[av]

    worst_residual = 0.0
    for _ in range(100):
        action = tuple(rng.randint(0, 1) for _ in range(N_AVS))
        slot = rng.randrange(N_AVS)
        av = analyzer.av_ids[slot]
        values = [delta_r(action, slot, av, beta) for beta in (0.0, 1.0, 2.0)]
        mid = 0.5 * (values[0] + values[2])
        scale = max(1.0, abs(values[0]), abs(values[2]))
        worst_residual = max(worst_residual, abs(values[1] - mid) / scale)

    # Sign-flip thresholds are rare under uniform sampling, so collect them
    # from a full pass and check the bisection agreement on a batch of them.
    finite_cases = []
    table = analyzer.deviation_records(scope_config(1.0))
    for record in deviation_rows(analyzer, table):  # by profile, then AV
        threshold = beta_max(-record.delta_seconds, record.delta_score)
        if threshold is not None and 0.0 < threshold < math.inf:
            slot = analyzer.av_ids.index(record.av_id)
            finite_cases.append((record.action, slot, record.av_id, threshold))
    rng.shuffle(finite_cases)

    worst_gap = 0.0
    checked = finite_cases[:60]
    for action, slot, av, threshold in checked:
        lo, hi = 0.0, 2.0 * threshold + 1.0
        sign_lo = delta_r(action, slot, av, lo) > 0
        for _ in range(80):
            mid_beta = 0.5 * (lo + hi)
            if (delta_r(action, slot, av, mid_beta) > 0) == sign_lo:
                lo = mid_beta
            else:
                hi = mid_beta
        root = 0.5 * (lo + hi)
        worst_gap = max(worst_gap, abs(root - threshold) / max(1.0, threshold))

    ok = worst_residual <= 1e-9 and worst_gap <= 1e-6 and len(checked) > 0
    report(
        "criterion 3 (affine in beta, beta_max vs bisection)",
        ok,
        f"max collinearity residual={worst_residual:.2e}, "
        f"max beta_max gap={worst_gap:.2e} over {len(checked)} finite thresholds",
    )


# -- criterion 4: convergence acceleration ----------------------------------------


def test_criterion_4_convergence_acceleration():
    selfish = experiment("ucb", "stochastic", 0.0, "none", 1100)
    shaped = {
        scope: experiment("ucb", "stochastic", 200.0, scope, 1100)
        for scope in ("av-group", "system")
    }
    polished = {
        scope: run.eval_proportion_optimal() for scope, run in shaped.items()
    }
    first_selfish = selfish.first_convergence_episode()
    firsts = {scope: run.first_convergence_episode() for scope, run in shaped.items()}
    ok = all(p >= 0.9 for p in polished.values())
    for scope in shaped:
        first = firsts[scope]
        ok = ok and first is not None
        if first_selfish is not None:
            ok = ok and 2 * first <= first_selfish
    report(
        "criterion 4 (convergence acceleration)",
        ok,
        f"eval proportions={polished}, first@0.9 shaped={firsts}, selfish={first_selfish}",
    )


def test_spec_example_selfish_ucb_nonconvergence():
    # Derived claim from the training operation: selfish UCB's eval-phase
    # proportion on route 0 stays below 1 in a majority of seeds.
    selfish = experiment("ucb", "stochastic", 0.0, "none", 1100)
    per_seed = []
    for run in selfish.seed_runs:
        props = [p for (_, phase, p) in run.proportions if phase == "eval"]
        per_seed.append(float(np.mean(props)))
    incomplete = sum(1 for p in per_seed if p < 1.0)
    report(
        "spec example (selfish UCB non-convergence)",
        incomplete >= 3,
        f"per-seed eval proportions={per_seed}",
    )


# -- criterion 5: travel-time ordering ----------------------------------------------


@pytest.mark.parametrize(
    "algo,mode",
    [
        ("q", "deterministic"),
        ("q", "stochastic"),
        ("ucb", "deterministic"),
        ("ucb", "stochastic"),
    ],
)
def test_criterion_5_travel_time_ordering(algo, mode):
    horizon = 120
    selfish_av, selfish_human = eval_means(experiment(algo, mode, 0.0, "none", horizon))
    details = [f"selfish=({selfish_av:.3f},{selfish_human:.3f})"]
    ok = True
    for scope in ("av-group", "system"):
        shaped_av, shaped_human = eval_means(
            experiment(algo, mode, 200.0, scope, horizon)
        )
        details.append(f"{scope}=({shaped_av:.3f},{shaped_human:.3f})")
        ok = ok and shaped_av < selfish_av and shaped_human < selfish_human
    report(f"criterion 5 (travel-time ordering, {algo}/{mode})", ok, " ".join(details))


# -- criterion 6: marginal-matrix properties ------------------------------------------


def test_criterion_6_marginal_matrix_properties(world):
    scenario, frozen = world
    engine = RewardEngine(scenario, RewardConfig(beta=1.0, scope="system"))
    rng = random.Random(6)
    exact = True
    nonpositive = True
    diagonal_zero = True
    for _ in range(5):
        action = dict(frozen)
        action.update({av: rng.randint(0, 1) for av in scenario.av_ids})
        matrix = engine.marginal_matrix(action, seed=0)
        base = simulate(scenario, action, seed=0)
        diagonal_zero &= all(matrix.entry(av, av) == 0.0 for av in scenario.av_ids)
        nonpositive &= bool(np.all(matrix.values <= 0.0))
        for j in scenario.av_ids:
            without = simulate_without(scenario, action, j, seed=0)
            for i in (a.id for a in scenario.agents):
                if i == j:
                    continue
                exact &= matrix.entry(i, j) == without[i] - base[i]

    # constructed fixture: a later-departing priority AV delays an earlier one
    fifo = make_scenario([0.0, 2.0], pre_merge=(40.0, 41.0))
    fifo_matrix = RewardEngine(fifo, RewardConfig(beta=1.0, scope="system")).marginal_matrix(
        {0: 0, 1: 1}, seed=0
    )
    av_rows = [i for i in fifo_matrix.row_ids if i in fifo_matrix.col_ids]
    above = fifo_matrix.entry(0, 1)
    fifo_ok = av_rows.index(0) < fifo_matrix.col_ids.index(1) and above != 0.0

    ok = exact and nonpositive and diagonal_zero and fifo_ok
    report(
        "criterion 6 (marginal-matrix properties)",
        ok,
        f"exact={exact}, nonpositive={nonpositive}, diag0={diagonal_zero}, "
        f"fifo above-diagonal entry={above}",
    )


# -- criterion 7: intrinsic-reward bounds ----------------------------------------------


def test_criterion_7_intrinsic_bounds():
    rng = np.random.default_rng(7)
    row_ids = tuple(range(12))
    col_ids = tuple(range(6))
    bounded = True
    signs = True
    for k in range(1000):
        values = rng.normal(0.0, 40.0, size=(len(row_ids), len(col_ids)))
        if k % 3 == 1:
            values = -np.abs(values)  # all entries share the negative sign
        elif k % 3 == 2:
            values = np.abs(values)
        matrix = MarginalCostMatrix(row_ids=row_ids, col_ids=col_ids, values=values)
        for j in col_ids:
            for scope, size in (("system", len(row_ids)), ("av-group", len(col_ids))):
                value = intrinsic_reward(matrix, j, RewardConfig(scope=scope))
                bounded &= abs(value) < size
                column_sum = sum(
                    matrix.entry(i, j)
                    for i in (row_ids if scope == "system" else col_ids)
                    if i != j
                )
                if k % 3 and column_sum != 0.0:
                    signs &= (value < 0) == (column_sum < 0)
    ok = bounded and signs
    report("criterion 7 (intrinsic-reward bounds)", ok, f"bounded={bounded}, signs={signs}")


# -- criterion 8: determinism and cache ---------------------------------------------


def test_criterion_8_determinism_and_cache(tmp_path, world):
    scenario, frozen = world

    # (a) byte-reproducible deterministic experiment
    def run_to(out_dir: Path):
        config = RunConfig(
            scenario=two_route_yield_scenario(),
            learner={"algorithm": "ucb"},
            reward=RewardConfig(alpha=1.0, beta=200.0, scope="av-group"),
            warmup_days=200,
            train_episodes=300,
            eval_episodes=50,
            seeds=(0, 1),
            mode="deterministic",
            out_dir=out_dir,
        )
        run_experiment(config)

    run_to(tmp_path / "first")
    run_to(tmp_path / "second")
    byte_identical = all(
        (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()
        for name in ("episodes.csv", "summary.csv", "convergence.csv", "convergence.svg")
    )

    # (b) a memoised shaped episode equals one built directly from the kernel,
    # and so does its repeat, which the memo serves without simulating
    config = RewardConfig(alpha=1.0, beta=200.0, scope="system")
    routes = scenario.routes_of({a.id: 1 if a.id in (1, 9) else 0 for a in scenario.agents})
    engine = RewardEngine(scenario, config)
    log_cached = id_view(run_episode(engine, routes, 0, 0), scenario)
    simulated = engine.simulations_run
    log_repeat = id_view(run_episode(engine, routes, 0, 0), scenario)
    base = simulate(scenario, log_cached.action, 0)
    matrix = RewardEngine(scenario, config).marginal_matrix(log_cached.action, 0)
    direct_shaped = {
        i: config.alpha * -t
        + config.beta * (intrinsic_reward(matrix, i, config) if i in scenario.av_ids else 0.0)
        for i, t in base.times.items()
    }
    cache_equiv = (
        log_cached.times.times == base.times == log_repeat.times.times
        and log_cached.shaped == direct_shaped == log_repeat.shaped
        and engine.simulations_run == simulated
    )

    # (c) distinct-simulation budget for a full shaped enumeration
    analyzer = EquilibriumAnalyzer(scenario, frozen)
    analyzer.enumerate_nash(RewardConfig(alpha=1.0, beta=0.3, scope="av-group"))
    budget = analyzer.simulations_run
    budget_ok = budget <= 1024 + N_AVS * 1024

    ok = byte_identical and cache_equiv and budget_ok
    report(
        "criterion 8 (determinism & cache)",
        ok,
        f"byte_identical={byte_identical}, cache_equiv={cache_equiv}, "
        f"distinct simulations={budget}",
    )


# -- criterion 9: human warm-up -------------------------------------------------------


def test_criterion_9_human_warmup():
    scenario = two_route_yield_scenario()
    converged = 0
    for seed in range(20):
        humans, _ = run_warmup(scenario, 200, seed)
        profile = freeze_all(humans)
        converged += all(route == 0 for route in profile.values())
    ok = converged >= 19
    report(
        "criterion 9 (human warm-up)",
        ok,
        f"{converged}/20 seeds frozen all-route-0",
    )
