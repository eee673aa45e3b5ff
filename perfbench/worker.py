"""One benchmark repetition in a fresh process.

Usage: python3 perfbench/worker.py JOB.json

The job file (written by run.py) names the workload, the generated run
config and whether to trace. The worker imports routelab from the checkout's
``src``, loads the config, runs the workload through the public API and
prints one JSON object: ``setup_s``, ``run_s``, ``peak_rss_mb``, the
``problems`` it found and, when traced, the raw layer numbers under
``layers``. A ``setup_only`` job stops after loading and prints ``setup_s``.

In the traced pass, train-exact-2seed runs two seeds on two threads that
share the interpreter lock, so a span's wall time there includes time its
thread waited for the lock; self times are split between the threads (see
spans.py).
"""

from __future__ import annotations

import dataclasses
import json
import runpy
import statistics
import sys
import time
from pathlib import Path

from spans import Tracer

GRID_ALPHAS = (1.0,)
GRID_BETAS = (0.0, 0.3, 1.0, 10.0, 100.0)
GRID_SCOPES = ("av-group", "system")  # one cold analyzer each, as two CLI calls
PROBE_BATCHES = 7
PROBE_CALLS = 400
PROBE_NOISE_SIGMA = 2.0
ROOT_SPAN = "workload"  # its self time is the time no layer accounts for


def run_workload(harness, workload: str, config) -> None:
    if workload == "equilibria-grid":
        for scope in GRID_SCOPES:
            scoped = dataclasses.replace(config, out_dir=config.out_dir / scope)
            harness.equilibrium_grid(scoped, GRID_ALPHAS, GRID_BETAS, scope)
    else:
        harness.run_experiment(config)


def install_spans(tracer: Tracer, peaks: dict) -> None:
    """Wrap every layer boundary, on the binding each caller looks up."""
    import routelab.equilibrium as equilibrium
    import routelab.harness as harness
    import routelab.humans as humans
    import routelab.learners as learners
    import routelab.rewards as rewards

    def track_cache(args, _result):
        cache = args[0]
        peaks[cache] = max(peaks.get(cache, 0), len(cache))

    for owner, attr, name in (
        (rewards, "simulate", "network.simulate"),
        (rewards, "simulate_without", "network.simulate_without"),
        (rewards.RewardEngine, "evaluate", "rewards.evaluate"),
        (rewards.RewardEngine, "marginal_matrix", "rewards.marginal_matrix"),
        (rewards, "intrinsic_reward", "rewards.intrinsic_reward"),
        (equilibrium, "intrinsic_reward", "rewards.intrinsic_reward"),
        (humans, "run_episode", "episode.run_episode"),
        (learners, "run_episode", "episode.run_episode"),
        (harness, "train", "learners.train"),
        # The workloads train UCB learners only.
        (learners.UcbLearner, "select", "learners.select_update"),
        (learners.UcbLearner, "greedy", "learners.select_update"),
        (learners.UcbLearner, "update", "learners.select_update"),
        (harness, "run_warmup", "humans.run_warmup"),
        (humans.HumanState, "choose", "humans.choose_update"),
        (humans.HumanState, "update", "humans.choose_update"),
        (equilibrium.EquilibriumAnalyzer, "enumerate_nash", "equilibrium.enumerate_nash"),
        (equilibrium.EquilibriumAnalyzer, "system_optimum", "equilibrium.system_optimum"),
        (equilibrium.EquilibriumAnalyzer, "deviation_records", "equilibrium.deviation_records"),
        (equilibrium.EquilibriumAnalyzer, "rewards", "equilibrium.rewards"),
        (harness, "run_experiment", "harness.run_experiment"),
        (harness, "write_experiment", "harness.write_experiment"),
        (harness, "equilibrium_grid", "harness.equilibrium_grid"),
        (harness, "line_plot", "plots.line_plot"),
        (harness, "bar_plot", "plots.bar_plot"),
    ):
        tracer.wrap(owner, attr, name)
    tracer.wrap(harness, "run_seed", "harness.run_seed", cpu=True)
    tracer.wrap(rewards.SimulationCache, "get_or_compute", "rewards.cache", after=track_cache)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_numbers(tracer: Tracer, peaks: dict, config) -> dict:
    calls = tracer.calls()
    own = tracer.self_times()
    numbers: dict[str, float] = {}
    for name in tracer.names:
        if name == ROOT_SPAN:
            continue
        numbers[f"{name}.calls"] = calls[name]
        numbers[f"{name}.self_s"] = own[name]
        layer = name.split(".")[0]
        numbers[f"{layer}.self_s"] = numbers.get(f"{layer}.self_s", 0.0) + own[name]
    agents = len(config.scenario.agents)
    numbers["network.vehicles"] = (
        calls["network.simulate"] * agents
        + calls["network.simulate_without"] * (agents - 1)
    )
    hits = sum(cache.stats.hits for cache in peaks)
    misses = sum(cache.stats.misses for cache in peaks)
    numbers["rewards.cache.hits"] = hits
    numbers["rewards.cache.misses"] = misses
    numbers["rewards.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    numbers["rewards.cache.evictions"] = sum(cache.stats.evictions for cache in peaks)
    numbers["rewards.cache.peak_entries"] = max(peaks.values(), default=0)
    busy = tracer.cpu_s.get("harness.run_seed", 0.0)
    fan_out = _union_length(tracer.intervals("harness.run_seed"))
    numbers["harness.run_seed.busy_s"] = busy
    numbers["harness.parallel_efficiency"] = busy / (config.jobs * fan_out) if fan_out else 0.0
    numbers["harness.artifact_bytes"] = sum(
        path.stat().st_size for path in config.out_dir.rglob("*") if path.is_file()
    )
    (root_start, root_end), = tracer.intervals(ROOT_SPAN)
    numbers["trace.unattributed_s"] = own[ROOT_SPAN]
    numbers["trace.wall_s"] = root_end - root_start
    return numbers


def additivity_problems(numbers: dict, layers: set[str]) -> list[str]:
    """Layer self times plus unattributed time must make up the traced wall time."""
    total = sum(numbers[f"{layer}.self_s"] for layer in layers) + numbers["trace.unattributed_s"]
    if abs(total - numbers["trace.wall_s"]) > 1e-6 * numbers["trace.wall_s"]:
        return [f"layer self times sum to {total} s, traced wall time is {numbers['trace.wall_s']} s"]
    return []


def kernel_probe(root: Path) -> tuple[dict, list[str]]:
    """Microseconds per 22-agent ``simulate`` call, exact and noisy.

    The exact result is first compared with the independent oracle in
    ``tests/oracle_sim.py``, which is read, never written (no bytecode).
    """
    from routelab import simulate, two_route_yield_scenario

    oracle = runpy.run_path(str(root / "tests" / "oracle_sim.py"))["oracle_travel_times"]
    exact = two_route_yield_scenario()
    # Pairs of agents alternate routes, so both merge rules are exercised.
    action = {agent.id: (agent.id // 2) % 2 for agent in exact.agents}
    problems = []
    if simulate(exact, action).times != oracle(exact, action):
        problems.append("kernel probe: simulate disagrees with tests/oracle_sim.py")
    numbers = {}
    for label, scenario in (("exact", exact), ("noisy", exact.with_noise(PROBE_NOISE_SIGMA))):
        samples = []
        for _ in range(PROBE_BATCHES):
            start = time.perf_counter()
            for seed in range(PROBE_CALLS):
                simulate(scenario, action, seed)
            samples.append((time.perf_counter() - start) / PROBE_CALLS * 1e6)
        numbers[f"network.kernel_us.{label}"] = statistics.median(samples)
    return numbers, problems


def peak_rss_mb() -> float:
    """High-water resident set of this process image.

    ``ru_maxrss`` is not used: it keeps the parent's resident set from before
    the exec, so it would report the memory of run.py, the parent.
    """
    with open("/proc/self/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    root = Path(job["root"])

    start = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    import routelab
    import routelab.harness as harness

    if not Path(routelab.__file__).resolve().is_relative_to(root / "src"):
        print(f"routelab imported from {routelab.__file__}, not the checkout", file=sys.stderr)
        return 2
    config = harness.load_config(job["config"])
    setup_s = time.perf_counter() - start
    if job.get("setup_only"):
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer() if job["trace"] else None

    peaks: dict = {}
    if tracer is not None:
        install_spans(tracer, peaks)
        start = time.perf_counter()
        with tracer.span(ROOT_SPAN):
            run_workload(harness, job["workload"], config)
    else:
        start = time.perf_counter()
        run_workload(harness, job["workload"], config)
    run_s = time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb(),
        "problems": [],
    }
    if tracer is not None:
        layers = layer_numbers(tracer, peaks, config)
        probe, result["problems"] = kernel_probe(root)
        result["problems"] += additivity_problems(
            layers, {name.split(".")[0] for name in tracer.names if name != ROOT_SPAN}
        )
        result["layers"] = {**layers, **probe}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1]))
