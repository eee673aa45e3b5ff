"""routelab benchmark: one command, three closed-loop workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

    train-noisy        configs/train_social_ucb.json, one seed, stochastic
    train-exact-2seed  the same config, deterministic, two seeds, jobs=2
    equilibria-grid    equilibrium_grid, alpha 1, five betas, two scopes

The seed only picks the run seeds written into the generated config; the
program sees nothing but that config. One job runs at a time and every
repetition is a fresh child process (perfbench/worker.py), so each one pays
for its own import and cold caches, as a user's run would.

``--trace 0`` repeats the workload until ``--seconds`` are used (at least
three times) and reports the median of each end-to-end metric; ``setup_s``
also takes in two set-up-only children before each repetition. ``--trace 1``
spends half the time on untraced repetitions, then makes one traced
repetition and reports the per-layer metrics, including the tracing
overhead against the untraced median.

Every repetition's outputs are checked. The first one is checked in full
(checks.py: invariants, the independent oracle in tests/oracle_sim.py and,
at the default seed, the sha256 digests in perfbench/expected.json); later
ones must reproduce its digests byte for byte. A repetition that raises or
fails a check counts as failed; it never aborts the benchmark.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Outputs go to
``.perfbench_out/`` in the checkout and are removed after each run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import runpy
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
from worker import GRID_ALPHAS, GRID_BETAS, GRID_SCOPES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
SHIPPED_CONFIG = ROOT / "configs" / "train_social_ucb.json"
OUT_ROOT = ROOT / ".perfbench_out"
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
MIN_REPS = 3
# Set-up-only children before each repetition, so setup_s is the median of
# many samples spread over the whole run.
SETUP_SAMPLES_PER_REP = 2
MAX_PRINTED_PROBLEMS = 20
CHILD_TIMEOUT_S = 150
TINY_PHASES = {"warmup_days": 5, "train_episodes": 20, "eval_episodes": 5}
TINY_GRID_AVS = 3
CHILD_ENV = {
    "PYTHONHASHSEED": "0",  # the same string hashing, and dict layouts, in every child
    # numpy must not start a thread pool of its own: jobs sets the threads.
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
NOTE = (
    "Measured on a shared machine; the machine-wide page cache, CPU frequency "
    "and other tenants' load were not controlled."
)


def generated_config(workload: str, seed: int, size: str, out_dir: Path) -> dict:
    """The run config the program sees: the shipped one plus seed-derived fields."""
    doc = json.loads(SHIPPED_CONFIG.read_text(encoding="utf-8"))
    scenario = json.loads((SHIPPED_CONFIG.parent / doc["scenario"]).read_text(encoding="utf-8"))
    if workload == "train-exact-2seed":
        doc.update(mode="deterministic", seeds=[2 * seed, 2 * seed + 1], jobs=2)
    else:
        doc.update(seeds=[seed], jobs=1)
    if size == "tiny":
        doc.update(TINY_PHASES)
        if workload == "equilibria-grid":
            avs = [a for a in scenario["agents"] if a["kind"] == "av"]
            for agent in avs[TINY_GRID_AVS:]:
                agent["kind"] = "human"
    doc.update(scenario=scenario, out_dir=str(out_dir))
    return doc


def work_units(workload: str, doc: dict) -> int:
    """Simulated days, or profiles x grid points for the equilibria grid."""
    if workload == "equilibria-grid":
        avs = sum(1 for a in doc["scenario"]["agents"] if a["kind"] == "av")
        return 2**avs * len(GRID_ALPHAS) * len(GRID_BETAS) * len(GRID_SCOPES)
    days = doc["warmup_days"] + doc["train_episodes"] + doc["eval_episodes"]
    return days * len(doc["seeds"])


def run_child(job: dict, job_path: Path) -> tuple[dict | None, str]:
    job_path.write_text(json.dumps(job), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path)],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            env={**os.environ, **CHILD_ENV},
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return None, f"worker failed: {tail[0]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


class Repetitions:
    """Runs and checks repetitions of one workload at one seed."""

    def __init__(self, workload, seed, size, expected, work: Path, routelab, oracle):
        self.workload = workload
        self.doc = generated_config(workload, seed, size, work / "out")
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.doc, indent=1), encoding="utf-8")
        self.work = work
        self.expected = expected
        self.routelab = routelab
        self.oracle = oracle
        self.reference: tuple[dict, list[str]] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _check(self, out_dir: Path) -> list[str]:
        found = checks.digests(out_dir)
        if self.reference is not None:
            digests, problems = self.reference
            return problems if found == digests else ["outputs differ from the first repetition"]
        if self.workload == "equilibria-grid":
            problems = checks.check_grid(
                out_dir, self.doc, self.routelab, self.oracle, GRID_ALPHAS, GRID_BETAS, GRID_SCOPES
            )
        else:
            problems = checks.check_train(out_dir, self.doc, self.routelab, self.oracle)
        if self.expected is not None and found != self.expected:
            names = sorted(n for n in found.keys() | self.expected.keys() if found.get(n) != self.expected.get(n))
            problems.append(f"digests differ from expected.json: {', '.join(names)}")
        self.reference = (found, problems)
        return problems

    def setup_only(self) -> float | None:
        """Set-up time of one child that imports routelab and loads the config."""
        job = {"root": str(ROOT), "config": str(self.config_path), "setup_only": True}
        result, _ = run_child(job, self.work / "job.json")
        return None if result is None else result["setup_s"]

    def run(self, trace: bool) -> dict | None:
        """One repetition; returns the worker's numbers, or None when it raised.

        A repetition whose outputs fail a check still returns its numbers:
        it counts as failed, and the result is marked incorrect.
        """
        self.attempted += 1
        out_dir = Path(self.doc["out_dir"])
        job = {
            "workload": self.workload,
            "root": str(ROOT),
            "config": str(self.config_path),
            "trace": trace,
        }
        result, error = run_child(job, self.work / "job.json")
        if result is None:
            problems = [error]
        else:
            try:
                problems = result["problems"] + self._check(out_dir)
            except Exception as exc:  # malformed outputs fail the run, not the benchmark
                problems = [f"outputs unreadable: {exc!r}"]
        shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return result


def repeat_untraced(
    reps: Repetitions, budget_s: float, minimum: int, setup_samples: int = 0
) -> tuple[list[dict], list[float]]:
    """Repeat until the next repetition would overrun the budget.

    Returns the repetitions' numbers and the set-up times of the
    ``setup_samples`` set-up-only children run before each repetition.
    """
    results, setups, walls = [], [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        setups += [reps.setup_only() for _ in range(setup_samples)]
        result = reps.run(trace=False)
        walls.append(time.perf_counter() - began)
        if result is not None:
            results.append(result)
        elapsed = time.perf_counter() - start
        if reps.attempted >= minimum and (
            not results or elapsed + statistics.median(walls) > budget_s
        ):
            return results, [s for s in setups if s is not None]


def end_to_end(results: list[dict], setups: list[float], units: int) -> dict[str, float]:
    run_s = statistics.median(r["run_s"] for r in results)
    return {
        "run_s": run_s,
        "throughput_per_s": units / run_s,
        "setup_s": statistics.median([r["setup_s"] for r in results] + setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def per_layer(traced: dict, untraced_run_s: float) -> dict[str, float]:
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = traced["run_s"] / untraced_run_s
    return layers


def cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.machine()


def environment(seed: int, runs: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "runs": runs,
        "note": NOTE,
    }


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    expected: dict | None = None,
) -> dict:
    """Run one benchmark invocation; returns the result plus its context."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import routelab

    oracle = runpy.run_path(str(ROOT / "tests" / "oracle_sim.py"))
    OUT_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_ROOT))
    try:
        reps = Repetitions(workload, seed, size, expected, work, routelab, oracle)
        units = work_units(workload, reps.doc)
        if not trace:
            results, setups = repeat_untraced(reps, seconds, MIN_REPS, SETUP_SAMPLES_PER_REP)
            metrics = end_to_end(results, setups, units) if results else None
        else:
            results, _ = repeat_untraced(reps, seconds / 2, 1)
            traced = reps.run(trace=True) if results else None
            metrics = None
            if traced is not None:
                metrics = per_layer(traced, statistics.median(r["run_s"] for r in results))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": reps.failed == 0,
        "attempted": reps.attempted,
        "failed": reps.failed,
        "metrics": metrics,
        "problems": reps.problems,
        "env": environment(seed, reps.attempted),
    }


def report(workload: str, outcome: dict, trace: bool) -> dict:
    """Print the readable lines and return the final JSON object."""
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = {m["name"]: {"value": outcome["metrics"][m["name"]], "unit": m["unit"]} for m in declared}
    print(f"env: {json.dumps(outcome['env'])}")
    problems = list(dict.fromkeys(outcome["problems"]))
    for problem in problems[:MAX_PRINTED_PROBLEMS]:
        print(f"problem: {problem}")
    if len(problems) > MAX_PRINTED_PROBLEMS:
        print(f"problem: ... and {len(problems) - MAX_PRINTED_PROBLEMS} more")
    for name, metric in metrics.items():
        alias = ""
        if name == "throughput_per_s":
            alias = "  (profiles_per_s)" if workload == "equilibria-grid" else "  (days_per_s)"
        print(f"{workload} {name} = {metric['value']:.6g} {metric['unit']}{alias}")
    rate = outcome["failed"] / outcome["attempted"]
    print(f"{workload} error_rate = {rate:.6g} ({outcome['failed']} of {outcome['attempted']} runs failed)")
    return {
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    missing = [
        path for path in (ROOT / "src" / "routelab", SHIPPED_CONFIG, ROOT / "tests" / "oracle_sim.py")
        if not path.exists()
    ]
    if missing:
        print(f"error: not a routelab checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    expected = EXPECTED["digests"][args.workload] if args.seed == EXPECTED["seed"] else None
    outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace), expected=expected)
    if outcome["metrics"] is None:
        for problem in dict.fromkeys(outcome["problems"]):
            print(f"error: {problem}", file=sys.stderr)
        return 1
    print(json.dumps(report(args.workload, outcome, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
