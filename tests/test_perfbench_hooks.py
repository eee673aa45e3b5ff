"""The benchmark's traced pass must still find what it wraps.

``perfbench/worker.py`` wraps routelab functions and methods by name (for
example ``RewardEngine.evaluate``, ``humans.run_episode`` and
``UcbLearner.update``), so renaming one breaks ``--trace 1``. This installs
its spans in a fresh interpreter that writes no bytecode, so nothing under
``perfbench/`` changes. A day loop that stops calling a wrapped binding would
go dark in ``--trace 1`` without failing it, so a tiny traced train run also
counts the calls each day loop makes through them, and a tiny traced
equilibrium grid counts the analyses it runs through them.

The benchmark also records peak RSS, which loading OpenSSL (through
``hashlib``) raised by 3.6 MB on the noisy training workload, so neither
noise path may load it: a tiny noisy run's days, drawn in lanes as every
planned noisy run draws them, and then one noisy ``simulate`` day, drawn
alone by ``random.Random``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INSTALL = (
    "import sys; sys.path[:0] = ['perfbench', 'src']; import worker, spans; "
    "worker.install_spans(spans.Tracer(), {})"
)


TRAIN = INSTALL.replace("spans.Tracer()", "tracer := spans.Tracer()") + (
    "; import json, routelab.harness as h; from routelab.rewards import RewardConfig; "
    "h.run_experiment(h.RunConfig(reward=RewardConfig(beta=200.0), warmup_days=5, "
    "train_episodes=7, eval_episodes=3, seeds=(0, 1), out_dir=sys.argv[1])); "
    "print(json.dumps(tracer.calls()))"
)


GRID = INSTALL.replace("spans.Tracer()", "tracer := spans.Tracer()") + (
    "; import json, routelab as r, routelab.harness as h; "
    "net = r.NetworkConfig((r.RouteSpec(40.0, False), r.RouteSpec(50.0, True)), 2.0, 6.0, 10.0); "
    "agents = tuple(r.AgentSpec(i, 'av' if i % 2 else 'human', 4.0 * i, (0, 1)) for i in range(6)); "
    "config = h.RunConfig(scenario=r.Scenario(agents, net), warmup_days=5, seeds=(0,), "
    "out_dir=sys.argv[1]); "
    "h.equilibrium_grid(config, [1.0], [0.0, 10.0], 'system'); "
    "print(json.dumps(tracer.calls()))"
)


NOISY_RUN = (
    "import sys; sys.path[:0] = ['src']; import routelab.harness as h, routelab.network as n; "
    "from routelab.rewards import RewardConfig; "
    "lanes, alone, calls = n._seeded_words, n._arrival_noise, []; "
    "n._seeded_words = lambda *a: calls.append('lanes') or lanes(*a); "
    "n._arrival_noise = lambda *a: calls.append('alone') or alone(*a); "
    "h.run_experiment(h.RunConfig(reward=RewardConfig(beta=200.0), warmup_days=2, "
    "train_episodes=3, eval_episodes=2, seeds=(0,), mode='stochastic', out_dir=sys.argv[1])); "
    "report = lambda: print('_hashlib' in sys.modules, calls.count('lanes'), calls.count('alone')); "
    "report(); import routelab as r; world = r.two_route_yield_scenario().with_noise(2.0); "
    "r.simulate(world, {i: i % 2 for i in world.ids}, 7); report()"
)


def run_fresh(*argv: str) -> str:
    done = subprocess.run(
        [sys.executable, "-B", "-c", *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_traced_pass_finds_every_binding_it_wraps():
    run_fresh(INSTALL)


def test_traced_train_days_go_through_the_wrapped_bindings(tmp_path):
    calls = json.loads(run_fresh(TRAIN, str(tmp_path / "run")))
    assert calls["episode.run_episode"] == (5 + 7 + 3) * 2  # every day of both seeds
    assert calls["humans.run_warmup"] == calls["learners.train"] == 2
    assert calls["equilibrium.system_optimum"] == 2  # one per seed, inside harness.run_seed
    assert calls["humans.choose_update"] > 0
    assert calls["learners.select_update"] > 0


def test_traced_grid_goes_through_the_wrapped_bindings(tmp_path):
    calls = json.loads(run_fresh(GRID, str(tmp_path / "grid")))
    assert calls["harness.equilibrium_grid"] == 1
    assert calls["equilibrium.enumerate_nash"] == 2  # one per beta
    assert calls["equilibrium.deviation_records"] == 1


def test_noisy_run_leaves_openssl_unloaded(tmp_path):
    # One lane pass for the warm-up's days, one for training's and evaluation's,
    # and no day drawn alone; then the single day, drawn alone.
    assert run_fresh(NOISY_RUN, str(tmp_path / "run")) == "False 2 0\nFalse 2 1\n"
