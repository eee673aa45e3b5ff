"""README's examples work as documented.

Every ``python`` block runs in a temporary working directory. Every
``routelab`` command of the shell blocks parses with the CLI's own parser,
and the quick ones run end to end there, with ``configs/`` copied in;
``train`` and ``sweep-beta`` take seconds, so they are only parsed. The
run-config and scenario JSON blocks load through the readers the CLI uses.
"""

from __future__ import annotations

import json
import re
import shlex
import shutil
from pathlib import Path

import pytest

from routelab.cli import build_parser, main
from routelab.harness import config_from_dict
from routelab.scenarios import scenario_from_dict

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(
    r"^```(\w*)\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S
)
COMMANDS = [
    shlex.split(line)[1:]
    for language, body in BLOCKS
    if language == "bash"
    for line in body.replace("\\\n", " ").splitlines()
    if line.startswith("routelab ")
]
END_TO_END = ("simulate", "equilibria", "marginal")


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_cli_examples_cover_every_subcommand():
    assert {argv[0] for argv in COMMANDS} == {
        "simulate", "train", "sweep-beta", "equilibria", "marginal", "report"
    }


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_cli_example_parses_and_the_quick_ones_run(workdir, argv):
    args = build_parser().parse_args(argv)
    if args.command in END_TO_END:
        assert main(argv) == 0


@pytest.mark.parametrize(
    "code", [body for language, body in BLOCKS if language == "python"], ids=lambda _: "block"
)
def test_python_example_runs(workdir, code):
    exec(compile(code, "README.md", "exec"), {"__name__": "readme"})


def test_json_examples_load():
    run_config, scenario = (json.loads(body) for language, body in BLOCKS if language == "json")
    config_from_dict(run_config, base_dir=ROOT / "configs")
    scenario_from_dict(scenario)
