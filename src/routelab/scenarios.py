"""Scenario construction and JSON (de)serialisation.

The JSON schema mirrors the dataclass fields one to one::

    {
      "network": {
        "routes": [{"pre_merge_time": 40.0, "has_priority": false}, ...],
        "merge_gap_g": 2.0,
        "yield_window_w": 6.0,
        "post_merge_time": 10.0
      },
      "agents": [
        {"id": 0, "kind": "human", "departure_time": 0.0, "action_space": [0, 1]},
        ...
      ],
      "noise_sigma": 0.0
    }
"""

from __future__ import annotations

import json
from pathlib import Path

from .network import (
    AgentSpec,
    ConfigurationError,
    NetworkConfig,
    RouteSpec,
    Scenario,
    parse_value,
    read_document,
)

# Calibrated defaults for the two-route yield world: Route 0 is shorter but
# must yield at the merge, Route 1 is longer with priority. Verified by
# exhaustive enumeration (see the acceptance suite): with 22 agents at 4 s
# headway, everyone-on-route-0 is both the unique Nash equilibrium of the
# selfish game and the unique system optimum.
DEFAULT_PRE_MERGE = (40.0, 50.0)
DEFAULT_POST_MERGE = 10.0
DEFAULT_MERGE_GAP = 2.0
DEFAULT_YIELD_WINDOW = 6.0
DEFAULT_HEADWAY = 4.0
DEFAULT_AGENT_COUNT = 22
# Odd ids 1..19: ten agents interleaved with the humans they share the road with.
DEFAULT_AV_IDS = tuple(range(1, 20, 2))
DEFAULT_NOISE_SIGMA = 2.0


def two_route_yield_network(
    pre_merge: tuple[float, float] = DEFAULT_PRE_MERGE,
    post_merge: float = DEFAULT_POST_MERGE,
    merge_gap: float = DEFAULT_MERGE_GAP,
    yield_window: float = DEFAULT_YIELD_WINDOW,
) -> NetworkConfig:
    return NetworkConfig(
        routes=(
            RouteSpec(pre_merge_time=pre_merge[0], has_priority=False),
            RouteSpec(pre_merge_time=pre_merge[1], has_priority=True),
        ),
        merge_gap_g=merge_gap,
        yield_window_w=yield_window,
        post_merge_time=post_merge,
    )


def two_route_yield_scenario(
    n_agents: int = DEFAULT_AGENT_COUNT,
    av_ids: tuple[int, ...] = DEFAULT_AV_IDS,
    headway: float = DEFAULT_HEADWAY,
    noise_sigma: float = 0.0,
    network: NetworkConfig | None = None,
) -> Scenario:
    """Build the default desk-scale scenario on the two-route yield network."""
    net = network or two_route_yield_network()
    avs = set(av_ids)
    if not avs.issubset(range(n_agents)):
        raise ConfigurationError("av_ids must be agent ids in range(n_agents)")
    agents = tuple(
        AgentSpec(
            id=i,
            kind="av" if i in avs else "human",
            departure_time=i * headway,
            action_space=tuple(range(len(net.routes))),
        )
        for i in range(n_agents)
    )
    return Scenario(agents=agents, network=net, noise_sigma=noise_sigma)


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "network": {
            "routes": [
                {"pre_merge_time": r.pre_merge_time, "has_priority": r.has_priority}
                for r in scenario.network.routes
            ],
            "merge_gap_g": scenario.network.merge_gap_g,
            "yield_window_w": scenario.network.yield_window_w,
            "post_merge_time": scenario.network.post_merge_time,
        },
        "agents": [
            {
                "id": a.id,
                "kind": a.kind,
                "departure_time": a.departure_time,
                "action_space": list(a.action_space),
            }
            for a in scenario.agents
        ],
        "noise_sigma": scenario.noise_sigma,
    }


# Each scenario document key, by level, and the JSON type parse_value reads it as.
SCENARIO_TYPES = {"network": dict, "agents": tuple, "noise_sigma": float}
NETWORK_TYPES = {
    "routes": tuple, "merge_gap_g": float, "yield_window_w": float, "post_merge_time": float
}
ROUTE_TYPES = {"pre_merge_time": float, "has_priority": bool}
AGENT_TYPES = {"id": int, "kind": str, "departure_time": float, "action_space": tuple}


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a scenario from its JSON document; unknown keys at any level are errors."""
    try:
        fields = read_document(doc, SCENARIO_TYPES, "scenario")
        net = read_document(fields["network"], NETWORK_TYPES, "network")
        net["routes"] = tuple(
            RouteSpec(**read_document(r, ROUTE_TYPES, "route")) for r in net["routes"]
        )
        fields["network"] = NetworkConfig(**net)
        agents = []
        for a in fields["agents"]:
            a = read_document(a, AGENT_TYPES, "agent")
            a["action_space"] = tuple(
                parse_value(int, r, "agent action_space") for r in a["action_space"]
            )
            agents.append(AgentSpec(**a))
        fields["agents"] = tuple(agents)
        return Scenario(**fields)
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(f"malformed scenario document: {exc}") from exc


def load_scenario(path: str | Path) -> Scenario:
    with open(path, encoding="utf-8") as handle:
        return scenario_from_dict(json.load(handle))


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(scenario_to_dict(scenario), handle, indent=2)
        handle.write("\n")
