"""Straight-line re-implementation of the merge rules, used as a test oracle.

Deliberately written from the rules as prose, with a different structure
from the package implementation: plain dicts, explicit blocker lists, and
no shared helpers. With noise, each agent's merge arrival is moved by its
own draw for the day, ``random.Random(f"{seed}:{id}").uniform(-sigma,
sigma)``, whoever else is on the road.
"""

from __future__ import annotations

import random


def oracle_travel_times(scenario, action, seed=0):
    """Independent travel-time computation for a scenario on the day of ``seed``."""
    return oracle_subset_times(scenario, action, [a.id for a in scenario.agents], seed)


def oracle_subset_times(scenario, action, agent_ids, seed=0):
    """Same rules restricted to a subset of the roster (counterfactual runs)."""
    net = scenario.network
    sigma = scenario.noise_sigma
    todo = []
    for agent in scenario.agents:
        if agent.id not in agent_ids:
            continue
        route = net.routes[action[agent.id]]
        jitter = 0.0
        if sigma > 0:
            jitter = random.Random(f"{seed}:{agent.id}").uniform(-sigma, sigma)
        todo.append(
            {
                "id": agent.id,
                "departure": agent.departure_time,
                "arrival": agent.departure_time + route.pre_merge_time + jitter,
                "priority": route.has_priority,
            }
        )

    passage_time = {}
    last_passage = None
    while todo:
        candidates = []
        for vehicle in todo:
            if last_passage is None:
                t = vehicle["arrival"]
            else:
                t = max(vehicle["arrival"], last_passage + net.merge_gap_g)
            if not vehicle["priority"]:
                blockers = [
                    other
                    for other in todo
                    if other["priority"]
                    and other["arrival"] <= t + net.yield_window_w
                ]
                if blockers:
                    continue  # must wait for every such vehicle to clear
            candidates.append((t, vehicle["departure"], vehicle["id"], vehicle))
        t, _, _, vehicle = min(candidates)
        passage_time[vehicle["id"]] = t
        last_passage = t
        todo.remove(vehicle)

    return {
        agent.id: passage_time[agent.id] + net.post_merge_time - agent.departure_time
        for agent in scenario.agents
        if agent.id in agent_ids
    }
