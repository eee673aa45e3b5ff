"""Event-based micro-simulator for parallel-route networks with a priority merge.

The world is a set of K parallel routes feeding one merge point. Each route
has a free-flow time from origin to the merge and either holds priority at
the merge or must yield. A vehicle's trip is

    departure -> merge arrival -> merge passage -> arrival

and congestion only arises from the passage discipline at the merge:

* consecutive passages are separated by at least ``merge_gap_g`` seconds;
* a vehicle on a priority route passes at ``max(arrival, last_passage + g)``;
* a vehicle on a yielding route may not pass while any priority-route
  vehicle that has not yet passed arrives within ``yield_window_w`` seconds
  of the candidate passage time; it re-evaluates after that vehicle clears.

Ties in passage time are broken by ``(departure_time, agent id)`` ascending.
With ``noise_sigma == 0`` the simulation is a pure function of its inputs;
with noise, each merge arrival is jittered by Uniform(-sigma, +sigma) drawn
from a generator sub-seeded by ``(seed, agent id)`` so runs are reproducible
per seed and unaffected by which other agents are present. ``Scenario``
rejects a sigma at or above the shortest pre-merge time, since such jitter
could put a merge arrival before its departure.

One kernel, ``simulate_batch``, resolves the merge for the full roster and
for each roster without one AV (the counterfactuals of the shaped reward);
``simulate`` and ``simulate_without`` are thin wrappers over it. It draws
each agent's noise once per call and resolves the merge in one ordered
event pass, O(n log n), relying on at most one yielding route per merge:

* a vehicle that reached the merge by the time it is next free waits, and
  waiting vehicles of one class pass in (departure, id) order;
* a waiting priority vehicle always passes first;
* otherwise waiting yielding vehicles pass unless the next priority arrival
  falls inside the window;
* otherwise the earliest yielding arrival passes if the next priority
  arrival falls beyond its window, else that priority vehicle passes.

Every passage is still ``arrival`` or ``last_passage + g``, so results are
bit-for-bit those of the rules above. A counterfactual takes the same steps
as the full run until the removed vehicle's turn, so it resumes from the
full run's state there and stops once both runs have passed the same
vehicles with the merge free at the same time again.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Iterable, Mapping


class ConfigurationError(ValueError):
    """A scenario, action, or runtime parameter violates its contract."""


def reject_unknown_keys(doc: Mapping, known: Iterable[str], what: str) -> None:
    """Fail on keys of a config document that nothing reads, such as typos."""
    known = sorted(known)
    unknown = sorted(set(doc).difference(known))
    if unknown:
        raise ConfigurationError(f"unknown {what} key(s) {unknown}; known keys are {known}")


@dataclass(frozen=True)
class RouteSpec:
    """One origin->merge route: free-flow time and merge priority."""

    pre_merge_time: float
    has_priority: bool

    def validate(self) -> None:
        if not math.isfinite(self.pre_merge_time) or self.pre_merge_time <= 0:
            raise ConfigurationError(
                f"pre_merge_time must be finite and > 0, got {self.pre_merge_time}"
            )


@dataclass(frozen=True)
class NetworkConfig:
    """Route set plus merge discipline parameters (all times in seconds)."""

    routes: tuple[RouteSpec, ...]
    merge_gap_g: float
    yield_window_w: float
    post_merge_time: float

    def validate(self) -> None:
        if len(self.routes) < 2:
            raise ConfigurationError("a network needs at least 2 routes")
        for route in self.routes:
            route.validate()
        yielding = sum(1 for r in self.routes if not r.has_priority)
        if yielding > 1:
            raise ConfigurationError(
                "at most one route per merge may lack priority"
            )
        for name, value in (
            ("merge_gap_g", self.merge_gap_g),
            ("yield_window_w", self.yield_window_w),
            ("post_merge_time", self.post_merge_time),
        ):
            if not math.isfinite(value) or value < 0:
                raise ConfigurationError(f"{name} must be finite and >= 0, got {value}")
        if self.merge_gap_g <= 0:
            raise ConfigurationError("merge_gap_g must be > 0")


@dataclass(frozen=True)
class AgentSpec:
    """One traveller: identity, roster kind, departure time, allowed routes."""

    id: int
    kind: str  # "human" or "av"
    departure_time: float
    action_space: tuple[int, ...]

    def validate(self, n_routes: int) -> None:
        if self.kind not in ("human", "av"):
            raise ConfigurationError(f"agent {self.id}: unknown kind {self.kind!r}")
        if not math.isfinite(self.departure_time) or self.departure_time < 0:
            raise ConfigurationError(f"agent {self.id}: bad departure_time")
        if not self.action_space:
            raise ConfigurationError(f"agent {self.id}: empty action_space")
        for route in self.action_space:
            if not 0 <= route < n_routes:
                raise ConfigurationError(
                    f"agent {self.id}: route {route} not in network"
                )


@dataclass(frozen=True)
class Scenario:
    """Immutable world description: agent roster plus network parameters.

    Agents are kept sorted by strictly increasing departure time, which is
    also the order in which they act each episode.
    """

    agents: tuple[AgentSpec, ...]
    network: NetworkConfig
    noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        self.network.validate()
        if not self.agents:
            raise ConfigurationError("scenario has no agents")
        seen: set[int] = set()
        previous = -math.inf
        for agent in self.agents:
            agent.validate(len(self.network.routes))
            if agent.id in seen:
                raise ConfigurationError(f"duplicate agent id {agent.id}")
            seen.add(agent.id)
            if agent.departure_time <= previous:
                raise ConfigurationError(
                    "agents must have strictly increasing departure times"
                )
            previous = agent.departure_time
        if not math.isfinite(self.noise_sigma) or self.noise_sigma < 0:
            raise ConfigurationError("noise_sigma must be finite and >= 0")
        shortest = min(route.pre_merge_time for route in self.network.routes)
        if self.noise_sigma >= shortest:
            raise ConfigurationError(
                f"noise_sigma {self.noise_sigma} could put a merge arrival before "
                f"departure; it must stay below the shortest pre_merge_time {shortest}"
            )

    @property
    def av_ids(self) -> tuple[int, ...]:
        return tuple(a.id for a in self.agents if a.kind == "av")

    @property
    def human_ids(self) -> tuple[int, ...]:
        return tuple(a.id for a in self.agents if a.kind == "human")

    @property
    def monotone(self) -> bool:
        """Whether removing a vehicle can never delay another in noise-free mode.

        That holds on two routes, exactly one of them yielding, with a yield
        window at least the merge gap (the default calibration). Outside it,
        marginal-cost entries can be positive.
        """
        net = self.network
        return (
            len(net.routes) == 2
            and sum(not route.has_priority for route in net.routes) == 1
            and net.yield_window_w >= net.merge_gap_g
        )

    def agent(self, agent_id: int) -> AgentSpec:
        for a in self.agents:
            if a.id == agent_id:
                return a
        raise ConfigurationError(f"no agent with id {agent_id}")

    def with_noise(self, noise_sigma: float) -> "Scenario":
        return Scenario(self.agents, self.network, noise_sigma)


@dataclass(frozen=True)
class TravelTimeVector:
    """Per-agent experienced travel time (seconds) for one simulation run."""

    times: dict[int, float]
    seed: int

    def __getitem__(self, agent_id: int) -> float:
        return self.times[agent_id]

    def __contains__(self, agent_id: int) -> bool:
        return agent_id in self.times

    def total(self, agent_ids: Iterable[int] | None = None) -> float:
        if agent_ids is None:
            return sum(self.times.values())
        return sum(self.times[i] for i in agent_ids)


def _arrival_noise(seed: int, agent_id: int, sigma: float) -> float:
    # String seeding hashes via sha512, so draws are stable across processes
    # and platforms, and independent of which other agents are simulated.
    rng = random.Random(f"{seed}:{agent_id}")
    return rng.uniform(-sigma, sigma)


class _MergeState:
    """Ordered event pass over one roster's merge arrivals.

    Vehicles not yet at the merge sit in two lists, one per class, sorted
    by (arrival, departure, id); ``pi`` and ``yi`` point at their heads.
    Vehicles that arrived by ``ready``, the earliest time the merge can
    serve again (last passage + gap), wait in a (departure, id) heap per
    class. The state is a pure function of the vehicles not yet passed and
    of ``ready``, so a copy taken before one vehicle passes, minus that
    vehicle, is the state of the run without it.
    """

    __slots__ = ("prio", "yld", "gap", "window", "pi", "yi", "wp", "wy", "ready")

    def __init__(self, prio, yld, gap, window):
        self.prio, self.yld = prio, yld  # (arrival, departure, id), sorted
        self.gap, self.window = gap, window
        self.pi = self.yi = 0
        self.wp: list[tuple[float, int]] = []
        self.wy: list[tuple[float, int]] = []
        self.ready = -math.inf

    def fork(self, ready: float) -> "_MergeState":
        twin = _MergeState(self.prio, self.yld, self.gap, self.window)
        twin.pi, twin.yi = self.pi, self.yi
        twin.wp, twin.wy = self.wp[:], self.wy[:]
        twin.ready = ready
        return twin

    def step(self) -> tuple[int, float]:
        """Pass the next vehicle; returns (id, passage time)."""
        prio, yld, ready = self.prio, self.yld, self.ready
        pi, yi = self.pi, self.yi
        while pi < len(prio) and prio[pi][0] <= ready:
            heapq.heappush(self.wp, prio[pi][1:])
            pi += 1
        while yi < len(yld) and yld[yi][0] <= ready:
            heapq.heappush(self.wy, yld[yi][1:])
            yi += 1
        # A yielding vehicle passing at t is blocked by the next priority
        # arrival if that falls at or before t + window.
        next_priority = prio[pi][0] if pi < len(prio) else math.inf
        if self.wp:  # a waiting priority vehicle always wins
            t, (_, vid) = ready, heapq.heappop(self.wp)
        elif self.wy and next_priority > ready + self.window:
            t, (_, vid) = ready, heapq.heappop(self.wy)
        elif not self.wy and yi < len(yld) and next_priority > yld[yi][0] + self.window:
            t, _, vid = yld[yi]
            yi += 1
        else:
            t, _, vid = prio[pi]
            pi += 1
        self.pi, self.yi = pi, yi
        self.ready = t + self.gap
        return vid, t


def _check_action(scenario: Scenario, action: Mapping[int, int]) -> None:
    if len(action) != len(scenario.agents):
        raise ConfigurationError(
            f"joint action has {len(action)} entries for {len(scenario.agents)} agents"
        )
    for agent in scenario.agents:
        if agent.id not in action:
            raise ConfigurationError(f"joint action missing agent {agent.id}")
        if action[agent.id] not in agent.action_space:
            raise ConfigurationError(
                f"agent {agent.id}: route {action[agent.id]} outside action space"
            )


def simulate_batch(
    scenario: Scenario,
    action: Mapping[int, int],
    removed_ids: Iterable[int] = (),
    seed: int = 0,
) -> list[TravelTimeVector]:
    """The full run plus one leave-one-out run per AV in ``removed_ids``.

    Every run shares the seed and the per-agent noise draws, so each
    counterfactual differs from the full run only by the missing vehicle.
    """
    _check_action(scenario, action)
    removed_ids = tuple(removed_ids)
    wanted = set(removed_ids)
    if not wanted <= set(scenario.av_ids):
        raise ConfigurationError(
            f"agents {sorted(wanted - set(scenario.av_ids))} are not AVs of this "
            "scenario; only AVs may be removed"
        )
    net = scenario.network
    sigma = scenario.noise_sigma
    prio, yld, departures = [], [], {}
    for agent in scenario.agents:
        route = net.routes[action[agent.id]]
        arrival = agent.departure_time + route.pre_merge_time
        if sigma > 0:
            arrival += _arrival_noise(seed, agent.id, sigma)
        (prio if route.has_priority else yld).append(
            (arrival, agent.departure_time, agent.id)
        )
        departures[agent.id] = agent.departure_time
    prio.sort()
    yld.sort()

    def travel_time(vid: int, passage: float) -> float:
        return passage + net.post_merge_time - departures[vid]

    merge = _MergeState(prio, yld, net.merge_gap_g, net.yield_window_w)
    order: list[tuple[int, float]] = []
    forks: dict[int, tuple[int, _MergeState]] = {}
    for _ in departures:
        ready = merge.ready
        vid, t = merge.step()
        if vid in wanted:
            forks[vid] = (len(order), merge.fork(ready))
        order.append((vid, t))
    passages = dict(order)
    base = {vid: travel_time(vid, passages[vid]) for vid in departures}

    runs = [TravelTimeVector(times=base, seed=seed)]
    for removed in removed_ids:
        position, snapshot = forks[removed]
        merge = snapshot.fork(snapshot.ready)  # the snapshot may serve a repeated id
        times = dict(base)
        del times[removed]
        unmatched: set[int] = set()
        for full_vid, full_t in order[position + 1 :]:
            vid, t = merge.step()
            times[vid] = travel_time(vid, t)
            if vid != full_vid:
                unmatched ^= {vid, full_vid}
            if not unmatched and t == full_t:
                # Same vehicles passed, merge free at the same time: from here
                # on the full run's times hold.
                break
        runs.append(TravelTimeVector(times=times, seed=seed))
    return runs


def simulate(scenario: Scenario, action: Mapping[int, int], seed: int = 0) -> TravelTimeVector:
    """Run one episode of the merge simulation for a full joint action."""
    return simulate_batch(scenario, action, (), seed)[0]


def simulate_without(
    scenario: Scenario,
    action: Mapping[int, int],
    removed_agent: int,
    seed: int = 0,
) -> TravelTimeVector:
    """Counterfactual run with one AV (and its action entry) deleted.

    Uses the same seed, and noise draws are keyed per agent id, so the
    remaining agents see exactly the jitter they saw in the full run.
    """
    return simulate_batch(scenario, action, (removed_agent,), seed)[1]
