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

One kernel, ``simulate_slots``, resolves the merge for the full roster and
for each roster without one AV (the counterfactuals of the shaped reward).
Its input is each departure slot's route (slot ``k`` is ``scenario.agents[k]``
and slot order is (departure, id) order). It draws each agent's noise once
per call and resolves the merge in one ordered event pass over heaps of
slots, O(n log n), relying on at most one yielding route per merge:

* a vehicle that reached the merge by the time it is next free waits, and
  waiting vehicles of one class pass in slot order;
* a waiting priority vehicle always passes first;
* otherwise waiting yielding vehicles pass unless the next priority arrival
  falls inside the window;
* otherwise the earliest yielding arrival passes if the next priority
  arrival falls beyond its window, else that priority vehicle passes.

Every passage is still ``arrival`` or ``last_passage + g``, so results are
bit-for-bit those of the rules above. A counterfactual takes the same steps
as the full run until the removed vehicle's turn, so it resumes from the
full run's state there and stops once both runs have passed the same
vehicles with the merge free at the same time again: it comes back as the
sparse ``{slot: travel time}`` entries it re-simulated. ``simulate``,
``simulate_without`` and ``simulate_batch`` are validated wrappers that key
the kernel's results by agent id.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence


class ConfigurationError(ValueError):
    """A scenario, action, or runtime parameter violates its contract."""


def reject_unknown_keys(doc: Mapping, known: Iterable[str], what: str) -> None:
    """Fail on keys of a config document that nothing reads, such as typos."""
    known = sorted(known)
    unknown = sorted(set(doc).difference(known))
    if unknown:
        raise ConfigurationError(f"unknown {what} key(s) {unknown}; known keys are {known}")


def parse_value(cast: Callable, value, what: str):
    """``cast(value)``, or a ConfigurationError naming ``what``.

    Only JSON true/false is a bool, and a bool is nothing else: not 1, not
    1.0. An int read from a float must be whole.
    """
    try:
        if (cast is bool) != isinstance(value, bool):
            raise TypeError
        if cast is int and isinstance(value, float) and not value.is_integer():
            raise ValueError
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{what}: cannot read {value!r} as {cast.__name__}") from exc


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

    @cached_property
    def ids(self) -> tuple[int, ...]:  # by departure slot
        return tuple(a.id for a in self.agents)

    @cached_property
    def av_ids(self) -> tuple[int, ...]:
        return tuple(a.id for a in self.agents if a.kind == "av")

    @cached_property
    def av_slots(self) -> tuple[int, ...]:  # the departure slots of av_ids
        return tuple(k for k, a in enumerate(self.agents) if a.kind == "av")

    @cached_property
    def human_ids(self) -> tuple[int, ...]:
        return tuple(a.id for a in self.agents if a.kind == "human")

    @cached_property
    def slot_tables(self) -> tuple[tuple, tuple, tuple]:
        """What the kernel looks up: departure by slot, pre-merge time and priority by route."""
        pre_merge, prio = zip(*((r.pre_merge_time, r.has_priority) for r in self.network.routes))
        return tuple(a.departure_time for a in self.agents), pre_merge, prio

    @cached_property
    def _spaces(self) -> tuple[tuple[int, ...], ...]:  # action spaces by departure slot
        return tuple(a.action_space for a in self.agents)

    def routes_of(self, action: Mapping[int, int]) -> tuple[int, ...]:
        """Each agent's route in ``action`` by departure slot; raises on a bad or partial action."""
        routes = tuple(map(action.get, self.ids))
        if len(action) == len(routes) and self.fits(routes):
            return routes
        if len(action) != len(routes):
            raise ConfigurationError(
                f"joint action has {len(action)} entries for {len(routes)} agents"
            )
        k = next(k for k, route in enumerate(routes) if route not in self._spaces[k])
        raise ConfigurationError(
            f"joint action missing agent {self.ids[k]}" if self.ids[k] not in action
            else f"agent {self.ids[k]}: route {routes[k]} outside action space"
        )

    def fits(self, routes: Sequence[int]) -> bool:
        """Whether ``routes`` gives each departure slot a route in its agent's action space."""
        return len(routes) == len(self.ids) and all(map(operator.contains, self._spaces, routes))

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


def _arrival_noise(seed: int, agent_id: int, sigma: float) -> float:
    # String seeding hashes via sha512, so draws are stable across processes
    # and platforms, and independent of which other agents are simulated.
    rng = random.Random(f"{seed}:{agent_id}")
    return rng.uniform(-sigma, sigma)


def _passages(pa, ps, ya, ys, gap, window, pi, yi, wp, wy, ready):
    """Pass vehicles from one merge state on, without end; yields (slot, time, pi, yi).

    Per class, vehicles not yet at the merge are sorted by (arrival, slot):
    arrivals ``pa``/``ya`` (with an ``inf`` sentinel) and slots ``ps``/``ys``,
    read from ``pi``/``yi``. Those that arrived by ``ready`` (last passage +
    gap) wait in the slot heaps ``wp``/``wy``. The state after a passage,
    with ``ready`` as before it, is that of the run without that vehicle.
    """
    push, pop = heapq.heappush, heapq.heappop
    while True:
        while pa[pi] <= ready:
            push(wp, ps[pi])
            pi += 1
        while ya[yi] <= ready:
            push(wy, ys[yi])
            yi += 1
        # A yielding vehicle passing at t is blocked by the next priority
        # arrival if that falls at or before t + window.
        if wp:  # a waiting priority vehicle always wins
            t, k = ready, pop(wp)
        elif wy and pa[pi] > ready + window:
            t, k = ready, pop(wy)
        elif not wy and pa[pi] > ya[yi] + window:  # never true once ya is spent
            t, k = ya[yi], ys[yi]
            yi += 1
        else:
            t, k = pa[pi], ps[pi]
            pi += 1
        ready = t + gap
        yield k, t, pi, yi


def simulate_slots(
    scenario: Scenario, routes: tuple[int, ...], removed: Sequence[int] = (), seed: int = 0
) -> tuple[list[float], list[dict[int, float]]]:
    """The full run's travel times by slot, and per slot in ``removed`` the run without it.

    ``routes`` is not checked. A counterfactual is the ``{slot: travel
    time}`` entries it re-simulated; every other slot keeps its full-run time.
    """
    departures, pre_merge, priority = scenario.slot_tables
    net = scenario.network
    gap, window, post = net.merge_gap_g, net.yield_window_w, net.post_merge_time
    arrival = [d + pre_merge[r] for d, r in zip(departures, routes)]
    if scenario.noise_sigma > 0:
        noise = (_arrival_noise(seed, i, scenario.noise_sigma) for i in scenario.ids)
        arrival = [a + e for a, e in zip(arrival, noise)]
    ps = sorted((k for k, r in enumerate(routes) if priority[r]), key=arrival.__getitem__)
    ys = sorted((k for k, r in enumerate(routes) if not priority[r]), key=arrival.__getitem__)
    pa = [arrival[k] for k in ps] + [math.inf]
    ya = [arrival[k] for k in ys] + [math.inf]

    wp, wy = [], []
    forks = dict.fromkeys(removed)
    full, order = [0.0] * len(routes), []
    ready = -math.inf
    for k, t, pi, yi in itertools.islice(
        _passages(pa, ps, ya, ys, gap, window, 0, 0, wp, wy, ready), len(routes)
    ):
        if k in forks:
            forks[k] = (len(order), pi, yi, wp[:], wy[:], ready)
        order.append((k, t))
        full[k] = t + post - departures[k]
        ready = t + gap

    counterfactuals = []
    for j in removed:
        position, pi, yi, wp, wy, ready = forks[j]
        sparse, unmatched = {}, set()
        rest = _passages(pa, ps, ya, ys, gap, window, pi, yi, wp[:], wy[:], ready)
        for (full_k, full_t), (k, t, _, _) in zip(order[position + 1 :], rest):
            sparse[k] = t + post - departures[k]
            if k != full_k:
                unmatched ^= {k, full_k}
            if not unmatched and t == full_t:
                # Same vehicles passed, merge free at the same time: from here
                # on the full run's times hold.
                break
        counterfactuals.append(sparse)
    return full, counterfactuals


def counterfactual_row(full: list[float], removed: int, sparse: Mapping[int, float]) -> list[float]:
    """A counterfactual's travel times by slot, NaN at the removed slot."""
    row = full.copy()
    row[removed] = math.nan
    for k, t in sparse.items():
        row[k] = t
    return row


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
    routes, removed_ids = scenario.routes_of(action), tuple(removed_ids)
    not_avs = sorted(set(removed_ids).difference(scenario.av_ids))
    if not_avs:
        raise ConfigurationError(f"agents {not_avs} are not AVs; only AVs may be removed")
    slots = [scenario.ids.index(j) for j in removed_ids]
    full, counterfactuals = simulate_slots(scenario, routes, slots, seed)
    base = dict(zip(scenario.ids, full))
    runs = [TravelTimeVector(times=base, seed=seed)]
    for j, sparse in zip(removed_ids, counterfactuals):
        times = base.copy()
        del times[j]
        times.update((scenario.ids[k], t) for k, t in sparse.items())
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
