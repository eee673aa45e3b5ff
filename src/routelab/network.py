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
with noise, each merge arrival is jittered by Uniform(-sigma, +sigma): agent
``i``'s draw on a day of seed ``s`` is
``random.Random(f"{s}:{i}").uniform(-sigma, sigma)``, so runs are reproducible
per seed, across processes and platforms, and unaffected by which other
agents are present. ``Scenario`` rejects a sigma at or above the shortest
pre-merge time, since such jitter could put a merge arrival before its
departure.

A day's draws come from one of two makers, bit for bit alike.
``_arrival_noise`` is the rule itself, one fresh generator per agent; it
serves single days: ``simulate``, ``simulate_without``, the CLI's
``simulate``, any day a run did not plan and any day whose keys pass 624
words. ``_arrival_noise_days`` serves the other days a run plans
(``RewardEngine.plan``): it re-implements CPython's string seeding as numpy
lanes, one key per lane, and so makes many days' draws at once.

Two kernels resolve the merge, one per traffic shape, and give the same
floats. ``simulate_slots`` serves the day loop: one roster a day, noisy or
not, plus the rosters without each AV (the counterfactuals of the shaped
reward). ``simulate_rosters`` serves the equilibrium analyzer: thousands of
noise-free rosters known in advance, resolved together as numpy lanes, pass
after pass in lane buffers that last the call. A day is too small to batch:
one roster and its counterfactuals cost far more as a pass of lanes than
through ``simulate_slots``.

Both take each departure slot's route (slot ``k`` is ``scenario.agents[k]``
and slot order is (departure, id) order). ``simulate_slots`` draws each
agent's noise once per call and resolves the merge in one ordered event pass
over heaps of slots, O(n log n), relying on at most one yielding route per
merge:

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
sparse ``{slot: travel time}`` entries it re-simulated. ``simulate_rosters``
takes the same steps with the same float operations, one passage per roster
per step, keeping each route's waiting vehicles as a FIFO queue (see its
docstring). ``simulate`` and ``simulate_without`` are validated wrappers
that key ``simulate_slots``' results by agent id.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property
from random import Random, _sha512
from typing import Callable, Iterable, Iterator, Mapping, Sequence


class ConfigurationError(ValueError):
    """A scenario, action, or runtime parameter violates its contract."""


_DOCUMENT_TYPES = {
    bool: bool, int: (int, float), float: (int, float), str: str, tuple: (list, tuple), dict: dict
}


def parse_value(cast: Callable | tuple, value, what: str):
    """``cast(value)`` for a config document's value, or a ConfigurationError naming ``what``.

    The value must already have the field's JSON type (``_DOCUMENT_TYPES``), so a
    string is never a number or an array, and a bool is nothing else. An int
    read from a float must be whole. A tuple of casts reads the value with the
    first one whose JSON type it has; ``None`` among them admits JSON null.
    """
    casts = cast if isinstance(cast, tuple) else (cast,)
    for each in casts:
        if each is None:
            if value is None:
                return None
        elif (
            isinstance(value, _DOCUMENT_TYPES[each])
            and (each is bool) == isinstance(value, bool)
            and not (each is int and isinstance(value, float) and not value.is_integer())
        ):
            return each(value)
    names = " or ".join("null" if each is None else each.__name__ for each in casts)
    raise ConfigurationError(f"{what}: cannot read {value!r} as {names}")


def read_document(doc: Mapping, types: Mapping[str, Callable | tuple], what: str) -> dict:
    """The keys ``doc`` has, each read by ``parse_value`` as its entry in ``types``.

    A ``doc`` that is not a JSON object, or a key outside ``types`` such as a typo, is
    an error. A key the document lacks stays out, so its field keeps its own default.
    """
    doc = parse_value(dict, doc, what)
    unknown = sorted(set(doc).difference(types))
    if unknown:
        raise ConfigurationError(f"unknown {what} key(s) {unknown}; known keys are {sorted(types)}")
    return {key: parse_value(types[key], value, f"{what} {key}") for key, value in doc.items()}


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
        for k, route in enumerate(self.action_space):
            if not 0 <= route < n_routes:
                raise ConfigurationError(
                    f"agent {self.id}: route {route} not in network"
                )
            if route in self.action_space[:k]:
                raise ConfigurationError(
                    f"agent {self.id}: route {route} repeated in action_space"
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

    def __getitem__(self, agent_id: int) -> float:
        return self.times[agent_id]

    def __contains__(self, agent_id: int) -> bool:
        return agent_id in self.times


def _arrival_noise(seed: int, agent_ids: Iterable[int], sigma: float) -> list[float]:
    """Each agent's draw of ``random.Random(f"{seed}:{agent_id}").uniform(-sigma, sigma)``.

    String seeding hashes with sha512 (``random.py``'s own, which leaves
    OpenSSL unloaded), so draws are stable across processes and platforms,
    and independent of which other agents are simulated.
    """
    return [Random(f"{seed}:{i}").uniform(-sigma, sigma) for i in agent_ids]


NOISE_LANES = 4096  # draws per _arrival_noise_days pass: a pass's memory is O(lanes)
KEY_BLOCK = 256  # keys packed per numpy call into a pass's key table: few bytes held besides it


def _arrival_noise_days(
    seeds: Iterable[int], agent_ids: Iterable[int], sigma: float
) -> Iterator[list[float]]:
    """``_arrival_noise(seed, agent_ids, sigma)`` for each of ``seeds`` in turn, from numpy lanes.

    Bit for bit the C generator's draws, made for the (day seed, agent id)
    keys of ``NOISE_LANES // len(agent_ids)`` days at once (at least one
    day), so a pass waits on throughput, not on one seeding's serial chain.
    A pass starts when its first day is asked for, and its days come one
    list at a time from one float array, so a caller holds one pass's draws.
    """
    import numpy as np

    lo = -sigma
    width = sigma - lo
    agent_ids = list(agent_ids)
    suffixes = [f":{i}" for i in agent_ids]
    # init_by_array mixes max(624, key words) times and a lane 624 times, so a
    # day with a key over 624 words (text and 64-byte digest) is drawn alone.
    longest = 4 * 624 - 64 - max(map(len, suffixes), default=0)
    seeds = iter(seeds)
    while days := list(itertools.islice(seeds, max(1, NOISE_LANES // max(1, len(suffixes))))):
        fits = [len(str(s)) <= longest for s in days]
        lane_days = list(itertools.compress(days, fits))
        draws = _first_random(lane_days, suffixes) if suffixes and lane_days else np.empty(0)
        draws *= width
        draws += lo
        rows = iter(draws.reshape(len(lane_days), len(suffixes)))
        for seed, fit in zip(days, fits):
            yield next(rows).tolist() if fit else _arrival_noise(seed, agent_ids, sigma)


def _first_random(days: list[int], suffixes: list[str]):
    """``random()`` of a generator just seeded as ``_arrival_noise`` seeds it, per lane.

    A numpy float array over the lanes ``f"{day}{suffix}"``, day-major.
    ``random()`` joins the first two outputs of the regenerated state, which
    read the seeded words 0-2, 397 and 398 (word 0 is 0x80000000), so only
    those two are formed and tempered.
    """
    import numpy as np

    lanes, word1, word2, word397, word398 = _seeded_words(days, suffixes)
    tempered = []
    for upper, lower, far in ((0x80000000, word1, word397), (word1, word2, word398)):
        v = (upper & 0x80000000) | (lower & 0x7FFFFFFF)
        v = far ^ v >> 1 ^ (v & 1) * np.uint32(0x9908B0DF)
        v ^= v >> 11
        v ^= v << 7 & 0x9D2C5680
        v ^= v << 15 & 0xEFC60000
        v ^= v >> 18
        tempered.append(v)
    unit = (tempered[0] >> 5) * 67108864.0
    unit += tempered[1] >> 6
    unit *= 1.0 / 9007199254740992.0
    draws = np.empty(len(lanes))
    draws[lanes] = unit
    return draws


@cache
def _init_by_array_steps():
    """Row i: init_genrand(19650218)'s word i, and i, as uint32: the constants of step i.

    A step takes them as 0-d views (``steps[i, 0, ...]``), on numpy's fast
    path for scalar operands. A table of 1,248 ready 0-d arrays saved about
    0.5 ms a 4,096-lane pass but held about 0.13 MB for good, which raised
    the noisy training workload's peak RSS by about 0.15 MB.
    """
    import numpy as np

    word, rows = 19650218, []
    for i in range(624):
        rows.append((word, i))
        word = (1812433253 * (word ^ word >> 30) + i + 1) & 0xFFFFFFFF
    steps = np.array(rows, np.uint32)
    steps.setflags(write=False)  # shared by every pass
    return steps


def _seeded_words(days: list[int], suffixes: list[str]) -> tuple:
    """Each lane's position, then words 1, 2, 397 and 398 of its seeded state.

    Each lane runs CPython's ``init_by_array`` on its key, the little-endian
    32-bit words of the int that ``random.Random`` seeds from the lane's
    string (its bytes, then their sha512 digest), as uint32 arithmetic. No lane
    keeps the 624-word state: the first mixing loop runs once to reach word
    623, which the second loop needs from its first step on, then again in
    lockstep with the second loop, which reads word ``i`` of the first as it
    writes its own. A key's words cycle, so lanes are grouped by key length;
    the words come in group order, and the positions say where each lane is
    in ``_first_random``'s day-major order.
    """
    import numpy as np

    u32 = np.uint32
    steps = _init_by_array_steps()
    rshift, xor, mul, add, sub = (
        np.right_shift, np.bitwise_xor, np.multiply, np.add, np.subtract
    )
    shift = np.array(30, u32)
    first, second = np.array(1664525, u32), np.array(1566083941, u32)  # each loop's multiplier

    # A key is its lane's text and a 64-byte digest. The text starts with a
    # digit or '-', so the key's int has all its bytes, in ceil(bytes / 4) words.
    sizes = [len(suffix) + 64 + 3 for suffix in suffixes]
    n_words = np.array([(len(str(s)) + size) // 4 for s in days for size in sizes], np.int32)
    n = len(n_words)
    # Words as [x | y]: the first loop's state in x, the second's in y.
    state, scratch, factor = np.empty(2 * n, u32), np.empty(2 * n, u32), np.empty(2 * n, u32)
    x, y, t = state[:n], state[n:], scratch[:n]
    factor[:n], factor[n:] = first, second
    x_keys, y_keys, positions, start = [], [], [], 0
    for w in sorted(set(n_words.tolist())):
        lanes = np.flatnonzero(n_words == w)
        stop = start + len(lanes)
        # Row j: key[j] + j for each lane, as init_by_array adds them.
        added = np.empty((w, len(lanes)), u32)
        for block in range(0, len(lanes), KEY_BLOCK):
            keys = bytearray()  # big-endian
            for lane in lanes[block : block + KEY_BLOCK].tolist():
                day, k = divmod(lane, len(suffixes))
                key = f"{days[day]}{suffixes[k]}".encode()
                keys += (key + _sha512(key).digest()).rjust(4 * w, b"\0")
            words = np.frombuffer(keys, ">u4").reshape(-1, w)[:, ::-1]  # word j is key[j]
            add(words.T, np.arange(w, dtype=u32)[:, None], added[:, block : block + len(words)])
        x_keys.append((x[start:stop], added, w))
        y_keys.append((y[start:stop], added, w))
        positions.append(lanes)
        start = stop

    def add_keys(group, i):  # the first loop adds key[j] + j, j = (i - 1) mod w, at step i
        for view, added, w in group:
            add(view, added[(i - 1) % w], view)

    x.fill(19650218)
    for i in range(1, 624):
        rshift(x, shift, t)
        xor(t, x, t)
        mul(t, first, t)
        xor(t, steps[i, 0, ...], x)
        add_keys(x_keys, i)
        if i == 1:
            first_word1 = x.copy()
    # Its last step wraps round to rewrite word 1, from word 623 (x).
    mul(x ^ x >> shift, first, y)
    y ^= first_word1
    add_keys(y_keys, 624)
    word1 = y.copy()
    # The second loop from word 2 on, with the first loop again in lockstep.
    x[:] = first_word1
    saved = []
    for i in range(2, 624):
        rshift(state, shift, scratch)
        xor(scratch, state, scratch)
        mul(scratch, factor, scratch)
        xor(t, steps[i, 0, ...], x)
        add_keys(x_keys, i)
        xor(scratch[n:], x, y)
        sub(y, steps[i, 1, ...], y)
        if i in (2, 397, 398):
            saved.append(y.copy())
    # Its last step wraps round to rewrite word 1, from word 623 (y).
    word1 ^= (y ^ y >> shift) * second
    word1 -= u32(1)
    return (np.concatenate(positions), word1, *saved)


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
    scenario: Scenario,
    routes: tuple[int, ...],
    removed: Sequence[int] = (),
    seed: int = 0,
    noise: Sequence[float] | None = None,
) -> tuple[list[float], list[dict[int, float]]]:
    """The full run's travel times by slot, and per slot in ``removed`` the run without it.

    ``routes`` is not checked. A counterfactual is the ``{slot: travel
    time}`` entries it re-simulated; every other slot keeps its full-run time.
    A noisy scenario takes the day's draws from ``noise`` when given (by slot,
    as ``_arrival_noise_days`` makes them), else from ``_arrival_noise``.
    """
    departures, pre_merge, priority = scenario.slot_tables
    net = scenario.network
    gap, window, post = net.merge_gap_g, net.yield_window_w, net.post_merge_time
    arrival = [d + pre_merge[r] for d, r in zip(departures, routes)]
    if scenario.noise_sigma > 0:
        if noise is None:
            noise = _arrival_noise(seed, scenario.ids, scenario.noise_sigma)
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


def simulate_rosters(scenario: Scenario, passes: Iterable[tuple], times) -> None:
    """Noise-free travel times of many rosters, into ``times`` (rosters x slots), NaN where absent.

    ``passes`` yields ``(routes, present)`` pairs whose rows are the next
    rows of ``times``: row ``l`` of the int array ``routes`` gives each slot's
    route in one roster, and row ``l`` of the bool array ``present`` says
    which slots drive. Neither is checked, and ``scenario.noise_sigma`` is
    ignored. Every roster of a pass takes one passage per step, in lockstep,
    with ``_passages``' float operations on its own lane, so each travel time
    is bit for bit that of ``simulate_slots`` on the roster alone.

    Without noise one route's vehicles reach the merge in slot order, so each
    route is a FIFO queue: a lane keeps its head slot and arrival per route,
    and ``following`` chains each slot to the next one on its route. The
    waiting priority vehicle with the lowest slot is the lowest waiting head,
    and the next priority arrival is the earliest head. Columns hold the
    priority routes, then the yielding route (empty if there is none), then
    the absent slots, whose queue never passes. A lane short of a vehicle
    spends its last step passing the sentinel slot ``n`` into a spare column.

    The lane buffers last one call, as wide as the widest pass so far, so a
    fill of many passes faults their pages in once. Each pass resets the
    heads, passage and ready times, and rewrites the slot columns of
    ``cols`` and ``following``; their sentinel column never changes.
    """
    # A local import, yet `import routelab.network` loads numpy anyway: the package
    # __init__ imports .equilibrium and .rewards. A numpy-free path starts there.
    import numpy as np

    departures, pre_merge, priority = scenario.slot_tables
    net = scenario.network
    gap, window = net.merge_gap_g, net.yield_window_w
    n = len(departures)
    order = [r for r, p in enumerate(priority) if p]
    n_prio = len(order)
    order += [r for r, p in enumerate(priority) if not p]
    absent = n_prio + 1  # the column of absent slots and of the sentinel slot
    n_cols = absent + 1
    column = np.empty(len(order), dtype=np.int32)
    column[order] = np.arange(len(order))
    lead = np.array([pre_merge[r] for r in order] + [math.inf] * (n_cols - len(order)))
    departure = np.array(departures + (math.inf,))

    buffers, end = (), 0
    for routes, present in passes:
        n_lanes = len(routes)
        if not buffers or n_lanes > len(buffers[0]):
            lanes = np.arange(n_lanes)
            buffers = (
                lanes * n_cols,  # base: each lane's first column in the flat head arrays
                lanes * (n + 1),  # row: each lane's first slot in the flat slot arrays
                np.full((n_lanes, n + 1), absent, dtype=np.int32),  # cols
                np.full((n_lanes, n + 1), n, dtype=np.int32),  # following
                np.empty((n_lanes, n + 1)),  # passage
                np.empty((n_lanes, n_cols), dtype=np.int32),  # head_of
                np.empty((n_lanes, n_cols)),  # arrival_of
                np.empty(n_lanes),  # ready
            )
        base, row, cols, following, passage, head_of, arrival_of, ready = (
            buffer[:n_lanes] for buffer in buffers
        )
        column.take(routes, out=cols[:, :n], mode="clip")  # "raise" would buffer out
        np.copyto(cols[:, :n], absent, where=~present)
        heads = head_of.reshape(-1)
        heads.fill(n)
        for s in range(n - 1, -1, -1):
            at = base + cols[:, s]
            heads.take(at, out=following[:, s], mode="clip")
            heads[at] = s
        departure.take(head_of, out=arrival_of)
        arrival_of += lead
        arrival = arrival_of.reshape(-1)
        cols, following = cols.reshape(-1), following.reshape(-1)
        passage.fill(math.nan)
        passed = passage.reshape(-1)
        ready.fill(-math.inf)
        for _ in range(n):
            # _passages' cases in turn: a waiting priority vehicle passes; else
            # the waiting yielding one, if no priority arrival falls inside its
            # window; else the next yielding arrival, if the next priority
            # arrival falls beyond its window; else that priority vehicle.
            # So the priority candidate (the lowest waiting slot, else the
            # lowest slot of the earliest arrival) would pass at ``soonest``
            # and the yielding head at ``yielding``, each the later of its
            # arrival and ``ready``; the yielding head passes if ``soonest``
            # falls beyond its window, never true while a priority vehicle
            # waits (window >= 0). A max returns an operand: no bit changes.
            ph, yh = head_of[:, :n_prio], head_of[:, n_prio]
            due = np.maximum(arrival_of[:, :n_prio], ready[:, None])
            soonest = due.min(axis=1)
            yielding = np.maximum(arrival_of[:, n_prio], ready)
            yields = soonest > yielding + window
            t = np.where(yields, yielding, soonest)
            k = np.where(yields, yh, np.where(due == soonest[:, None], ph, n).min(axis=1))
            at = row + k
            passed[at] = t
            c, h = cols.take(at), following.take(at)
            at = base + c
            heads[at] = h
            arrival[at] = departure.take(h) + lead.take(c)
            np.add(t, gap, out=ready)
        start, end = end, end + n_lanes
        np.add(passage[:, :n], net.post_merge_time, out=times[start:end])
        times[start:end] -= departure[:n]


def simulate(scenario: Scenario, action: Mapping[int, int], seed: int = 0) -> TravelTimeVector:
    """Run one episode of the merge simulation for a full joint action."""
    full, _ = simulate_slots(scenario, scenario.routes_of(action), (), seed)
    return TravelTimeVector(dict(zip(scenario.ids, full)))


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
    routes = scenario.routes_of(action)
    if removed_agent not in scenario.av_ids:
        raise ConfigurationError(f"agent {removed_agent} is not an AV; only AVs may be removed")
    slot = scenario.ids.index(removed_agent)
    full, (sparse,) = simulate_slots(scenario, routes, (slot,), seed)
    times = dict(zip(scenario.ids, counterfactual_row(full, slot, sparse)))
    del times[removed_agent]
    return TravelTimeVector(times)
