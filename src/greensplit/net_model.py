"""Network description layer: roads, movements, intersections, schedules.

Conventions
-----------
* A road is a directed stretch discretized into cells of length ``h``; cell 1
  is the upstream end and cell ``sigma = ceil(length / h)`` is the downstream
  end at the stop line.
* The state vector stacks roads in declaration order, cells upstream to
  downstream, so each road occupies a contiguous slice.
* A movement carries vehicles from the downstream cell of ``from_road`` into
  the first cell of ``to_road`` whenever one of its phases is green.
* ``routing_ratio`` is the fraction of the upstream road's discharge heading
  into ``to_road``; ``saturation_speed`` is the discharge rate under green.
  The transfer coefficient of a green movement is their product.
* ``exit_rate`` drains the downstream cell of a destination road regardless
  of signal state (vehicles leaving the modeled area).
* Exogenous inflow enters the first cell of a source road; profiles are
  piecewise constant over the cycle.

All quantities use one consistent unit system (e.g. meters and seconds);
nothing in the package depends on the particular choice.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Mapping

import numpy as np

from .errors import ValidationError, check_memory

SCHEMA_VERSION = 1

#: piecewise-constant profile as (duration, rate) segments covering one cycle
InflowProfile = tuple[tuple[float, float], ...]

_TIME_TOL = 1e-9


@dataclass(frozen=True)
class Road:
    id: str
    length: float
    free_flow_speed: float
    cell_count: int
    is_source: bool = False
    is_destination: bool = False
    exit_rate: float = 0.0


@dataclass(frozen=True)
class Movement:
    from_road: str
    to_road: str
    routing_ratio: float
    saturation_speed: float

    @property
    def rate(self) -> float:
        """Transfer coefficient while green."""
        return self.routing_ratio * self.saturation_speed

    @property
    def key(self) -> tuple[str, str]:
        return (self.from_road, self.to_road)


@dataclass(frozen=True)
class Intersection:
    """A signalized node: its movements and the phases that group them.

    ``phases`` holds movement keys; phase order defines the cyclic
    activation order used by schedules.
    """

    id: str
    movements: tuple[Movement, ...]
    phases: tuple[tuple[tuple[str, str], ...], ...]


@dataclass(frozen=True, eq=True)
class NetworkSpec:
    """Validated, immutable description of a signalized road network."""

    name: str
    h: float
    cycle_time: float
    roads: tuple[Road, ...]
    intersections: tuple[Intersection, ...] = ()
    inflows: dict[str, InflowProfile] = field(default_factory=dict)
    allow_phase_overlap: bool = False
    enforce_turn_conservation: bool = True

    # -- derived indexing ------------------------------------------------

    @cached_property
    def n(self) -> int:
        """Total number of cell states."""
        return sum(r.cell_count for r in self.roads)

    @cached_property
    def n_roads(self) -> int:
        return len(self.roads)

    @cached_property
    def _road_by_id(self) -> dict[str, Road]:
        return {r.id: r for r in self.roads}

    @cached_property
    def _offsets(self) -> dict[str, int]:
        offsets, pos = {}, 0
        for r in self.roads:
            offsets[r.id] = pos
            pos += r.cell_count
        return offsets

    def road(self, road_id: str) -> Road:
        try:
            return self._road_by_id[road_id]
        except KeyError:
            raise ValidationError(f"unknown road id {road_id!r}") from None

    def state_slice(self, road_id: str) -> slice:
        start = self._offsets[road_id]
        return slice(start, start + self.road(road_id).cell_count)

    def upstream_index(self, road_id: str) -> int:
        """State index of the road's first (entry) cell."""
        return self._offsets[road_id]

    def downstream_index(self, road_id: str) -> int:
        """State index of the road's last (stop-line) cell."""
        return self._offsets[road_id] + self.road(road_id).cell_count - 1

    @cached_property
    def state_labels(self) -> tuple[str, ...]:
        labels = []
        for r in self.roads:
            labels.extend(f"{r.id}[{k}]" for k in range(1, r.cell_count + 1))
        return tuple(labels)

    @cached_property
    def sources(self) -> tuple[str, ...]:
        return tuple(r.id for r in self.roads if r.is_source)

    @cached_property
    def destinations(self) -> tuple[str, ...]:
        return tuple(r.id for r in self.roads if r.is_destination)

    @cached_property
    def movement_index(self) -> dict[tuple[str, str], Movement]:
        """Map movement key to its Movement, in declaration order."""
        return {mv.key: mv for x in self.intersections for mv in x.movements}

    # -- inflows -----------------------------------------------------------

    def inflow_profile(self, road_id: str) -> InflowProfile:
        return self.inflows.get(road_id, ((self.cycle_time, 0.0),))

    def average_inflow(self) -> np.ndarray:
        """Per-road cycle-averaged exogenous inflow (length ``n_roads``)."""
        u = np.zeros(self.n_roads)
        for i, r in enumerate(self.roads):
            profile = self.inflow_profile(r.id)
            total = sum(dur for dur, _ in profile)
            u[i] = sum(dur * val for dur, val in profile) / total
        return u


@dataclass(frozen=True)
class Schedule:
    """Global mode timeline derived from per-intersection phase plans.

    ``switch_times`` is the nondecreasing sequence ``0 = tau_0 <= ... <=
    tau_m = T``; mode ``k`` spans ``[tau_k, tau_{k+1})``.  ``assignments[k]``
    lists, per intersection, which of its phases is active during mode
    ``k`` as sorted ``(intersection_id, phase_index)`` pairs.
    """

    switch_times: tuple[float, ...]
    assignments: tuple[tuple[tuple[str, int], ...], ...]

    def __post_init__(self) -> None:
        if len(self.switch_times) < 2:
            raise ValidationError("schedule needs at least one mode window")
        if len(self.assignments) != len(self.switch_times) - 1:
            raise ValidationError("one phase assignment required per mode window")
        if not all(map(math.isfinite, self.switch_times)):
            raise ValidationError(f"switch times must be finite, got {self.switch_times}")
        if abs(self.switch_times[0]) > _TIME_TOL:
            raise ValidationError("schedule must start at time 0")
        diffs = np.diff(self.switch_times)
        if np.any(diffs < -_TIME_TOL * max(1.0, self.cycle_time)):
            raise ValidationError("switch times must be nondecreasing")

    @property
    def cycle_time(self) -> float:
        return self.switch_times[-1]

    @property
    def n_modes(self) -> int:
        return len(self.assignments)

    @property
    def durations(self) -> np.ndarray:
        return np.diff(np.asarray(self.switch_times, dtype=float))

    def green_set(self, network: NetworkSpec, mode: int) -> frozenset[tuple[str, str]]:
        """Movement keys that are green during the given mode."""
        keys: set[tuple[str, str]] = set()
        by_id = {x.id: x for x in network.intersections}
        for xid, p in self.assignments[mode]:
            if xid not in by_id:
                raise ValidationError(
                    f"schedule references unknown intersection {xid!r}"
                )
            phases = by_id[xid].phases
            if not 0 <= p < len(phases):
                raise ValidationError(
                    f"intersection {xid!r} has no phase {p} (it has {len(phases)})"
                )
            keys.update(phases[p])
        return frozenset(keys)

    def with_durations(self, durations: Iterable[float]) -> "Schedule":
        """Same mode structure with new window lengths."""
        d = np.asarray(list(durations), dtype=float)
        if d.shape != (self.n_modes,):
            raise ValidationError(
                f"expected {self.n_modes} durations, got {d.shape}"
            )
        if np.any(d < -_TIME_TOL * max(1.0, self.cycle_time)):
            raise ValidationError("mode durations must be nonnegative")
        times = np.concatenate([[0.0], np.cumsum(np.clip(d, 0.0, None))])
        return Schedule(tuple(float(t) for t in times), self.assignments)


# ---------------------------------------------------------------------------
# construction and validation


def _cells_for(length: float, h: float) -> int:
    cells = length / h
    if not math.isfinite(cells):
        raise ValidationError(f"a length of {length!r} at h {h!r} gives no finite cell count")
    # tiny slack keeps exact multiples from rounding up to an extra cell
    return max(1, math.ceil(cells - 1e-9))


def _require_keys(section: str, data: Mapping[str, Any], allowed: set[str],
                  required: set[str]) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ValidationError(
            f"{section}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )
    missing = required - set(data)
    if missing:
        raise ValidationError(f"{section}: missing required key(s) {sorted(missing)}")


def _digit_count(value: int) -> int:
    """Decimal digits of an integer, without the string conversion that
    Python refuses beyond 4300 digits."""
    a = abs(value)
    k = int(a.bit_length() * math.log10(2.0))    # the count less one, or the count
    return k + 1 if a >= 10 ** k else k


def _as_number(section: str, key: str, value: Any) -> float:
    """A finite float from a real number; ``bool`` is refused although it
    is an ``int``, and so is a quoted number such as ``"100"``."""
    try:
        v = float(value) if isinstance(value, numbers.Real) else None
    except OverflowError:
        v = None
    if v is None or isinstance(value, bool):
        # an integer past the float range may be too long for Python to print
        shown = (f"an integer of {_digit_count(value)} digits"
                 if isinstance(value, int) and v is None else repr(value))
        raise ValidationError(f"{section}: {key} must be a number, got {shown}")
    if not math.isfinite(v):
        raise ValidationError(f"{section}: {key} must be finite, got {value!r}")
    return v


def _as_flag(section: str, key: str, value: Any) -> bool:
    """A YAML boolean; strings such as ``"no"`` and numbers are refused."""
    if not isinstance(value, bool):
        raise ValidationError(f"{section}: {key} must be true or false, got {value!r}")
    return value


def _as_list(key: str, value: Any) -> list:
    """An optional list section; absent or null is empty."""
    if value is None:
        return []
    if not isinstance(value, list):
        raise ValidationError(f"scenario: {key} must be a list, got {value!r}")
    return value


def _as_positive(section: str, key: str, value: Any) -> float:
    v = _as_number(section, key, value)
    if v <= 0:
        raise ValidationError(f"{section}: {key} must be positive, got {value!r}")
    return v


def parse_movement_key(text: str) -> tuple[str, str]:
    """Parse ``"a -> b"`` into a movement key."""
    parts = str(text).split("->")
    if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
        raise ValidationError(f"movement reference {text!r} is not of the form 'a -> b'")
    return parts[0].strip(), parts[1].strip()


def movement_label(key: tuple[str, str]) -> str:
    return f"{key[0]} -> {key[1]}"


def _parse_inflow(road_id: str, raw: Any, cycle_time: float) -> InflowProfile:
    """A rate held over the whole cycle, or [duration, rate] segments that
    cover it; every rate is a nonnegative number."""
    if not isinstance(raw, list):
        segments = [(cycle_time, _as_number(f"road {road_id!r}", "inflow", raw))]
    elif not raw:
        raise ValidationError(
            f"road {road_id!r}: inflow must be a number or a list of [duration, rate] pairs"
        )
    else:
        segments = []
        for item in raw:
            if not isinstance(item, list) or len(item) != 2:
                raise ValidationError(
                    f"road {road_id!r}: inflow segments must be [duration, rate] pairs"
                )
            segments.append((_as_positive(f"road {road_id!r} inflow", "duration", item[0]),
                             _as_number(f"road {road_id!r} inflow", "rate", item[1])))
    if any(val < 0 for _, val in segments):
        raise ValidationError(f"road {road_id!r}: inflow rate must be nonnegative")
    total = sum(dur for dur, _ in segments)
    if abs(total - cycle_time) > 1e-6 * cycle_time:
        raise ValidationError(
            f"road {road_id!r}: inflow segments cover {total}, expected the cycle time {cycle_time}"
        )
    return tuple(segments)


def _validate_network(spec: NetworkSpec) -> NetworkSpec:
    """Semantic checks shared by every construction path."""
    seen_roads: set[str] = set()
    for r in spec.roads:
        if r.id in seen_roads:
            raise ValidationError(f"duplicate road id {r.id!r}")
        seen_roads.add(r.id)
        if not 0.0 <= r.exit_rate <= 1.0:
            raise ValidationError(f"road {r.id!r}: exit_rate must lie in [0, 1]")
        if r.exit_rate > 0 and not r.is_destination:
            raise ValidationError(f"road {r.id!r}: exit_rate set on a non-destination road")
        if r.is_destination and r.exit_rate == 0:
            raise ValidationError(f"road {r.id!r}: destination roads need a positive exit_rate")
        if r.is_source and r.is_destination:
            raise ValidationError(f"road {r.id!r}: a road cannot be both source and destination")

    for road_id in spec.inflows:
        if not spec.road(road_id).is_source:
            raise ValidationError(f"road {road_id!r}: inflow declared on a non-source road")

    seen_x: set[str] = set()
    seen_moves: dict[tuple[str, str], str] = {}
    downstream_of: dict[str, str] = {}
    upstream_of: dict[str, str] = {}
    for x in spec.intersections:
        if x.id in seen_x:
            raise ValidationError(f"duplicate intersection id {x.id!r}")
        seen_x.add(x.id)
        local_keys: set[tuple[str, str]] = set()
        for mv in x.movements:
            for rid in mv.key:
                if rid not in seen_roads:
                    raise ValidationError(
                        f"intersection {x.id!r}: movement references unknown road {rid!r}"
                    )
            if mv.from_road == mv.to_road:
                raise ValidationError(
                    f"intersection {x.id!r}: movement {movement_label(mv.key)!r} loops onto itself"
                )
            if mv.key in seen_moves:
                raise ValidationError(
                    f"movement {movement_label(mv.key)!r} declared at both "
                    f"{seen_moves[mv.key]!r} and {x.id!r}"
                )
            seen_moves[mv.key] = x.id
            local_keys.add(mv.key)
            if not 0.0 < mv.routing_ratio <= 1.0:
                raise ValidationError(
                    f"movement {movement_label(mv.key)!r}: routing_ratio must lie in (0, 1]"
                )
            if mv.saturation_speed <= 0:
                raise ValidationError(
                    f"movement {movement_label(mv.key)!r}: saturation_speed must be positive"
                )
            prev = downstream_of.setdefault(mv.from_road, x.id)
            if prev != x.id:
                raise ValidationError(
                    f"road {mv.from_road!r} discharges at two intersections: {prev!r}, {x.id!r}"
                )
            prev = upstream_of.setdefault(mv.to_road, x.id)
            if prev != x.id:
                raise ValidationError(
                    f"road {mv.to_road!r} is fed by two intersections: {prev!r}, {x.id!r}"
                )

        if not x.phases:
            raise ValidationError(f"intersection {x.id!r} declares no phases")
        covered: set[tuple[str, str]] = set()
        for p, phase in enumerate(x.phases):
            for key in phase:
                if key not in local_keys:
                    raise ValidationError(
                        f"intersection {x.id!r} phase {p}: {movement_label(key)!r} "
                        "is not a movement of this intersection"
                    )
                if key in covered and not spec.allow_phase_overlap:
                    raise ValidationError(
                        f"intersection {x.id!r}: {movement_label(key)!r} appears in "
                        "overlapping phases (set allow_phase_overlap to permit)"
                    )
            covered.update(phase)
        missing = local_keys - covered
        if missing:
            names = sorted(movement_label(k) for k in missing)
            raise ValidationError(
                f"intersection {x.id!r}: movement(s) {names} appear in no phase"
            )

    for r in spec.roads:
        if r.is_destination and r.id in downstream_of:
            raise ValidationError(
                f"road {r.id!r} is a destination but has outgoing movements"
            )

    if spec.enforce_turn_conservation:
        outgoing: dict[str, float] = {}
        for mv in spec.movement_index.values():
            outgoing[mv.from_road] = outgoing.get(mv.from_road, 0.0) + mv.routing_ratio
        for rid, total in sorted(outgoing.items()):
            if abs(total - 1.0) > 1e-9:
                raise ValidationError(
                    f"road {rid!r}: routing ratios of outgoing movements sum to "
                    f"{total}, expected 1 (set enforce_turn_conservation: false to relax)"
                )

    # every road must be able to send vehicles to some destination: search
    # the movement graph backwards from the destinations
    feeders: dict[str, list[str]] = {}
    for from_road, to_road in seen_moves:
        feeders.setdefault(to_road, []).append(from_road)
    reached = set(spec.destinations)
    frontier = list(reached)
    while frontier:
        frontier = [road for to_road in frontier for road in feeders.get(to_road, ())
                    if road not in reached]
        reached.update(frontier)
    stranded = sorted(r.id for r in spec.roads if r.id not in reached)
    if stranded:
        raise ValidationError(
            f"road(s) {stranded} have no path to any destination road"
        )
    return spec


_ROAD_KEYS = {"id", "length", "free_flow_speed", "source", "destination",
              "exit_rate", "inflow"}
_MOVE_KEYS = {"intersection", "from", "to", "routing_ratio", "saturation_speed"}
_TOP_KEYS = {"schema_version", "name", "h", "cycle_time", "allow_phase_overlap",
             "enforce_turn_conservation", "roads", "movements", "intersections",
             "grid"}
_GRID_KEYS = {"rows", "cols", "h", "cycle_time", "block_length", "free_flow_speed",
              "saturation_speed", "through_ratio", "inflow", "exit_rate"}


def build_network(document: Mapping[str, Any]) -> NetworkSpec:
    """Construct a validated :class:`NetworkSpec` from a scenario document.

    The document is the parsed form of a scenario file (see
    :mod:`greensplit.scenario`).  Unknown keys are rejected so typos fail
    loudly instead of silently changing the model.
    """
    if not isinstance(document, Mapping):
        raise ValidationError("scenario document must be a mapping")
    _require_keys("scenario", document, _TOP_KEYS, {"schema_version"})
    version = document["schema_version"]
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported schema_version {version!r}; this build reads version {SCHEMA_VERSION}"
        )

    if "grid" in document:
        for key in ("roads", "movements", "intersections", "h", "cycle_time"):
            if key in document:
                raise ValidationError(
                    f"scenario: {key!r} cannot be combined with a grid declaration"
                )
        grid = document["grid"]
        if not isinstance(grid, Mapping):
            raise ValidationError("grid: must be a mapping")
        _require_keys("grid", grid, _GRID_KEYS, {"rows", "cols"})
        params = dict(grid)
        name = str(document["name"]) if "name" in document else None
        return generate_grid(params.pop("rows"), params.pop("cols"), name=name, **params)

    _require_keys("scenario", document, _TOP_KEYS, {"schema_version", "h",
                                                    "cycle_time", "roads"})
    h = _as_positive("scenario", "h", document["h"])
    cycle_time = _as_positive("scenario", "cycle_time", document["cycle_time"])
    allow_overlap = _as_flag("scenario", "allow_phase_overlap",
                             document.get("allow_phase_overlap", False))
    conservation = _as_flag("scenario", "enforce_turn_conservation",
                            document.get("enforce_turn_conservation", True))
    name = str(document.get("name", "network"))

    raw_roads = document["roads"]
    if not isinstance(raw_roads, list) or not raw_roads:
        raise ValidationError("scenario: roads must be a non-empty list")
    roads: list[Road] = []
    inflows: dict[str, InflowProfile] = {}
    for entry in raw_roads:
        if not isinstance(entry, Mapping):
            raise ValidationError("roads: each entry must be a mapping")
        _require_keys("road", entry, _ROAD_KEYS, {"id", "length", "free_flow_speed"})
        rid = str(entry["id"])
        length = _as_positive(f"road {rid!r}", "length", entry["length"])
        speed = _as_positive(f"road {rid!r}", "free_flow_speed", entry["free_flow_speed"])
        exit_rate = _as_number(f"road {rid!r}", "exit_rate", entry.get("exit_rate", 0.0))
        road = Road(
            id=rid,
            length=length,
            free_flow_speed=speed,
            cell_count=_cells_for(length, h),
            is_source=_as_flag(f"road {rid!r}", "source", entry.get("source", False)),
            is_destination=_as_flag(f"road {rid!r}", "destination",
                                    entry.get("destination", False)),
            exit_rate=exit_rate,
        )
        roads.append(road)
        if "inflow" in entry:
            inflows[rid] = _parse_inflow(rid, entry["inflow"], cycle_time)

    moves_by_x: dict[str, list[Movement]] = {}
    for entry in _as_list("movements", document.get("movements")):
        if not isinstance(entry, Mapping):
            raise ValidationError("movements: each entry must be a mapping")
        _require_keys("movement", entry, _MOVE_KEYS, _MOVE_KEYS)
        xid = str(entry["intersection"])
        key = (str(entry["from"]), str(entry["to"]))
        section = f"movement {movement_label(key)!r}"
        mv = Movement(
            from_road=key[0],
            to_road=key[1],
            routing_ratio=_as_number(section, "routing_ratio", entry["routing_ratio"]),
            saturation_speed=_as_number(section, "saturation_speed",
                                        entry["saturation_speed"]),
        )
        moves_by_x.setdefault(xid, []).append(mv)

    intersections: list[Intersection] = []
    declared_x: set[str] = set()
    for entry in _as_list("intersections", document.get("intersections")):
        if not isinstance(entry, Mapping):
            raise ValidationError("intersections: each entry must be a mapping")
        _require_keys("intersection", entry, {"id", "phases"}, {"id", "phases"})
        xid = str(entry["id"])
        declared_x.add(xid)
        if xid not in moves_by_x:
            raise ValidationError(f"intersection {xid!r} declares no movements")
        raw_phases = entry["phases"]
        if not isinstance(raw_phases, list):
            raise ValidationError(f"intersection {xid!r}: phases must be a list")
        for p, phase in enumerate(raw_phases):
            if phase is not None and not isinstance(phase, list):
                raise ValidationError(
                    f"intersection {xid!r}: phase {p} must be a list of movements, got {phase!r}"
                )
        phases = tuple(
            tuple(parse_movement_key(ref) for ref in (phase or []))
            for phase in raw_phases
        )
        intersections.append(
            Intersection(id=xid, movements=tuple(moves_by_x[xid]), phases=phases)
        )
    orphan = sorted(set(moves_by_x) - declared_x)
    if orphan:
        raise ValidationError(
            f"movement(s) reference undeclared intersection(s) {orphan}"
        )

    spec = NetworkSpec(
        name=name,
        h=h,
        cycle_time=cycle_time,
        roads=tuple(roads),
        intersections=tuple(intersections),
        inflows=inflows,
        allow_phase_overlap=allow_overlap,
        enforce_turn_conservation=conservation,
    )
    return _validate_network(spec)


def generate_grid(rows: int, cols: int, *, h: float = 100.0,
                  cycle_time: float = 100.0, block_length: float = 300.0,
                  free_flow_speed: float = 14.0, saturation_speed: float = 0.1,
                  through_ratio: float = 0.6, inflow: float = 0.02,
                  exit_rate: float = 1.0, name: str | None = None) -> NetworkSpec:
    """Build a rows-by-cols one-way grid of four-way intersections.

    Each corridor carries one road per direction; boundary segments are
    sources (entering) or destinations (leaving).  Every intersection gets
    the standard four-phase cycle: east-west through plus right turns,
    east-west lefts, north-south through plus rights, north-south lefts.
    A 1x1 grid is the single four-way intersection with four approach and
    four exit roads.
    """
    if not all(isinstance(k, int) and not isinstance(k, bool) and k >= 1
               for k in (rows, cols)):
        raise ValidationError("grid: rows and cols must be integers >= 1")
    through_ratio = _as_number("grid", "through_ratio", through_ratio)
    if not 0.0 < through_ratio < 1.0:
        raise ValidationError("grid: through_ratio must lie strictly between 0 and 1")
    h = _as_positive("grid", "h", h)
    cycle_time = _as_positive("grid", "cycle_time", cycle_time)
    block_length = _as_positive("grid", "block_length", block_length)
    free_flow_speed = _as_positive("grid", "free_flow_speed", free_flow_speed)
    saturation_speed = _as_positive("grid", "saturation_speed", saturation_speed)
    exit_rate = _as_number("grid", "exit_rate", exit_rate)
    inflow = _as_number("grid", "inflow", inflow)
    if inflow < 0:
        raise ValidationError("grid: inflow must be nonnegative")

    turn_ratio = (1.0 - through_ratio) / 2.0
    cells = _cells_for(block_length, h)
    n = cells * (2 * rows * (cols + 1) + 2 * cols * (rows + 1))
    # Python refuses to print an integer of more than 4300 digits, so a
    # long order is named by its digit count; rows and cols are below n
    digits = _digit_count(n)
    check_memory(8 * n * n, f"one {n}x{n} matrix of a {rows}x{cols} grid" if digits <= 100
                 else f"one matrix of a grid whose order has {digits} digits")

    roads: list[Road] = []
    inflows: dict[str, InflowProfile] = {}

    def add_road(rid: str, is_source: bool, is_dest: bool) -> None:
        roads.append(Road(
            id=rid, length=block_length, free_flow_speed=free_flow_speed,
            cell_count=cells, is_source=is_source, is_destination=is_dest,
            exit_rate=exit_rate if is_dest else 0.0,
        ))
        if is_source and inflow > 0:
            inflows[rid] = ((cycle_time, inflow),)

    # segment k runs along the travel direction; k = 0 enters the grid,
    # the last segment leaves it
    for i in range(rows):
        for k in range(cols + 1):
            add_road(f"eb_{i}_{k}", k == 0, k == cols)
        for k in range(cols + 1):
            add_road(f"wb_{i}_{k}", k == 0, k == cols)
    for j in range(cols):
        for k in range(rows + 1):
            add_road(f"sb_{j}_{k}", k == 0, k == rows)
        for k in range(rows + 1):
            add_road(f"nb_{j}_{k}", k == 0, k == rows)

    intersections: list[Intersection] = []
    for i in range(rows):
        for j in range(cols):
            approach = {
                "eb": f"eb_{i}_{j}",
                "wb": f"wb_{i}_{cols - 1 - j}",
                "sb": f"sb_{j}_{i}",
                "nb": f"nb_{j}_{rows - 1 - i}",
            }
            leave = {
                "eb": f"eb_{i}_{j + 1}",
                "wb": f"wb_{i}_{cols - j}",
                "sb": f"sb_{j}_{i + 1}",
                "nb": f"nb_{j}_{rows - i}",
            }
            # (through, left, right) targets seen from each approach heading
            turns = {
                "eb": ("eb", "nb", "sb"),
                "wb": ("wb", "sb", "nb"),
                "sb": ("sb", "eb", "wb"),
                "nb": ("nb", "wb", "eb"),
            }
            movements: list[Movement] = []
            keys: dict[tuple[str, str], tuple[str, str]] = {}
            for heading in ("eb", "wb", "sb", "nb"):
                through, left, right = turns[heading]
                for kind, target, ratio in (
                    ("through", through, through_ratio),
                    ("left", left, turn_ratio),
                    ("right", right, turn_ratio),
                ):
                    mv = Movement(
                        from_road=approach[heading], to_road=leave[target],
                        routing_ratio=ratio, saturation_speed=saturation_speed,
                    )
                    movements.append(mv)
                    keys[(heading, kind)] = mv.key
            phases = (
                (keys[("eb", "through")], keys[("eb", "right")],
                 keys[("wb", "through")], keys[("wb", "right")]),
                (keys[("eb", "left")], keys[("wb", "left")]),
                (keys[("sb", "through")], keys[("sb", "right")],
                 keys[("nb", "through")], keys[("nb", "right")]),
                (keys[("sb", "left")], keys[("nb", "left")]),
            )
            intersections.append(Intersection(
                id=f"x_{i}_{j}", movements=tuple(movements), phases=phases,
            ))

    spec = NetworkSpec(
        name=name or f"grid_{rows}x{cols}",
        h=h,
        cycle_time=cycle_time,
        roads=tuple(roads),
        intersections=tuple(intersections),
        inflows=inflows,
    )
    return _validate_network(spec)


def uniform_schedule(network: NetworkSpec, cycle_time: float | None = None) -> Schedule:
    """Equal green time for every phase of every intersection.

    Each intersection runs its phases in declaration order with duration
    ``T / n_phases``; the global mode boundaries are the union of all
    switching instants.
    """
    T = float(cycle_time) if cycle_time is not None else network.cycle_time
    if T <= 0:
        raise ValidationError("cycle time must be positive")
    times = {0.0, T}
    for x in network.intersections:
        p = len(x.phases)
        times.update(T * k / p for k in range(1, p))
    boundaries = sorted(times)
    merged = [boundaries[0]]
    for t in boundaries[1:]:
        if t - merged[-1] > _TIME_TOL * T:
            merged.append(t)
    merged[-1] = T

    assignments = []
    for k in range(len(merged) - 1):
        mid = 0.5 * (merged[k] + merged[k + 1])
        row = []
        for x in sorted(network.intersections, key=lambda x: x.id):
            p = len(x.phases)
            row.append((x.id, min(int(mid * p / T), p - 1)))
        assignments.append(tuple(row))
    return Schedule(tuple(merged), tuple(assignments))
