"""Scenario documents: the text format networks are described in.

A scenario is a YAML mapping with a ``schema_version`` marker and either an
explicit description (``roads`` / ``movements`` / ``intersections``) or a
``grid`` block that expands to a one-way grid.  :func:`load` parses and
builds in one step; :func:`dumps` writes the canonical explicit form, which
round-trips: ``load_document(dumps(spec))`` rebuilds an identical
:class:`~greensplit.net_model.NetworkSpec`.
"""

from __future__ import annotations

import hashlib
import json
from importlib import resources
from pathlib import Path
from typing import Any, Mapping

import yaml

from .errors import ValidationError
from .net_model import NetworkSpec, build_network, movement_label

#: scenarios shipped with the package, usable as names wherever a path is accepted
BUNDLED = ("single_road", "four_intersections", "grid_3x3", "grid_4x4")


#: PyYAML's safe loader, in its libyaml build where PyYAML has one
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
#: deepest nesting of collections a scenario may have; a scenario needs 5
_MAX_DEPTH = 64


def _check_depth(text: str) -> None:
    """Refuse text that nests collections deeper than ``_MAX_DEPTH``.

    The parser's events come from a state machine, but the composers
    recurse: PyYAML's raises RecursionError some 900 levels down, and
    libyaml's, in C, overflows an 8 MiB stack some 30,000 levels down.
    """
    depth = 0
    for event in yaml.parse(text, Loader=_LOADER):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > _MAX_DEPTH:
                raise ValidationError(f"scenario nests deeper than {_MAX_DEPTH} levels")
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1


def load_document(text: str) -> Mapping[str, Any]:
    """Parse scenario text into a raw document mapping."""
    try:
        _check_depth(text)
        doc = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ValidationError(f"scenario is not valid YAML: {exc}") from exc
    except ValueError as exc:
        # a value YAML parses but Python cannot build, such as an integer
        # of more than 4300 digits
        raise ValidationError(f"scenario holds a value that cannot be read: {exc}") from exc
    if not isinstance(doc, Mapping):
        raise ValidationError("scenario must be a YAML mapping")
    return doc


def resolve(source: str | Path) -> str:
    """Return scenario text for a bundled name or a file path."""
    name = str(source)
    if name in BUNDLED:
        ref = resources.files(__package__).joinpath(f"scenarios/{name}.yaml")
        return ref.read_text(encoding="utf-8")
    path = Path(source)
    if not path.is_file():
        raise ValidationError(
            f"scenario {name!r} is neither a bundled name {list(BUNDLED)} nor an existing file"
        )
    return path.read_text(encoding="utf-8")


def load(source: str | Path) -> NetworkSpec:
    """Build a validated network from a bundled name or scenario file."""
    return build_network(load_document(resolve(source)))


def _road_entry(spec: NetworkSpec, road_id: str) -> dict[str, Any]:
    r = spec.road(road_id)
    entry: dict[str, Any] = {
        "id": r.id,
        "length": float(r.length),
        "free_flow_speed": float(r.free_flow_speed),
    }
    if r.is_source:
        entry["source"] = True
    if r.is_destination:
        entry["destination"] = True
    if r.exit_rate:
        entry["exit_rate"] = float(r.exit_rate)
    if r.id in spec.inflows:
        profile = spec.inflows[r.id]
        if len(profile) == 1:
            entry["inflow"] = float(profile[0][1])
        else:
            entry["inflow"] = [[float(d), float(v)] for d, v in profile]
    return entry


def to_document(spec: NetworkSpec) -> dict[str, Any]:
    """Canonical explicit document for a network (inverse of building)."""
    doc: dict[str, Any] = {
        "schema_version": 1,
        "name": spec.name,
        "h": float(spec.h),
        "cycle_time": float(spec.cycle_time),
    }
    if spec.allow_phase_overlap:
        doc["allow_phase_overlap"] = True
    if not spec.enforce_turn_conservation:
        doc["enforce_turn_conservation"] = False
    doc["roads"] = [_road_entry(spec, r.id) for r in spec.roads]
    movements = []
    intersections = []
    for x in spec.intersections:
        for mv in x.movements:
            movements.append({
                "intersection": x.id,
                "from": mv.from_road,
                "to": mv.to_road,
                "routing_ratio": float(mv.routing_ratio),
                "saturation_speed": float(mv.saturation_speed),
            })
        intersections.append({
            "id": x.id,
            "phases": [[movement_label(k) for k in phase] for phase in x.phases],
        })
    if movements:
        doc["movements"] = movements
        doc["intersections"] = intersections
    return doc


def dumps(spec: NetworkSpec) -> str:
    """Serialize a network to canonical scenario text."""
    return yaml.safe_dump(to_document(spec), sort_keys=False,
                          default_flow_style=None, width=100)


def dump(spec: NetworkSpec, path: str | Path) -> None:
    Path(path).write_text(dumps(spec), encoding="utf-8")


def config_hash(spec: NetworkSpec) -> str:
    """Short stable fingerprint of a network, for artifact headers.

    It hashes the canonical document as compact JSON with sorted keys,
    which costs a small fraction of the YAML emitter's time.
    """
    text = json.dumps(to_document(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
