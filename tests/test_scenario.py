"""Scenario file loading, canonical export, and hashing."""

import copy
import math
import time

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from greensplit import net_model, scenario
from greensplit.errors import ValidationError


@pytest.mark.parametrize("name", scenario.BUNDLED)
def test_bundled_scenarios_load(name):
    net = scenario.load(name)
    assert net.n > 0
    assert net.cycle_time > 0


def test_round_trip_is_identity():
    for name in scenario.BUNDLED:
        net = scenario.load(name)
        doc = scenario.to_document(net)
        from greensplit.net_model import build_network
        assert build_network(doc) == net


def test_flags_away_from_their_defaults_round_trip():
    net = net_model.build_network({
        "schema_version": 1, "name": "flags", "h": 100, "cycle_time": 60,
        "allow_phase_overlap": True, "enforce_turn_conservation": False,
        "roads": [
            {"id": "a", "length": 200, "free_flow_speed": 14, "source": True, "inflow": 0.01},
            {"id": "b", "length": 100, "free_flow_speed": 14, "destination": True,
             "exit_rate": 1.0},
            {"id": "c", "length": 100, "free_flow_speed": 14, "destination": True,
             "exit_rate": 1.0},
        ],
        "movements": [
            {"intersection": "x", "from": "a", "to": "b", "routing_ratio": 0.5,
             "saturation_speed": 0.05},
            {"intersection": "x", "from": "a", "to": "c", "routing_ratio": 0.4,
             "saturation_speed": 0.05},
        ],
        "intersections": [{"id": "x", "phases": [["a -> b", "a -> c"], ["a -> b"]]}],
    })
    doc = scenario.load_document(scenario.dumps(net))
    assert doc["allow_phase_overlap"] is True
    assert doc["enforce_turn_conservation"] is False
    assert net_model.build_network(doc) == net


def test_dumps_is_deterministic(four_net):
    assert scenario.dumps(four_net) == scenario.dumps(four_net)


def test_config_hash_distinguishes_scenarios():
    hashes = {scenario.config_hash(scenario.load(n)) for n in scenario.BUNDLED}
    assert len(hashes) == len(scenario.BUNDLED)


def test_load_from_file(tmp_path, four_net):
    path = tmp_path / "copy.yaml"
    scenario.dump(four_net, path)
    again = scenario.load(path)
    assert again == four_net
    assert scenario.config_hash(again) == scenario.config_hash(four_net)


def test_unknown_source_rejected():
    with pytest.raises(ValidationError, match="neither"):
        scenario.load("no_such_scenario")


def test_malformed_yaml_rejected(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("roads: [unclosed\n")
    with pytest.raises(ValidationError):
        scenario.load(bad)


def test_non_mapping_document_rejected(tmp_path):
    bad = tmp_path / "list.yaml"
    bad.write_text("- 1\n- 2\n")
    with pytest.raises(ValidationError):
        scenario.load(bad)


@pytest.mark.parametrize("name", scenario.BUNDLED)
def test_libyaml_reads_what_pure_python_reads(name):
    text = scenario.resolve(name)
    assert scenario.load_document(text) == yaml.load(text, Loader=yaml.SafeLoader)


@pytest.mark.parametrize("text", [
    "[" * 900 + "]" * 900,                     # PyYAML's composer: RecursionError
    "[" * 100_000 + "]" * 100_000,             # libyaml's composer: stack overflow
    "a: " + "{b: " * 64 + "1" + "}" * 64,      # 65 mappings
    "- " * 65 + "1",                           # 65 block sequences on one line
], ids=["900-flow", "100000-flow", "65-mappings", "65-block"])
def test_deep_nesting_is_refused(text):
    with pytest.raises(ValidationError, match="^scenario nests deeper than 64 levels$"):
        scenario.load_document(text)


def test_nesting_to_the_limit_loads():
    # the mapping and 63 sequences in it
    expected = []
    for _ in range(62):
        expected = [expected]
    assert scenario.load_document("a: " + "[" * 63 + "]" * 63) == {"a": expected}


def test_grid_block_excludes_explicit_sections(tmp_path):
    doc = tmp_path / "mix.yaml"
    doc.write_text(
        "schema_version: 1\ngrid: {rows: 2, cols: 2}\nroads: []\n"
    )
    with pytest.raises(ValidationError, match="grid"):
        scenario.load(doc)


def test_grid_block_loads(tmp_path):
    doc = tmp_path / "g.yaml"
    doc.write_text("schema_version: 1\ngrid: {rows: 2, cols: 2}\n")
    net = scenario.load(doc)
    assert len(net.intersections) == 4


# property tests over the scenario grammar ------------------------------------

#: the bundled documents as parsed, before any building
DOCUMENTS = {name: scenario.load_document(scenario.resolve(name)) for name in scenario.BUNDLED}

#: values a mutation puts in place of a node: every YAML kind, numbers at
#: and past the edges of the float range, and quoted numbers
VALUES = st.sampled_from([None, True, False, "", "x", "a -> b", math.inf, -math.inf,
                          math.nan, 0, -1, 1e-320, 1e308, -1e308, 10**400, [], [1.0],
                          [[1.0, 2.0]], {}, {"id": "x"}, "100", "0.5", "1e3", "nan"])


@st.composite
def mutated_documents(draw):
    """A bundled document with one to three nodes replaced, dropped, or
    given an unknown sibling.  Each node is found by a walk from the top
    that stops at each level with even odds, so the top-level keys are
    drawn as often as the leaves deep in the road and movement lists."""
    doc = copy.deepcopy(DOCUMENTS[draw(st.sampled_from(scenario.BUNDLED))])
    for _ in range(draw(st.integers(1, 3))):
        parent, key = None, None
        node = doc
        while isinstance(node, (dict, list)) and node and (parent is None
                                                            or draw(st.booleans())):
            parent = node
            key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                       else range(len(node))))
            node = parent[key]
        if parent is None:
            break
        action = draw(st.sampled_from(["replace", "drop", "add"]))
        if action == "replace":
            parent[key] = copy.deepcopy(draw(VALUES))
        elif action == "drop":
            del parent[key]
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(["unknown", "lenght"]))] = copy.deepcopy(draw(VALUES))
        else:
            parent.append(copy.deepcopy(draw(VALUES)))
    return doc


SIZES = st.one_of(st.integers(-1, 4), st.sampled_from([100, 10**6, 10**24]), VALUES)


@st.composite
def grid_documents(draw):
    """A grid declaration of small or huge rows and cols, with some of its
    parameters set to any value."""
    grid = {"rows": draw(SIZES), "cols": draw(SIZES)}
    for key in draw(st.sets(st.sampled_from(sorted(net_model._GRID_KEYS - {"rows", "cols"})))):
        grid[key] = copy.deepcopy(draw(st.one_of(VALUES, st.floats(1e-3, 1e3))))
    return {"schema_version": 1, "grid": grid}


def _builds_or_refuses(doc):
    """A document builds a network or raises ValidationError, within a second."""
    start = time.perf_counter()
    try:
        net = net_model.build_network(doc)
    except ValidationError:
        pass
    else:
        assert isinstance(net, net_model.NetworkSpec)
    assert time.perf_counter() - start < 1.0


@settings(derandomize=True, max_examples=400, deadline=None)
@given(mutated_documents())
def test_mutated_bundled_document_builds_or_is_refused(doc):
    _builds_or_refuses(doc)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(grid_documents())
def test_grid_declaration_builds_or_is_refused(doc):
    _builds_or_refuses(doc)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.builds(yaml.safe_dump, mutated_documents())))
def test_any_text_loads_or_is_refused(text):
    start = time.perf_counter()
    try:
        doc = scenario.load_document(text)
    except ValidationError:
        doc = None
    assert time.perf_counter() - start < 1.0
    if doc is not None:
        _builds_or_refuses(doc)
