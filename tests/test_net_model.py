"""Network model construction and validation."""

import copy
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

from greensplit import net_model, scenario
from greensplit.errors import ValidationError


def minimal_doc(**overrides):
    """A two-road corridor document that passes validation."""
    doc = {
        "schema_version": 1,
        "name": "corridor",
        "h": 100,
        "cycle_time": 60,
        "roads": [
            {"id": "a", "length": 200, "free_flow_speed": 14,
             "source": True, "inflow": 0.01},
            {"id": "b", "length": 100, "free_flow_speed": 14,
             "destination": True, "exit_rate": 1.0},
        ],
        "movements": [
            {"intersection": "x", "from": "a", "to": "b",
             "routing_ratio": 1.0, "saturation_speed": 0.05},
        ],
        "intersections": [
            {"id": "x", "phases": [["a -> b"], []]},
        ],
    }
    doc.update(overrides)
    return doc


def test_minimal_document_builds():
    net = net_model.build_network(minimal_doc())
    assert net.n == 3
    assert net.n_roads == 2
    assert net.sources == ("a",)
    assert net.destinations == ("b",)


def test_cell_count_is_ceiling():
    for length, cells in [(200, 2), (201, 3), (100, 1), (250, 3)]:
        doc = minimal_doc()
        doc["roads"][0]["length"] = length
        net = net_model.build_network(doc)
        assert net.roads[0].cell_count == cells


def test_cell_count_tolerates_representation_noise():
    # 3 * 0.1 / 0.1 is slightly above 3 in floats; must not round up to 4
    doc = minimal_doc(h=0.1)
    doc["roads"][0]["length"] = 0.30000000000000004
    doc["roads"][1]["length"] = 0.1
    net = net_model.build_network(doc)
    assert net.roads[0].cell_count == 3


@pytest.mark.parametrize("mutate,msg", [
    (lambda d: d["roads"][0].update(length=-5), "length"),
    (lambda d: d["roads"][0].update(free_flow_speed=0), "free_flow_speed"),
    (lambda d: d["roads"][1].update(exit_rate=0.0), "exit_rate"),
    (lambda d: d["roads"][1].update(exit_rate=1.5), "exit_rate"),
    (lambda d: d["movements"][0].update(routing_ratio=0.0), "routing_ratio"),
    (lambda d: d["movements"][0].update(routing_ratio=1.2), "routing_ratio"),
    (lambda d: d["movements"][0].update(saturation_speed=-1), "saturation_speed"),
])
def test_bad_numbers_rejected(mutate, msg):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(ValidationError, match=msg):
        net_model.build_network(doc)


def test_duplicate_road_ids_rejected():
    doc = minimal_doc()
    doc["roads"].append(dict(doc["roads"][0]))
    with pytest.raises(ValidationError, match="duplicate"):
        net_model.build_network(doc)


def test_exit_rate_needs_destination():
    doc = minimal_doc()
    doc["roads"][0]["exit_rate"] = 0.5
    with pytest.raises(ValidationError, match="exit_rate"):
        net_model.build_network(doc)


def test_source_and_destination_exclusive():
    doc = minimal_doc()
    doc["roads"][0]["destination"] = True
    doc["roads"][0]["exit_rate"] = 1.0
    with pytest.raises(ValidationError):
        net_model.build_network(doc)


def test_inflow_only_on_sources():
    doc = minimal_doc()
    doc["roads"][1]["inflow"] = 0.01
    with pytest.raises(ValidationError, match="inflow"):
        net_model.build_network(doc)


def test_movement_must_be_scheduled():
    doc = minimal_doc()
    doc["intersections"][0]["phases"] = [[], []]
    with pytest.raises(ValidationError, match="phase"):
        net_model.build_network(doc)


def test_destination_cannot_discharge():
    doc = minimal_doc()
    doc["roads"].append({"id": "c", "length": 100, "free_flow_speed": 14,
                         "destination": True, "exit_rate": 1.0})
    doc["movements"].append({"intersection": "x", "from": "b", "to": "c",
                             "routing_ratio": 1.0, "saturation_speed": 0.05})
    doc["intersections"][0]["phases"] = [["a -> b"], ["b -> c"]]
    with pytest.raises(ValidationError, match="destination"):
        net_model.build_network(doc)


def test_routing_ratios_must_sum_to_one():
    doc = minimal_doc()
    doc["roads"].append({"id": "c", "length": 100, "free_flow_speed": 14,
                         "destination": True, "exit_rate": 1.0})
    doc["movements"][0]["routing_ratio"] = 0.6
    doc["movements"].append({"intersection": "x", "from": "a", "to": "c",
                             "routing_ratio": 0.3, "saturation_speed": 0.05})
    doc["intersections"][0]["phases"] = [["a -> b"], ["a -> c"]]
    with pytest.raises(ValidationError, match="sum"):
        net_model.build_network(doc)
    doc["movements"][1]["routing_ratio"] = 0.4
    net = net_model.build_network(doc)
    assert net.n_roads == 3


def _road(rid, **flags):
    return {"id": rid, "length": 100, "free_flow_speed": 14, **flags}


def _move(x, frm, to):
    return {"intersection": x, "from": frm, "to": to,
            "routing_ratio": 1.0, "saturation_speed": 0.05}


def test_unreachable_road_rejected():
    orphan = minimal_doc()
    orphan["roads"].append(_road("orphan"))
    # c and d feed each other and never reach the destination b
    loop = minimal_doc()
    loop["roads"] += [_road("c"), _road("d")]
    loop["movements"] += [_move("y", "c", "d"), _move("z", "d", "c")]
    loop["intersections"] += [{"id": "y", "phases": [["c -> d"]]},
                              {"id": "z", "phases": [["d -> c"]]}]
    for doc, stranded in ((orphan, "['orphan']"), (loop, "['c', 'd']")):
        with pytest.raises(ValidationError, match="no path") as info:
            net_model.build_network(doc)
        assert stranded in str(info.value)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 9), st.data())
def test_destination_reachability_matches_csgraph(k, data):
    # roads r0..r{k-1} behind one intersection, r0 a source and some of the
    # others destinations; random movements leave the non-destinations
    roads = [f"r{i}" for i in range(k)]
    ends = data.draw(st.sets(st.integers(1, k - 1), min_size=1))
    starts = [i for i in range(k) if i not in ends]
    pairs = [(i, j) for i in starts for j in range(k) if i != j]
    moves = data.draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    doc = minimal_doc(
        enforce_turn_conservation=False,
        roads=[_road(r, source=True, inflow=0.01) if i == 0 else
               _road(r, destination=True, exit_rate=1.0) if i in ends else _road(r)
               for i, r in enumerate(roads)],
        movements=[_move("x", roads[i], roads[j]) for i, j in moves],
        intersections=[{"id": "x", "phases": [[f"{roads[i]} -> {roads[j]}"]
                                              for i, j in moves]}],
    )
    feeds = np.zeros((k, k))
    for i, j in moves:
        feeds[j, i] = 1.0
    hops = csgraph.shortest_path(feeds, unweighted=True, indices=sorted(ends))
    stranded = [roads[i] for i in range(k) if not np.isfinite(hops[:, i]).any()]
    if stranded:
        with pytest.raises(ValidationError, match="no path") as info:
            net_model.build_network(doc)
        assert str(sorted(stranded)) in str(info.value)
    else:
        assert net_model.build_network(doc).n_roads == k


def test_multi_hop_chain_reaches_destination():
    doc = minimal_doc(
        roads=[_road("a", source=True, inflow=0.01), _road("m1"), _road("m2"),
               _road("b", destination=True, exit_rate=1.0)],
        movements=[_move("x1", "a", "m1"), _move("x2", "m1", "m2"),
                   _move("x3", "m2", "b")],
        intersections=[{"id": f"x{k}", "phases": [[ref], []]}
                       for k, ref in ((1, "a -> m1"), (2, "m1 -> m2"),
                                      (3, "m2 -> b"))],
    )
    net = net_model.build_network(doc)
    assert net.n_roads == 4


def _grid_doc(**grid):
    return {"schema_version": 1, "grid": {"rows": 1, "cols": 1, **grid}}


def _mutated(mutate):
    doc = minimal_doc()
    mutate(doc)
    return doc


@pytest.mark.parametrize("doc", [
    minimal_doc(schema_version=True),
    _grid_doc(rows=True),
    _grid_doc(exit_rate="all"),
    _grid_doc(inflow="heavy"),
    _grid_doc(through_ratio="most"),
    _mutated(lambda d: d["roads"][1].update(exit_rate="fast")),
    _mutated(lambda d: d["roads"][0].update(inflow=True)),
    _mutated(lambda d: d["movements"][0].update(routing_ratio="most")),
    _mutated(lambda d: d["movements"][0].update(saturation_speed=[0.05])),
    _mutated(lambda d: d["movements"][0].update(saturation_speed=math.nan)),
    _mutated(lambda d: d["intersections"][0].update(phases=[["a -> b"], 5])),
], ids=["schema_version_bool", "grid_rows_bool", "grid_exit_rate_text",
        "grid_inflow_text", "grid_through_ratio_text", "exit_rate_text",
        "inflow_bool", "routing_ratio_text", "saturation_speed_list",
        "saturation_speed_nan", "phase_not_list"])
def test_malformed_values_are_validation_errors(doc):
    with pytest.raises(ValidationError):
        net_model.build_network(doc)


def _numeric_leaves(node, path=()):
    """Paths of the int and float leaves of a document, bools left out."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path] if isinstance(node, (int, float)) and not isinstance(node, bool) else []
    return [p for key, child in items for p in _numeric_leaves(child, path + (key,))]


@pytest.mark.parametrize("name", scenario.BUNDLED)
def test_quoted_numbers_are_refused(name):
    # every number of a bundled document, quoted as YAML's "100" is, makes
    # the document invalid: a string is never read as a number.  So does
    # an integer past the float range, which float() cannot convert
    doc = scenario.load_document(scenario.resolve(name))
    leaves = _numeric_leaves(doc)
    assert leaves
    for path in leaves:
        for replace in (str, lambda value: 10**400):
            quoted = copy.deepcopy(doc)
            parent = quoted
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = replace(parent[path[-1]])
            with pytest.raises(ValidationError):
                net_model.build_network(quoted)


@pytest.mark.parametrize("value, digits", [(10**5000, 5001), (-10**5000 + 1, 5000),
                                           (10**400, 401)],
                         ids=["10**5000", "1-10**5000", "10**400"])
def test_integer_past_the_float_range_is_named_by_its_digit_count(value, digits):
    # repr() of an integer of more than 4300 digits raises ValueError
    with pytest.raises(ValidationError, match=fr"^grid: h must be a number, got an "
                                              fr"integer of {digits} digits$"):
        net_model._as_number("grid", "h", value)


def _corridor_pair(x_to, y_from, y_to, **roads):
    """Roads a, b and the roads of a second movement ``y_from -> y_to`` at
    intersection y, beside ``a -> x_to`` at intersection x."""
    return minimal_doc(
        roads=[_road("a", source=True), _road("b", destination=True, exit_rate=1.0),
               *(_road(rid, **flags) for rid, flags in roads.items())],
        movements=[_move("x", "a", x_to), _move("y", y_from, y_to)],
        intersections=[{"id": "x", "phases": [[f"a -> {x_to}"]]},
                       {"id": "y", "phases": [[f"{y_from} -> {y_to}"]]}],
    )


_DEST = {"destination": True, "exit_rate": 1.0}


@pytest.mark.parametrize("case, fragment", [
    (lambda: net_model.build_network(minimal_doc()).road("zz"), "unknown road id 'zz'"),
    (lambda: net_model.Schedule((0.0,), ()), "at least one mode window"),
    (lambda: net_model.Schedule((0.0, 60.0), ()), "one phase assignment required"),
    (lambda: net_model.Schedule((1.0, 60.0), ((),)), "must start at time 0"),
    (lambda: net_model.Schedule((0.0, 40.0, 20.0), ((), ())), "must be nondecreasing"),
    (_mutated(lambda d: d["roads"][0].update(inflow=-0.01)), "inflow rate must be nonnegative"),
    (_mutated(lambda d: d["roads"][0].update(inflow=[[60]])), "must be [duration, rate] pairs"),
    (_mutated(lambda d: d["roads"][0].update(inflow=[[30, 0.01], [30, -0.01]])),
     "inflow rate must be nonnegative"),
    (_mutated(lambda d: d["intersections"].append({"id": "x", "phases": [["a -> b"]]})),
     "duplicate intersection id 'x'"),
    (_mutated(lambda d: d["movements"].append(_move("x", "a", "a"))), "loops onto itself"),
    (_mutated(lambda d: d["movements"].append(_move("x", "a", "b"))),
     "'a -> b' declared at both 'x' and 'x'"),
    (_corridor_pair("b", "a", "c", c=_DEST), "road 'a' discharges at two intersections"),
    (_corridor_pair("b", "c", "b", c={"source": True}), "road 'b' is fed by two intersections"),
    (_mutated(lambda d: d["intersections"][0].update(phases=[])), "declares no phases"),
    (_corridor_pair("b", "c", "d", c={"source": True}, d=_DEST)
     | {"intersections": [{"id": "x", "phases": [["a -> b", "c -> d"]]},
                          {"id": "y", "phases": [["c -> d"]]}]},
     "'c -> d' is not a movement of this intersection"),
    ([1, 2], "scenario document must be a mapping"),
    (_mutated(lambda d: d["intersections"][0].update(phases="a -> b")), "phases must be a list"),
    (_grid_doc(inflow=-0.01), "grid: inflow must be nonnegative"),
    (lambda: net_model.uniform_schedule(net_model.build_network(minimal_doc()), 0.0),
     "cycle time must be positive"),
], ids=["road_unknown", "schedule_no_window", "schedule_assignments", "schedule_start",
        "schedule_decreasing", "inflow_negative", "inflow_segment_not_pair",
        "inflow_segment_negative", "intersection_duplicate", "movement_loop",
        "movement_twice", "road_discharges_twice", "road_fed_twice", "no_phases",
        "phase_names_other_movement", "document_not_mapping", "phases_not_list",
        "grid_inflow_negative", "uniform_cycle_zero"])
def test_each_network_rule_has_its_message(case, fragment):
    with pytest.raises(ValidationError, match=re.escape(fragment)):
        case() if callable(case) else net_model.build_network(case)


@pytest.mark.parametrize("doc, key", [
    (minimal_doc(allow_phase_overlap="false"), "allow_phase_overlap"),
    (_mutated(lambda d: d["roads"][0].update(source="no")), "source"),
    (_mutated(lambda d: d["roads"][1].update(destination=1)), "destination"),
    (minimal_doc(enforce_turn_conservation="yes"), "enforce_turn_conservation"),
], ids=["overlap_text_false", "source_text_no", "destination_int", "conservation_text_yes"])
def test_flags_must_be_booleans(doc, key):
    with pytest.raises(ValidationError, match=key):
        net_model.build_network(doc)


@pytest.mark.parametrize("flag", [True, False])
def test_boolean_flags_accepted(flag):
    net = net_model.build_network(minimal_doc(allow_phase_overlap=flag,
                                              enforce_turn_conservation=flag))
    assert net.allow_phase_overlap is flag
    assert net.enforce_turn_conservation is flag
    assert net.sources == ("a",) and net.destinations == ("b",)


def test_unknown_keys_rejected():
    with pytest.raises(ValidationError, match="unknown"):
        net_model.build_network(minimal_doc(surprise=1))
    doc = minimal_doc()
    doc["roads"][0]["speed_limit"] = 50
    with pytest.raises(ValidationError, match="unknown"):
        net_model.build_network(doc)


def test_schema_version_required():
    doc = minimal_doc()
    del doc["schema_version"]
    with pytest.raises(ValidationError, match="schema_version"):
        net_model.build_network(doc)
    with pytest.raises(ValidationError, match="schema_version"):
        net_model.build_network(minimal_doc(schema_version=2))


def test_overlapping_phases_need_flag():
    doc = minimal_doc()
    doc["roads"].append({"id": "c", "length": 100, "free_flow_speed": 14,
                         "destination": True, "exit_rate": 1.0})
    doc["movements"][0]["routing_ratio"] = 0.5
    doc["movements"].append({"intersection": "x", "from": "a", "to": "c",
                             "routing_ratio": 0.5, "saturation_speed": 0.05})
    doc["intersections"][0]["phases"] = [["a -> b", "a -> c"], ["a -> b"]]
    with pytest.raises(ValidationError, match="overlap"):
        net_model.build_network(doc)
    doc["allow_phase_overlap"] = True
    assert net_model.build_network(doc).allow_phase_overlap


def test_piecewise_inflow_parses_and_must_cover_cycle():
    doc = minimal_doc()
    doc["roads"][0]["inflow"] = [[20, 0.01], [40, 0.03]]
    net = net_model.build_network(doc)
    assert net.inflow_profile("a") == ((20.0, 0.01), (40.0, 0.03))
    assert math.isclose(net.average_inflow()[0], (20 * 0.01 + 40 * 0.03) / 60)
    doc["roads"][0]["inflow"] = [[20, 0.01], [20, 0.03]]
    with pytest.raises(ValidationError, match="cycle"):
        net_model.build_network(doc)


def test_state_labels_and_slices(four_net):
    labels = four_net.state_labels
    assert len(labels) == four_net.n
    sl = four_net.state_slice("r1")
    assert labels[sl.start].startswith("r1[")
    assert sl.stop - sl.start == 3


def test_movement_key_round_trip():
    key = net_model.parse_movement_key("r1 -> r2")
    assert key == ("r1", "r2")
    assert net_model.movement_label(key) == "r1 -> r2"
    with pytest.raises(ValidationError):
        net_model.parse_movement_key("r1 r2")


# grid generator ------------------------------------------------------------

def test_grid_shape_counts():
    net = net_model.generate_grid(2, 3)
    # each row corridor has cols+1 segments in both directions; same per column
    roads = 2 * 2 * (3 + 1) + 2 * 3 * (2 + 1)
    assert net.n_roads == roads
    assert len(net.intersections) == 6
    assert all(len(x.phases) == 4 for x in net.intersections)
    assert all(len(x.movements) == 12 for x in net.intersections)


def test_grid_single_intersection_is_four_way():
    net = net_model.generate_grid(1, 1)
    assert net.n_roads == 8
    assert len(net.sources) == 4
    assert len(net.destinations) == 4


def test_grid_scenarios_bundled_match_generator():
    bundled = scenario.load("grid_3x3")
    direct = net_model.generate_grid(3, 3)
    assert bundled == direct


@pytest.mark.parametrize("entry", ["build_network", "generate_grid"])
@pytest.mark.parametrize("name", [None, "big"], ids=["default_name", "named"])
@pytest.mark.parametrize("rows, cols", [(10**5000, 1), (1, 10**5000)],
                         ids=["rows", "cols"])
def test_grid_size_too_long_to_print_is_one_validation_line(entry, name, rows, cols):
    # Python refuses to print an integer of more than 4300 digits, which the
    # default name and the memory message would both do
    doc = _grid_doc(rows=rows, cols=cols)
    if name is not None:
        doc["name"] = name
    with pytest.raises(ValidationError) as info:
        if entry == "build_network":
            net_model.build_network(doc)
        else:
            net_model.generate_grid(rows, cols, name=name)
    assert str(info.value).startswith("one matrix of a grid whose order has 5002 digits "
                                      "would hold about inf GiB, over half of the ")


def test_grid_order_of_100_digits_is_printed():
    # a rows x 1 grid of 3 cells a road has order 18 rows + 6
    rows = 10**98
    order = 18 * rows + 6
    with pytest.raises(ValidationError, match=fr"^one {order}x{order} matrix of a "
                                              fr"{rows}x1 grid would hold"):
        net_model.generate_grid(rows, 1)
    with pytest.raises(ValidationError, match=r"^one matrix of a grid whose order has "
                                              r"101 digits would hold"):
        net_model.generate_grid(10 * rows, 1)


# schedules ------------------------------------------------------------------

def test_uniform_schedule_equal_windows(four_net):
    sched = net_model.uniform_schedule(four_net)
    assert sched.n_modes == 4
    np.testing.assert_allclose(sched.durations, 25.0)
    assert sched.cycle_time == pytest.approx(100.0)


def test_uniform_schedule_cycle_override(four_net):
    sched = net_model.uniform_schedule(four_net, cycle_time=60.0)
    assert sched.cycle_time == pytest.approx(60.0)
    np.testing.assert_allclose(sched.durations, 15.0)


def test_with_durations_keeps_assignments(four_net, four_schedule):
    new = four_schedule.with_durations([40, 10, 10, 40])
    np.testing.assert_allclose(new.durations, [40, 10, 10, 40])
    assert new.assignments == four_schedule.assignments
    with pytest.raises(ValidationError):
        four_schedule.with_durations([40, 10, 10])
    with pytest.raises(ValidationError):
        four_schedule.with_durations([-40, 60, 40, 40])
    for value in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="finite"):
            four_schedule.with_durations([value, 25.0, 25.0, 25.0])
        with pytest.raises(ValidationError, match="finite"):
            net_model.Schedule((0.0, value, 100.0), four_schedule.assignments[:2])


def test_green_set_matches_phases(single_net):
    sched = net_model.uniform_schedule(single_net)
    assert sched.green_set(single_net, 0) == frozenset({("r1", "r2")})
    assert sched.green_set(single_net, 1) == frozenset()
