import copy
import dataclasses
import functools
import json
import operator
from fractions import Fraction as F
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from giryq import (
    Dist,
    LiftedPredicate,
    Predicate,
    ScenarioError,
    ScenarioParseError,
    ScenarioReferenceError,
    ScenarioValidationError,
    parse_scenario,
    load_scenario,
    scenario_from_dict,
    serialize_scenario,
)
from giryq.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "scenarios"
FIXTURE = CORPUS / "noisy_channel.json"
CORPUS_DOCS = {
    name: json.loads((CORPUS / name).read_text(encoding="utf-8"))
    for name in ("noisy_channel.json", "chain_and_laws.json")
}


def minimal_doc(**overrides):
    doc = {
        "spaces": [
            {"name": "X", "points": ["x1", "x2"]},
            {"name": "Y", "points": ["y1", "y2"]},
        ],
        "kernels": {
            "f": {
                "source": "X",
                "target": "Y",
                "rows": [["1", "0"], ["1/2", "1/2"]],
            }
        },
        "predicates": {"g": {"space": "X", "values": ["1/2", "1"]}},
        "simplex_predicates": {},
        "queries": [],
    }
    doc.update(overrides)
    return doc


def test_bundled_scenario_loads(tmp_path):
    scenario = load_scenario(str(FIXTURE))
    assert [s.name for s in scenario.spaces] == ["X", "Y"]
    assert set(scenario.kernels) == {"f"}
    assert set(scenario.predicates) == {"g", "score"}
    assert set(scenario.simplex_predicates) == {"expected_score", "hits_first_row"}
    assert len(scenario.queries) == 7
    assert scenario.kernels["f"].row("x3").weights == (F(3, 10), F(7, 10))


@pytest.mark.parametrize("name", sorted(CORPUS_DOCS))
def test_round_trip_is_identity(name):
    scenario = load_scenario(str(CORPUS / name))
    again = parse_scenario(serialize_scenario(scenario))
    assert again == scenario
    assert serialize_scenario(again) == serialize_scenario(scenario)


def test_malformed_json_reports_position():
    with pytest.raises(ScenarioParseError, match="line 1"):
        parse_scenario("{ not json")


def test_decimal_rationals_are_rejected():
    doc = minimal_doc()
    doc["kernels"]["f"]["rows"][0] = ["0.5", "0.5"]
    with pytest.raises(ScenarioParseError, match="rational"):
        scenario_from_dict(doc)


_NOT_A_LITERAL = "not a rational literal (expected 'n' or 'n/d'): '0.5'"


def test_a_repeated_bad_literal_is_refused_at_its_first_path_each_time():
    doc = minimal_doc()
    doc["kernels"]["f"]["rows"][1] = ["1/2", "0.5"]
    doc["predicates"]["g"]["values"] = ["0.5", "0.5"]
    for _ in range(2):  # a refused literal is not kept, so the second parse reads it again
        with pytest.raises(ScenarioParseError) as caught:
            scenario_from_dict(copy.deepcopy(doc))
        assert str(caught.value) == f"kernels['f'].rows[1] (point 'x2')[1]: {_NOT_A_LITERAL}"
    doc["kernels"]["f"]["rows"][1] = ["1/2", "1/2"]
    with pytest.raises(ScenarioParseError) as caught:
        scenario_from_dict(doc)
    assert str(caught.value) == f"predicates['g'].values[0]: {_NOT_A_LITERAL}"


@pytest.mark.parametrize(
    "literal, got", [(1, "int"), (True, "bool"), (["1"], "list"), (None, "NoneType")]
)
@pytest.mark.parametrize(
    "place, where",
    [
        (lambda doc: doc["kernels"]["f"]["rows"][1], "kernels['f'].rows[1] (point 'x2')[1]"),
        (lambda doc: doc["predicates"]["g"]["values"], "predicates['g'].values[1]"),
        (lambda doc: doc["queries"][0]["dist"], "queries[0].dist[1]"),
    ],
    ids=["kernel_row", "predicate_values", "query_dist"],
)
def test_a_literal_that_is_not_a_string_is_refused_at_its_path(literal, got, place, where):
    doc = minimal_doc(
        queries=[{"kind": "EXISTS_LP", "kernel": "f", "predicate": "g", "dist": ["1", "0"]}]
    )
    place(doc)[1] = literal
    with pytest.raises(ScenarioParseError) as caught:
        scenario_from_dict(doc)
    assert str(caught.value) == f"{where}: expected str, got {got}"


def test_an_object_with_a_repeated_key_in_place_of_a_literal_is_refused_at_its_path():
    text = json.dumps(minimal_doc()).replace('"1/2", "1"]', '"1/2", {"a": "1", "a": "1"}]')
    with pytest.raises(ScenarioValidationError) as caught:
        parse_scenario(text)
    assert str(caught.value) == "predicates['g'].values[1]: duplicate key 'a'"


def test_equal_literals_share_one_fraction():
    scenario = scenario_from_dict(minimal_doc())
    half, other_half = scenario.kernels["f"].rows[1].weights
    assert half is other_half is scenario.predicates["g"].values[0]


def test_non_stochastic_row_names_the_row():
    doc = minimal_doc()
    doc["kernels"]["f"]["rows"][1] = ["1/2", "2/5"]
    with pytest.raises(ScenarioValidationError, match=r"rows\[1\].*x2"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("count", [1, 3])
def test_wrong_row_count_names_the_kernel(count):
    doc = minimal_doc()
    doc["kernels"]["f"]["rows"] = [["1", "0"]] * count
    message = f"kernels['f']: {count} rows for the 2 points of space 'X'"
    with pytest.raises(ScenarioValidationError) as caught:
        scenario_from_dict(doc)
    assert str(caught.value) == message


def test_unknown_space_reference():
    doc = minimal_doc()
    doc["kernels"]["f"]["target"] = "Nowhere"
    with pytest.raises(ScenarioReferenceError, match="Nowhere"):
        scenario_from_dict(doc)


def test_unknown_kernel_in_query():
    doc = minimal_doc(
        queries=[
            {"kind": "EXISTS_LP", "kernel": "missing", "predicate": "g", "dist": ["1", "0"]}
        ]
    )
    with pytest.raises(ScenarioReferenceError, match="missing"):
        scenario_from_dict(doc)


def test_duplicate_space_names():
    doc = minimal_doc()
    doc["spaces"].append({"name": "X", "points": ["a"]})
    with pytest.raises(ScenarioValidationError, match="declared twice"):
        scenario_from_dict(doc)


def test_unknown_query_kind():
    doc = minimal_doc(queries=[{"kind": "FROBNICATE"}])
    with pytest.raises(ScenarioParseError, match="FROBNICATE"):
        scenario_from_dict(doc)


def test_missing_query_field():
    doc = minimal_doc(queries=[{"kind": "EXISTS_LP", "kernel": "f"}])
    with pytest.raises(ScenarioParseError, match="predicate"):
        scenario_from_dict(doc)


def test_unexpected_field_is_rejected():
    doc = minimal_doc()
    doc["kernels"]["f"]["extra"] = 1
    with pytest.raises(ScenarioParseError, match="extra"):
        scenario_from_dict(doc)


def test_predicate_value_out_of_range():
    doc = minimal_doc()
    doc["predicates"]["g"]["values"] = ["1/2", "3/2"]
    with pytest.raises(ScenarioValidationError, match="outside"):
        scenario_from_dict(doc)


def _set(*path_and_value):
    *path, key, value = path_and_value
    return lambda doc: operator.setitem(functools.reduce(operator.getitem, path, doc), key, value)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_set("spaces", 0, "points", ["x1", "x1"]),
         "spaces[0]: space 'X' has repeated point labels"),
        (_set("kernels", "f", "rows", [["1", "0"]]),
         "kernels['f']: 1 rows for the 2 points of space 'X'"),
        (_set("kernels", "f", "rows", 1, ["1/2", "2/5"]),
         "kernels['f'].rows[1] (point 'x2'): weights on space 'Y' sum to 9/10, expected 1"),
        (_set("predicates", "g", "values", ["1/2", "3/2"]),
         "predicates['g']: value at 'x2' lies outside [0, 1]: 3/2"),
        (_set("simplex_predicates", "t", {"kind": "table", "space": "Y", "default": "0",
                                          "entries": [[["1", "0"], "1"], [["1", "0"], "0"]]}),
         "simplex_predicates['t']: probe table lists a distribution twice"),
        (_set("queries", [{"kind": "EXISTS_LP", "kernel": "f", "predicate": "g",
                           "dist": ["1", "-1"]}]),
         "queries[0].dist: weight of point 'y2' is negative: -1"),
    ],
    ids=["space_label", "row_count", "row_mass", "predicate_value", "table_probe",
         "query_dist"],
)
def test_value_errors_are_located(mutate, message):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(ScenarioValidationError) as caught:
        scenario_from_dict(doc)
    assert str(caught.value) == message


_COMPOSE_SOME = minimal_doc(
    kernels={
        **minimal_doc()["kernels"],
        "h": {"source": "Y", "target": "Y", "rows": [["1", "0"], ["0", "1"]]},
    },
    queries=[{"kind": "COMPOSE", "inner": "f", "outer": "h", "predicate": "g",
              "dist": ["1", "0"], "quantifier": "SOME"}],
)


@pytest.mark.parametrize(
    "doc, message",
    [
        (_COMPOSE_SOME, "queries[0].quantifier: expected 'EXISTS' or 'FORALL', got 'SOME'"),
        (minimal_doc(simplex_predicates={"t": {"kind": "cone"}}),
         "simplex_predicates['t'].kind: expected 'lifted' or 'table', got 'cone'"),
        (minimal_doc(simplex_predicates={"t": {"kind": "table", "space": "Y", "default": "0",
                                               "entries": [[["1", "0"]]]}}),
         "simplex_predicates['t'].entries[0]: expected a [dist, value] pair"),
    ],
    ids=["compose_quantifier", "simplex_kind", "table_entry"],
)
def test_parse_errors_are_located(doc, message):
    with pytest.raises(ScenarioParseError) as caught:
        scenario_from_dict(copy.deepcopy(doc))
    assert str(caught.value) == message


def test_lifted_predicate_over_an_undeclared_base_is_not_serialized():
    doc = minimal_doc()
    doc["predicates"]["on_y"] = {"space": "Y", "values": ["1/4", "3/4"]}
    scenario = scenario_from_dict(doc)
    declared = scenario.predicates["on_y"]
    # equal to a declared predicate, but not one of them
    base = Predicate(declared.space, declared.values)
    scenario = dataclasses.replace(scenario, simplex_predicates={"h": LiftedPredicate(base)})
    with pytest.raises(ScenarioValidationError) as caught:
        serialize_scenario(scenario)
    assert str(caught.value) == "lifted simplex predicate 'h' has an unnamed base"


def test_a_long_simplex_predicate_name_is_not_echoed_when_serializing():
    scenario = scenario_from_dict(minimal_doc())
    declared = scenario.predicates["g"]
    base = Predicate(declared.space, declared.values)
    scenario = dataclasses.replace(scenario, simplex_predicates={_LONG: LiftedPredicate(base)})
    with pytest.raises(ScenarioValidationError) as caught:
        serialize_scenario(scenario)
    assert str(caught.value) == (
        "lifted simplex predicate one 100000 characters long has an unnamed base"
    )


def test_query_dist_validated_against_target_space():
    doc = minimal_doc(
        queries=[
            {"kind": "EXISTS_LP", "kernel": "f", "predicate": "g", "dist": ["1", "0", "0"]}
        ]
    )
    with pytest.raises(ScenarioValidationError):
        scenario_from_dict(doc)


def test_predicate_space_must_match_kernel_source():
    doc = minimal_doc()
    doc["predicates"]["h"] = {"space": "Y", "values": ["1", "0"]}
    doc["queries"] = [
        {"kind": "EXISTS_LP", "kernel": "f", "predicate": "h", "dist": ["1", "0"]}
    ]
    with pytest.raises(
        ScenarioValidationError,
        match=r"^queries\[0\]: predicate lives on 'Y' but the kernel starts at 'X'$",
    ):
        scenario_from_dict(doc)


def test_table_simplex_predicate_requires_default():
    doc = minimal_doc()
    doc["simplex_predicates"]["t"] = {
        "kind": "table",
        "space": "Y",
        "entries": [[["1", "0"], "1"]],
    }
    with pytest.raises(ScenarioParseError, match="default"):
        scenario_from_dict(doc)


def test_lifted_simplex_predicate_resolves_base():
    doc = minimal_doc()
    doc["predicates"]["on_y"] = {"space": "Y", "values": ["1/4", "3/4"]}
    doc["simplex_predicates"]["lifted"] = {"kind": "lifted", "base": "on_y"}
    scenario = scenario_from_dict(doc)
    h = scenario.simplex_predicates["lifted"]
    assert h(Dist(scenario.kernels["f"].target, (F(1, 2), F(1, 2)))) == F(1, 2)


def test_check_laws_suites_validated():
    doc = minimal_doc(queries=[{"kind": "CHECK_LAWS", "suites": ["nope"]}])
    with pytest.raises(ScenarioValidationError, match="nope"):
        scenario_from_dict(doc)


def test_check_laws_suite_listed_twice_is_rejected():
    doc = minimal_doc(queries=[{"kind": "CHECK_LAWS", "suites": ["galois", "galois"]}])
    with pytest.raises(ScenarioValidationError) as caught:
        scenario_from_dict(doc)
    assert str(caught.value) == "queries[0].suites: suite 'galois' listed twice"


def test_space_past_the_cap_exits_2_with_its_path(tmp_path, capsys):
    doc = minimal_doc()
    doc["spaces"].append({"name": "Z", "points": [f"z{i}" for i in range(65)]})
    path = tmp_path / "too_big.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: spaces[2]: 65 points exceeds the cap of 64\n"
    assert captured.out == ""


_LONG = "k" * 100_000


@pytest.mark.parametrize(
    "text",
    [
        json.dumps(minimal_doc(queries=[{"kind": _LONG}])),
        json.dumps(minimal_doc(queries=[{"kind": "DETERMINISM", "kernel": _LONG}])),
        json.dumps(minimal_doc(kernels={"f": {"source": _LONG, "target": "Y", "rows": []}})),
        json.dumps(minimal_doc(simplex_predicates={"t": {"kind": "lifted", "base": _LONG}})),
        json.dumps(minimal_doc(queries=[{"kind": "CHECK_LAWS", "suites": [_LONG]}])),
        json.dumps(minimal_doc(**{_LONG: 1})),
        f'{{"{_LONG}": 1, "{_LONG}": 2}}',
        json.dumps({**_COMPOSE_SOME, "queries": [{**_COMPOSE_SOME["queries"][0], "quantifier": _LONG}]}),
        json.dumps(minimal_doc(simplex_predicates={"t": {"kind": _LONG}})),
    ],
    ids=["query_kind", "unknown_kernel", "unknown_space", "unknown_predicate", "unknown_suite",
         "extra_field", "duplicate_key", "quantifier", "simplex_kind"],
)
def test_a_long_rejected_string_is_not_echoed(tmp_path, capsys, text):
    # measures._QUOTE_LIMIT: a huge input cannot flood the terminal
    path = tmp_path / "long.json"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "one 100000 characters long" in err
    assert len(err.encode()) < 300, err[:300]


_LONG_NAME = "one 100000 characters long"
_BAD_ROWS = [["1", "1"], ["1/2", "1/2"]]


@pytest.mark.parametrize(
    "doc, message",
    [
        (minimal_doc(kernels={_LONG: {"source": "X", "target": "Y", "rows": _BAD_ROWS}}),
         f"kernels[{_LONG_NAME}].rows[0] (point 'x1'): weights on space 'Y' sum to 2"),
        (minimal_doc(spaces=[{"name": _LONG, "points": []}, {"name": _LONG, "points": []}]),
         f"spaces[1]: space {_LONG_NAME} declared twice"),
        (minimal_doc(spaces=[{"name": "X", "points": [_LONG, "x2"]}, {"name": "Y", "points": []}],
                     kernels={}, predicates={"g": {"space": "X", "values": ["3", "1"]}}),
         f"predicates['g']: value at {_LONG_NAME} lies outside [0, 1]: 3"),
        (minimal_doc(spaces=[{"name": "X", "points": [_LONG, "x2"]}, {"name": "Y", "points": ["y"]}],
                     kernels={"f": {"source": "X", "target": "Y", "rows": [["2"], ["1"]]}}),
         f"kernels['f'].rows[0] (point {_LONG_NAME}): weights on space 'Y' sum to 2"),
        (minimal_doc(predicates={_LONG: {"space": "X", "values": ["3", "1"]}}),
         f"predicates[{_LONG_NAME}]: value at 'x1' lies outside [0, 1]: 3"),
        (minimal_doc(simplex_predicates={_LONG: {"kind": "lifted", "base": "h"}}),
         f"simplex_predicates[{_LONG_NAME}].base: unknown predicate 'h'"),
        (minimal_doc(spaces=[{"name": _LONG, "points": ["x1", "x2"]}],
                     kernels={"f": {"source": _LONG, "target": _LONG, "rows": [["1", "0"]]}}),
         f"kernels['f']: 1 rows for the 2 points of space {_LONG_NAME}"),
        (minimal_doc(spaces=[*minimal_doc()["spaces"], {"name": _LONG, "points": ["x1", "x2"]}],
                     predicates={"g": {"space": _LONG, "values": ["1", "1"]}},
                     queries=[{"kind": "EXISTS_LP", "kernel": "f", "predicate": "g",
                               "dist": ["1", "0"]}]),
         f"queries[0]: predicate lives on {_LONG_NAME} but the kernel starts at 'X'"),
        ({**_COMPOSE_SOME, "queries": [{**_COMPOSE_SOME["queries"][0],
                                        "quantifier": list(range(30_000))}]},
         "queries[0].quantifier: expected 'EXISTS' or 'FORALL', got a list whose repr is "
         "198890 characters long"),
    ],
    ids=["kernel_name", "space_twice", "point_label", "row_point", "predicate_name",
         "simplex_predicate_name", "space_of_rows", "space_mismatch", "quantifier_list"],
)
def test_a_long_declared_name_is_not_echoed(tmp_path, run_python, doc, message):
    # a declaration name, a point label or a rejected value of any type is
    # quoted through measures._quoted wherever an error message names it
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    done = run_python("-m", "giryq.cli", "run", str(path))
    err = done.stderr.decode()
    assert done.returncode == 2, err[:300]
    assert len(err) < 300 and "Traceback" not in err, err[:300]
    assert err.startswith(f"error: {message}"), err
    assert done.stdout == b""


def test_lifted_base_serializes_under_its_own_name():
    doc = minimal_doc()
    doc["predicates"]["p"] = {"space": "Y", "values": ["1/4", "3/4"]}
    doc["predicates"]["q"] = {"space": "Y", "values": ["1/4", "3/4"]}
    doc["simplex_predicates"]["h"] = {"kind": "lifted", "base": "q"}
    out = json.loads(serialize_scenario(scenario_from_dict(doc)))
    assert out["simplex_predicates"]["h"] == {"kind": "lifted", "base": "q"}


def test_compose_query_chain_validation():
    doc = minimal_doc()
    doc["kernels"]["k2"] = {
        "source": "X",
        "target": "Y",
        "rows": [["1", "0"], ["0", "1"]],
    }
    doc["queries"] = [
        {
            "kind": "COMPOSE",
            "inner": "f",
            "outer": "k2",
            "predicate": "g",
            "dist": ["1", "0"],
        }
    ]
    with pytest.raises(
        ScenarioValidationError,
        match=r"^queries\[0\]: inner lands in 'Y' but outer starts at 'X'$",
    ):
        scenario_from_dict(doc)


def test_compose_predicate_must_live_where_the_chain_starts():
    doc = minimal_doc()
    doc["kernels"]["back"] = {"source": "Y", "target": "X", "rows": [["1", "0"], ["0", "1"]]}
    doc["predicates"]["h"] = {"space": "Y", "values": ["1", "0"]}
    doc["queries"] = [
        {"kind": "COMPOSE", "inner": "f", "outer": "back", "predicate": "h", "dist": ["1", "0"]}
    ]
    with pytest.raises(
        ScenarioValidationError,
        match=r"^queries\[0\]: predicate lives on 'Y' but the chain starts at 'X'$",
    ):
        scenario_from_dict(doc)


# wrong types, undeclared names and bad rational literals
MUTATION_POOL = (
    None, True, 7, 1.5, "", [], {}, ["1"], {"kind": "METRIC"},
    "nowhere", "X", "f", "EXISTS_LP", "FORALL",
    "0.5", "1/0", "-1/2", "2", "3/2", "\u0661/\u0662", "1/" + "1" * 5000,
)


def _paths(node, path=()):
    """The key or index path of every value inside a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def mutants(draw, doc):
    """``doc`` with one to three keys or list items deleted or replaced."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *parent_path, key = draw(st.sampled_from(paths))
        parent = functools.reduce(operator.getitem, parent_path, doc)
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(MUTATION_POOL)))
    return doc


@pytest.mark.parametrize("name", sorted(CORPUS_DOCS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_corpus_parses_or_raises_scenario_error(name, data):
    mutant = data.draw(mutants(CORPUS_DOCS[name]))
    try:
        scenario = scenario_from_dict(mutant)
    except ScenarioError:
        return
    text = serialize_scenario(scenario)
    assert parse_scenario(text) == scenario
    assert serialize_scenario(parse_scenario(text)) == text
