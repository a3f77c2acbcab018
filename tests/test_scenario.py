import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from giryq import (
    Dist,
    ScenarioParseError,
    ScenarioReferenceError,
    ScenarioValidationError,
    parse_scenario,
    load_scenario,
    scenario_from_dict,
    serialize_scenario,
)

FIXTURE = Path(__file__).resolve().parent.parent / "scenarios" / "noisy_channel.json"


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


def test_round_trip_is_identity():
    scenario = load_scenario(str(FIXTURE))
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


def test_non_stochastic_row_names_the_row():
    doc = minimal_doc()
    doc["kernels"]["f"]["rows"][1] = ["1/2", "2/5"]
    with pytest.raises(ScenarioValidationError, match=r"rows\[1\].*x2"):
        scenario_from_dict(doc)


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
    with pytest.raises(ScenarioValidationError, match="starts at"):
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


def test_space_cap_from_environment(monkeypatch):
    monkeypatch.setenv("GIRYQ_MAX_SPACE", "1")
    with pytest.raises(ScenarioValidationError, match="cap"):
        scenario_from_dict(minimal_doc())


def test_space_cap_must_be_an_integer(monkeypatch):
    monkeypatch.setenv("GIRYQ_MAX_SPACE", "lots")
    with pytest.raises(ScenarioValidationError, match="integer"):
        scenario_from_dict(minimal_doc())


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
    with pytest.raises(ScenarioValidationError, match="outer"):
        scenario_from_dict(doc)
