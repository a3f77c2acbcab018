import ast
import dataclasses
import json
import os
import sys
from pathlib import Path

import pytest

from giryq import Kernel, compose, laws, quantifiers
from giryq.cli import evaluate_query, evaluate_scenario, main, render_text
from giryq.scenario import Query, load_scenario, scenario_from_dict

FIXTURE = str(Path(__file__).resolve().parent.parent / "scenarios" / "noisy_channel.json")
SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "giryq").glob("*.py"))


def test_run_bundled_scenario(capsys):
    assert main(["run", FIXTURE]) == 0
    out = capsys.readouterr().out
    assert "14/25" in out
    assert "47/70" in out
    assert "witness: (2/5, 3/5, 0)" in out
    assert "witness: (4/7, 0, 3/7)" in out
    assert "approx" in out


def test_run_json_format(capsys):
    assert main(["run", FIXTURE, "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 7
    first = records[0]
    assert first["kind"] == "FORALL_LP"
    assert first["value"] == "14/25"
    assert first["value_decimal"] == pytest.approx(0.56)
    assert first["witness"] == ["2/5", "3/5", "0"]
    assert first["feasible"] is True
    assert first["regime"] == "LP"
    infeasible = records[3]
    assert infeasible["kind"] == "FORALL_COUNTABLE"
    assert infeasible["value"] == "1"
    assert infeasible["feasible"] is False


def test_output_is_deterministic(capsys):
    main(["run", FIXTURE, "--format", "json"])
    first = capsys.readouterr().out
    main(["run", FIXTURE, "--format", "json"])
    assert capsys.readouterr().out == first


def test_parallel_matches_sequential():
    scenario = load_scenario(FIXTURE)
    assert evaluate_scenario(scenario, parallel=True) == evaluate_scenario(scenario)


def test_parallel_flag_is_refused(run_python):
    done = run_python("-m", "giryq.cli", "run", FIXTURE, "--parallel")
    err = done.stderr.decode()
    assert done.returncode == 2, err
    assert "error: unrecognized arguments: --parallel" in err
    assert "Traceback" not in err
    assert done.stdout == b""


def _compose(inner, outer, quantifier, dist):
    return {"kind": "COMPOSE", "inner": inner, "outer": outer, "predicate": "p",
            "quantifier": quantifier, "dist": dist}


# COMPOSE queries over two kernel pairs, f then g and h then g, with both
# quantifiers; f repeats rows, and the last query is unreachable
CHAIN_DOC = {
    "spaces": [
        {"name": "X", "points": ["x1", "x2", "x3", "x4"]},
        {"name": "Y", "points": ["y1", "y2", "y3"]},
        {"name": "Z", "points": ["z1", "z2"]},
    ],
    "kernels": {
        "f": {"source": "X", "target": "Y",
              "rows": [["1", "0", "0"], ["0", "1", "0"], ["1", "0", "0"], ["1/2", "1/2", "0"]]},
        "h": {"source": "X", "target": "Y",
              "rows": [["0", "0", "1"], ["0", "0", "1"], ["1/3", "1/3", "1/3"], ["0", "1", "0"]]},
        "g": {"source": "Y", "target": "Z", "rows": [["1", "0"], ["0", "1"], ["1/2", "1/2"]]},
    },
    "predicates": {"p": {"space": "X", "values": ["1/5", "2/5", "3/5", "9/10"]}},
    "simplex_predicates": {},
    "queries": [
        _compose("f", "g", "EXISTS", ["1/2", "1/2"]),
        _compose("h", "g", "FORALL", ["1/2", "1/2"]),
        _compose("f", "g", "FORALL", ["1/2", "1/2"]),
        _compose("f", "g", "EXISTS", ["1", "0"]),
        _compose("h", "g", "EXISTS", ["1/2", "1/2"]),
        _compose("h", "g", "FORALL", ["1", "0"]),
    ],
}


def test_compose_queries_compose_each_kernel_pair_once(monkeypatch):
    composed = []
    compose = quantifiers.compose

    def recording_compose(outer, inner):
        composed.append((outer, inner))
        return compose(outer, inner)

    monkeypatch.setattr(quantifiers, "compose", recording_compose)
    scenario = scenario_from_dict(CHAIN_DOC)
    alone = [evaluate_query(scenario, q, seed=0, cases=0) for q in scenario.queries]
    assert all(record["agrees_with_direct"] for record in alone)
    assert [record["feasible"] for record in alone] == [True] * 5 + [False]
    assert evaluate_scenario(scenario) == alone
    # across single queries and a whole scenario, each pair is composed once
    kernels = scenario.kernels
    assert composed == [(kernels["g"], kernels["f"]), (kernels["g"], kernels["h"])]


def test_compose_queries_stage_each_kernel_pair_once(monkeypatch):
    spread = []
    image_measure = quantifiers.image_measure

    def recording_image_measure(kernel, dist):
        spread.append((kernel, dist))
        return image_measure(kernel, dist)

    monkeypatch.setattr(quantifiers, "image_measure", recording_image_measure)
    scenario = scenario_from_dict(CHAIN_DOC)
    senses = {q.args["quantifier"] for q in scenario.queries}
    assert senses == {"EXISTS", "FORALL"}
    for q in scenario.queries:
        evaluate_query(scenario, q, seed=0, cases=0)
    evaluate_scenario(scenario)
    # one image measure per row class of each inner kernel, in class order,
    # and none again however often or in which sense the pair is queried
    kernels = scenario.kernels
    outer = kernels["g"]
    assert spread == [
        (outer, rep) for name in ("f", "h") for rep in kernels[name].row_partition[1]
    ]
    assert len(spread) == 6


def test_compose_disagreement_with_the_direct_kernel_is_reported(monkeypatch):
    def permuted_compose(outer, inner):
        kernel = compose(outer, inner)
        return Kernel(kernel.source, kernel.target, kernel.rows[::-1])

    monkeypatch.setattr(quantifiers, "compose", permuted_compose)
    records = evaluate_scenario(scenario_from_dict(CHAIN_DOC))
    # the staged values do not move; along the reversed rows the direct
    # check reads other points at every reachable query (x4 for x1, ...),
    # and the unreachable query is unreachable either way
    assert [r["value"] for r in records] == ["9/10", "1/5", "9/10", "3/5", "3/5", "1"]
    assert [r["agrees_with_direct"] for r in records] == [False] * 5 + [True]
    text = render_text(records)
    assert text.count("agrees with direct evaluation: no") == 5
    assert text.count("agrees with direct evaluation: yes") == 1


def test_compose_witness_off_the_fiber_is_reported(monkeypatch):
    staged = quantifiers.exists_composite

    def misplaced_witness(inner, outer, pred, query):
        # the right value, but x1 composes to (1, 0), not the query
        return dataclasses.replace(staged(inner, outer, pred, query), witness="x1")

    monkeypatch.setattr(quantifiers, "exists_composite", misplaced_witness)
    scenario = scenario_from_dict(CHAIN_DOC)
    record = evaluate_query(scenario, scenario.queries[0], seed=0, cases=0)
    assert (record["value"], record["witness"], record["feasible"]) == ("9/10", "x1", True)
    assert record["agrees_with_direct"] is False
    assert render_text([record]).endswith("  agrees with direct evaluation: no\n")


def test_compose_queries_run_the_same_in_parallel(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN_DOC))
    assert main(["run", str(path)]) == 0
    sequential = capsys.readouterr().out
    assert sequential.count("agrees with direct evaluation: yes") == 6
    # so the pool's threads compose and stage the pairs
    quantifiers._pair.cache_clear()
    parallel = evaluate_scenario(scenario_from_dict(CHAIN_DOC), parallel=True)
    assert render_text(parallel) == sequential


def test_missing_file_exits_2(capsys):
    assert main(["run", "does_not_exist.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_invalid_scenario_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "spaces": [{"name": "X", "points": ["a", "b"]}],
                "kernels": {
                    "k": {
                        "source": "X",
                        "target": "X",
                        "rows": [["1", "0"], ["9/10", "0"]],
                    }
                },
                "predicates": {},
                "simplex_predicates": {},
                "queries": [],
            }
        )
    )
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "rows[1]" in err


def test_check_laws_query_runs_with_flags(tmp_path, capsys):
    doc = {
        "spaces": [],
        "kernels": {},
        "predicates": {},
        "simplex_predicates": {},
        "queries": [{"kind": "CHECK_LAWS", "suites": ["monad_laws", "metric_axioms"]}],
    }
    path = tmp_path / "laws.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--cases", "5", "--seed", "11"]) == 0
    out = capsys.readouterr().out
    assert "PASS monad_laws (5 cases)" in out
    assert "PASS metric_axioms (5 cases)" in out


def test_failing_law_suite_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(laws.SUITES, "always_fails", lambda rng, cases: ["forced"])
    doc = {
        "spaces": [],
        "kernels": {},
        "predicates": {},
        "simplex_predicates": {},
        "queries": [{"kind": "CHECK_LAWS", "suites": ["always_fails"]}],
    }
    path = tmp_path / "laws.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--cases", "1"]) == 3
    assert "FAIL always_fails" in capsys.readouterr().out


def test_laws_subcommand(capsys):
    assert main(["laws", "--cases", "3", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    for name in laws.SUITES:
        assert f"PASS {name} (3 cases)" in out


def test_laws_subcommand_reports_failures(capsys, monkeypatch):
    monkeypatch.setitem(laws.SUITES, "always_fails", lambda rng, cases: ["forced"])
    assert main(["laws", "--cases", "1"]) == 3
    assert "FAIL always_fails (1 cases): forced" in capsys.readouterr().out


@pytest.mark.parametrize(
    "literal",
    [
        "1/" + "1" * 5000,  # past the digit limit of int()
        "١/٢",  # Arabic-Indic digits
        # a long non-literal is named by its length, not echoed
        pytest.param("1" * 99_999 + "x", id="long_non_literal"),
    ],
)
def test_bad_rational_literal_exits_2_with_its_path(tmp_path, run_python, literal):
    doc = json.loads(Path(FIXTURE).read_text())
    doc["predicates"]["g"]["values"][0] = literal
    path = tmp_path / "bad_literal.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    done = run_python("-m", "giryq.cli", "run", str(path))
    err = done.stderr.decode()
    assert done.returncode == 2
    assert "predicates['g'].values[0]" in err
    assert len(err) < 200
    assert "Traceback" not in err
    assert done.stdout == b""


@pytest.mark.parametrize(
    "content",
    [
        b'{"spaces": [\xff]}',
        b"[" * 100_000 + b"]" * 100_000,
        b'{"spaces": ' + b"1" * 5000 + b"}",
    ],
    ids=["not_utf8", "nested_too_deep", "integer_past_digit_limit"],
)
def test_malformed_file_exits_2_without_traceback(tmp_path, run_python, content):
    path = tmp_path / "malformed.json"
    path.write_bytes(content)
    done = run_python("-m", "giryq.cli", "run", str(path))
    err = done.stderr.decode()
    assert done.returncode == 2, err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert done.stdout == b""


@pytest.mark.parametrize(
    "old, new, where",
    [
        # a second kernel 'f' would silently replace the first
        ('"kernels": {', '"kernels": {"f": {"source": "X", "target": "Y", "rows": []}, ',
         "document.kernels: duplicate key 'f'"),
        ('"kernel": "f"', '"kernel": "f", "kernel": "f"', "queries[0]: duplicate key 'kernel'"),
    ],
    ids=["kernel_name", "query_field"],
)
def test_duplicate_key_exits_2_with_its_path(tmp_path, capsys, old, new, where):
    text = json.dumps(json.loads(Path(FIXTURE).read_text()))
    assert old in text
    path = tmp_path / "duplicate.json"
    path.write_text(text.replace(old, new, 1))
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {where}\n"
    assert captured.out == ""


def test_empty_suite_list_exits_2_with_its_path(tmp_path, run_python):
    doc = {
        "spaces": [],
        "kernels": {},
        "predicates": {},
        "simplex_predicates": {},
        "queries": [{"kind": "CHECK_LAWS", "suites": []}],
    }
    path = tmp_path / "no_suites.json"
    path.write_text(json.dumps(doc))
    done = run_python("-m", "giryq.cli", "run", str(path))
    err = done.stderr.decode()
    assert done.returncode == 2, err
    assert err.startswith("error: queries[0].suites: empty list")
    assert "Traceback" not in err
    assert done.stdout == b""


@pytest.mark.parametrize(
    "suites, message",
    [
        (["monad_laws", "nope"], "unknown law suite 'nope'"),
        (["galois", "monad_laws", "galois"], "suite 'galois' listed twice"),
    ],
    ids=["unknown", "repeated"],
)
def test_bad_suite_list_exits_2_in_a_fresh_process(tmp_path, run_python, suites, message):
    # a fresh interpreter has not loaded the suites before it reads the list
    doc = {
        "spaces": [],
        "kernels": {},
        "predicates": {},
        "simplex_predicates": {},
        "queries": [{"kind": "CHECK_LAWS", "suites": suites}],
    }
    path = tmp_path / "bad_suites.json"
    path.write_text(json.dumps(doc))
    done = run_python("-m", "giryq.cli", "run", str(path))
    assert done.returncode == 2
    assert done.stderr.decode() == f"error: queries[0].suites: {message}\n"
    assert done.stdout == b""


def test_unknown_simplex_predicate_kind_exits_2_in_a_fresh_process(tmp_path, run_python):
    doc = json.loads(Path(FIXTURE).read_text())
    doc["simplex_predicates"]["t"] = {"kind": "cone"}
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(doc))
    done = run_python("-m", "giryq.cli", "run", str(path))
    assert done.returncode == 2
    assert done.stderr.decode() == (
        "error: simplex_predicates['t'].kind: expected 'lifted' or 'table', got 'cone'\n"
    )
    assert done.stdout == b""


def test_repeated_suite_exits_2_with_its_path(tmp_path, capsys):
    doc = {
        "spaces": [],
        "kernels": {},
        "predicates": {},
        "simplex_predicates": {},
        "queries": [{"kind": "CHECK_LAWS", "suites": ["galois", "monad_laws", "galois"]}],
    }
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: queries[0].suites: suite 'galois' listed twice\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("laws", "--cases", "-3"),
        ("run", FIXTURE, "--cases", "-1"),
        ("laws", "--cases", "\u0663"),  # ARABIC-INDIC DIGIT THREE
        ("run", FIXTURE, "--cases", "1_0"),
    ],
    ids=["laws", "run", "laws_non_ascii_digit", "run_underscore"],
)
def test_negative_case_count_exits_2(run_python, argv):
    done = run_python("-m", "giryq.cli", *argv)
    err = done.stderr.decode()
    assert done.returncode == 2, err
    assert "argument --cases: expected a count of 0 or more" in err
    assert "Traceback" not in err
    assert done.stdout == b""


@pytest.mark.parametrize(
    "argv",
    [
        ("laws", "--cases", "0", "--seed", "\u0667"),  # ARABIC-INDIC DIGIT SEVEN
        ("run", FIXTURE, "--seed", "1_0"),
    ],
    ids=["laws_non_ascii_digit", "run_underscore"],
)
def test_malformed_seed_exits_2(run_python, argv):
    done = run_python("-m", "giryq.cli", *argv)
    err = done.stderr.decode()
    assert done.returncode == 2, err
    assert "argument --seed: expected an integer" in err
    assert "Traceback" not in err
    assert done.stdout == b""


@pytest.mark.parametrize(
    "flag, expected", [("--seed", "an integer"), ("--cases", "a count of 0 or more")]
)
def test_integer_longer_than_int_allows_exits_2_without_echo(run_python, flag, expected):
    # int() refuses more than sys.get_int_max_str_digits() digits (4300 by default)
    done = run_python("-m", "giryq.cli", "laws", flag, "9" * 5000)
    err = done.stderr.decode()
    assert done.returncode == 2, err
    assert f"argument {flag}: expected {expected}, got one 5000 characters long" in err
    assert "9999" not in err
    assert "Traceback" not in err
    assert done.stdout == b""


@pytest.mark.parametrize(
    "flag, expected", [("--seed", "an integer"), ("--cases", "a count of 0 or more")]
)
def test_long_malformed_integer_exits_2_without_echo(run_python, flag, expected):
    done = run_python("-m", "giryq.cli", "laws", flag, "9" * 3000 + "x")
    err = done.stderr.decode()
    assert done.returncode == 2, err
    assert f"argument {flag}: expected {expected}, got one 3001 characters long" in err
    assert len(err) < 200
    assert "Traceback" not in err
    assert done.stdout == b""


@pytest.mark.parametrize("seed", ["-3", "+3"])
def test_signed_seed_is_accepted(capsys, seed):
    assert main(["laws", "--cases", "0", "--seed", seed]) == 0
    assert capsys.readouterr().out.startswith("PASS ")


@pytest.mark.parametrize("fmt, out", [("text", ""), ("json", "[]\n")])
def test_scenario_without_queries_prints_no_record(tmp_path, capsys, fmt, out):
    doc = {"spaces": [], "kernels": {}, "predicates": {}, "simplex_predicates": {}, "queries": []}
    path = tmp_path / "no_queries.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--format", fmt]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize(
    "argv", [("run", FIXTURE, "--format", "json"), ("laws", "--cases", "0")], ids=["run", "laws"]
)
def test_closed_stdout_exits_1_without_traceback(run_python, argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = run_python("-m", "giryq.cli", *argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == b""


def test_no_stdout_at_all_exits_0(monkeypatch):
    # started with file descriptor 1 closed, python sets sys.stdout to None
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["laws", "--cases", "0"]) == 0


def test_unknown_query_kind_raises():
    scenario = load_scenario(FIXTURE)
    with pytest.raises(ValueError, match="unknown query kind 'NOPE'"):
        evaluate_query(scenario, Query("NOPE", {}), seed=0, cases=0)


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements_in_the_library(source):
    # python -O strips assert statements, and with them any check they make
    tree = ast.parse(source.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


def _raises_space_mismatch(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "SpaceMismatchError")


def test_space_agreement_is_refused_in_one_place():
    # every "these two spaces agree" check goes through measures._same_space
    calls, raised_in = 0, []
    for source in SOURCES:
        tree = ast.parse(source.read_text(encoding="utf-8"))
        calls += sum(map(_raises_space_mismatch, ast.walk(tree)))
        raised_in += [
            (source.name, func.name)
            for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func) if _raises_space_mismatch(node)
        ]
    # a raise at module level, or in a nested function (counted twice), fails here
    assert calls == len(raised_in) == 1
    assert raised_in == [("measures.py", "_same_space")]
