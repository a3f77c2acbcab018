"""Tests of the benchmark itself: seeded generators, the output checker and
the traced runner.  Run with ``python3 -m pytest perfbench/tests``.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from check import check_output, digest, split_ops
from workloads import GENERATORS, LAWS_SUITES, Workload, count_rationals

from giryq.cli import evaluate_scenario, render_text
from giryq.scenario import scenario_from_dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def _subset(w: Workload, keep) -> Workload:
    """The workload restricted to the queries ``keep(query)`` accepts."""
    pairs = [(q, e) for q, e in zip(w.doc["queries"], w.expected) if keep(q)]
    doc = dict(w.doc, queries=[q for q, _ in pairs])
    return replace(w, doc=doc, expected=[e for _, e in pairs],
                   files={"doc.json": json.dumps(doc)})


def _small_lp(seed: int) -> Workload:
    return _subset(GENERATORS["lp_lifted"](seed),
                   lambda q: q["kernel"].startswith(("K8x4", "K12x6")))


def _small_chain(seed: int) -> Workload:
    seen: dict[str, int] = {}

    def keep(q: dict) -> bool:
        seen[q["kind"]] = seen.get(q["kind"], 0) + 1
        return seen[q["kind"]] <= (1 if q["kind"] == "COMPOSE" else 3)

    return _subset(GENERATORS["kernel_chain"](seed), keep)


def _render(w: Workload) -> str:
    return render_text(evaluate_scenario(scenario_from_dict(w.doc)))


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generators_are_byte_identical_for_a_seed(name):
    a, b = GENERATORS[name](5), GENERATORS[name](5)
    assert a.argv == b.argv and a.files == b.files and a.expected == b.expected
    assert a.properties == b.properties
    for other in (GENERATORS[name](6), GENERATORS[name](5, 1)):
        assert (a.files, a.argv) != (other.files, other.argv)


def test_generators_record_workload_properties():
    lp = GENERATORS["lp_lifted"](1).properties
    assert lp["ops"] == 50
    assert lp["quantifiers.paired_frac"] == 0.8
    assert lp["quantifiers.row_image_frac"] == 0.16
    assert lp["quantifiers.infeasible_frac"] == 0.12
    chain = GENERATORS["kernel_chain"](1)
    assert 0 < chain.properties["fiber_hit_frac"] < 1
    assert chain.properties["rationals"] == count_rationals(chain.doc)
    assert not any(q["kind"].endswith("_LP") for q in chain.doc["queries"])


@pytest.mark.parametrize("make", [_small_lp, _small_chain])
def test_checker_accepts_genuine_output_at_any_seed(make):
    for seed in (0, 11):
        w = make(seed)
        assert check_output(w, _render(w)) == {}


def test_checker_flags_a_corrupted_lp_witness():
    w = _small_lp(11)
    blocks = split_ops(_render(w))
    i = next(i for i, b in enumerate(blocks) if "feasible: yes" in b and "_LP" in b)
    head, witness = blocks[i].split("  witness: (")
    weights = witness.rstrip(")").split(", ")
    # move the first nonzero weight onto a point outside the support
    a = next(j for j, v in enumerate(weights) if v != "0")
    b = next(j for j, v in enumerate(weights) if v == "0")
    weights[a], weights[b] = weights[b], weights[a]
    blocks[i] = head + "  witness: (" + ", ".join(weights) + ")"
    failures = check_output(w, "\n".join(blocks) + "\n")
    assert list(failures) == [i]


def test_checker_flags_a_wrong_lp_value():
    w = _small_lp(11)
    text = _render(w)
    blocks = split_ops(text)
    i = next(i for i, b in enumerate(blocks) if "feasible: yes" in b)
    lines = blocks[i].split("\n")
    lines[1] = "  value: 1 (approx 1)"
    blocks[i] = "\n".join(lines)
    assert i in check_output(w, "\n".join(blocks) + "\n")


def test_checker_flags_a_changed_stdout_against_the_reference():
    w = _small_chain(0)
    text = _render(w)
    reference = [digest(b) for b in split_ops(text)]
    assert check_output(w, text, reference) == {}
    changed = text.replace("predicate=pA", "predicate= pA", 1)
    assert changed != text
    failures = check_output(w, changed, reference)
    assert len(failures) == 1
    assert "reference" in next(iter(failures.values()))


def test_checker_flags_a_failing_law_line():
    w = GENERATORS["laws"](0)
    lines = [f"PASS {s} ({w.properties['cases']} cases)" for s in LAWS_SUITES]
    assert check_output(w, "\n".join(lines) + "\n") == {}
    lines[3] = f"FAIL {LAWS_SUITES[3]} ({w.properties['cases']} cases): case 1: broken"
    assert list(check_output(w, "\n".join(lines) + "\n")) == [3]


def test_traced_runner_keeps_stdout_and_counts_layers(tmp_path):
    w = _small_lp(2)
    (tmp_path / "doc.json").write_text(w.files["doc.json"])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "cli_runner.py"), "--mode", "trace",
         "--out", "trace.json", "--", "run", "doc.json", "--format", "text"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout == _render(w)
    result = json.loads((tmp_path / "trace.json").read_text())
    figures = result["figures"]
    assert len(result["ops"]) == len(w.expected)
    assert figures["lp.calls"] == len(w.expected)
    assert figures["lp.phase1_pivots"] <= figures["lp.pivots"]
    assert figures["trace.self_sum_frac"] == pytest.approx(1.0)
    n = len(w.expected)
    assert figures["quantifiers.infeasible_frac"] == sum(not e["feasible"] for e in w.expected) / n
    assert figures["quantifiers.paired_frac"] == sum(e["paired"] for e in w.expected) / n
