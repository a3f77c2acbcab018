"""Correctness checks on the CLI's text output, made from outside the program.

An op fails when its output block differs from the committed reference
digest (for the seed the reference was written at), or when its exact
certificate does not hold.  The certificate checks recompute everything
from the generated document with ``fractions.Fraction`` and need no
reference, so they run at every seed:

* lifted LP: the witness is a distribution that the kernel maps onto the
  query, its expectation equals the value, feasibility matches how the
  generator built the query, and forall <= predicate <= exists holds where
  the same query is asked in both senses or sits at a row image;
* fiber: the witness row equals the query and the value is the best
  predicate value over the fiber, the witness first in point order on ties;
  an empty fiber gives the extension constant;
* COMPOSE: the same fiber certificate along the composed kernel (any
  optimal witness), and the program's own ``agrees with direct evaluation``
  flag;
* METRIC, EXPECTATION, DETERMINISM: the value recomputed exactly;
* laws: every suite prints ``PASS`` with the requested case count.
"""
from __future__ import annotations

import hashlib
import re
from fractions import Fraction
from typing import Optional

from workloads import LAWS_SUITES, Workload, mix

_VALUE_RE = re.compile(r"^  value: (\S+) \(approx (\S+)\)$")


def split_ops(text: str) -> list[str]:
    """Cut CLI stdout into one text block per op."""
    if text.startswith("query ") or "\nquery " in text:
        return ["query " + b for b in re.split(r"(?:^|\n)query ", text.rstrip("\n"))[1:]]
    return [line for line in text.rstrip("\n").split("\n") if line]


def digest(block: str) -> str:
    return hashlib.sha256(block.encode()).hexdigest()


def _fraction(text: str) -> Fraction:
    # exact rational literals only: "n" or "n/d"
    if not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", text):
        raise ValueError(f"not a rational: {text!r}")
    return Fraction(text)


class _Block:
    """The fields of one rendered query record."""

    def __init__(self, text: str) -> None:
        lines = text.split("\n")
        self.header = lines[0]
        self.value: Optional[Fraction] = None
        self.feasible: Optional[bool] = None
        self.regime: Optional[str] = None
        self.witness: Optional[str] = None
        self.agrees: Optional[bool] = None
        for line in lines[1:]:
            m = _VALUE_RE.match(line)
            if m:
                self.value = _fraction(m.group(1))
                if f"{float(self.value):.10g}" != m.group(2):
                    raise ValueError(f"decimal {m.group(2)} does not match {m.group(1)}")
            elif line.startswith("  regime: "):
                regime, _, feasible = line[len("  regime: "):].partition("  feasible: ")
                self.regime, self.feasible = regime, {"yes": True, "no": False}[feasible]
            elif line.startswith("  witness: "):
                self.witness = line[len("  witness: "):]
            elif line.startswith("  agrees with direct evaluation: "):
                self.agrees = line.endswith(": yes")
            else:
                raise ValueError(f"unexpected line {line!r}")
        if self.value is None:
            raise ValueError("no value line")


class _Doc:
    """The generated scenario document with its rationals parsed."""

    def __init__(self, doc: dict) -> None:
        self.points = {s["name"]: s["points"] for s in doc["spaces"]}
        self.kernels = {
            name: (k["source"], k["target"], [[Fraction(v) for v in row] for row in k["rows"]])
            for name, k in doc["kernels"].items()
        }
        self.preds = {name: [Fraction(v) for v in p["values"]]
                      for name, p in doc["predicates"].items()}
        self._composed: dict[tuple[str, str], list[list[Fraction]]] = {}

    def composed(self, inner: str, outer: str) -> list[list[Fraction]]:
        if (inner, outer) not in self._composed:
            outer_rows = self.kernels[outer][2]
            self._composed[(inner, outer)] = [
                mix(row, outer_rows) for row in self.kernels[inner][2]
            ]
        return self._composed[(inner, outer)]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _check_fiber(block: _Block, rows, points, pred, query, exists: bool,
                 first_on_ties: bool = True) -> None:
    fiber = [i for i, row in enumerate(rows) if row == query]
    empty = Fraction(0 if exists else 1)
    if not fiber:
        _require(block.feasible is False and block.witness is None, "empty fiber reported feasible")
        _require(block.value == empty, f"empty fiber must give {empty}")
        return
    best = (max if exists else min)(pred[i] for i in fiber)
    optimal = [points[i] for i in fiber if pred[i] == best]
    _require(block.feasible is True, "nonempty fiber reported infeasible")
    _require(block.value == best, f"value {block.value} is not the fiber optimum {best}")
    if first_on_ties:
        _require(block.witness == optimal[0], f"witness {block.witness} is not {optimal[0]}")
    else:
        _require(block.witness in optimal, f"witness {block.witness} is not optimal")


def _check_lp(block: _Block, doc: _Doc, q: dict, exp: dict) -> None:
    _, _, rows = doc.kernels[q["kernel"]]
    pred = doc.preds[q["predicate"]]
    query = [Fraction(v) for v in q["dist"]]
    exists = q["kind"] == "EXISTS_LP"
    _require(block.regime == "LP", "regime is not LP")
    _require(block.feasible is exp["feasible"], f"feasible should be {exp['feasible']}")
    if not exp["feasible"]:
        _require(block.witness is None, "unreachable query has a witness")
        _require(block.value == (0 if exists else 1), "unreachable query: wrong extension value")
        return
    _require(block.witness is not None and block.witness.startswith("("), "no witness")
    witness = [_fraction(v) for v in block.witness[1:-1].split(", ")]
    _require(len(witness) == len(rows), "witness has the wrong length")
    _require(all(w >= 0 for w in witness) and sum(witness) == 1, "witness is not a distribution")
    _require(mix(witness, rows) == query, "witness does not lift onto the query")
    _require(sum(w * p for w, p in zip(witness, pred)) == block.value,
             "witness expectation differs from the value")


def _check_pairs(blocks, queries, failures: dict[int, str], doc: _Doc) -> None:
    """forall <= predicate <= exists at shared queries and row images."""
    by_query: dict[tuple, dict[str, Fraction]] = {}
    members: dict[tuple, list[int]] = {}
    for i, (block, q) in enumerate(zip(blocks, queries)):
        if q["kind"] in ("EXISTS_LP", "FORALL_LP") and isinstance(block, _Block):
            key = (q["kernel"], q["predicate"], tuple(q["dist"]))
            by_query.setdefault(key, {})[q["kind"]] = block.value
            members.setdefault(key, []).append(i)
    for key, values in by_query.items():
        kernel, pname, dist = key
        rows, pred = doc.kernels[kernel][2], doc.preds[pname]
        query = [Fraction(v) for v in dist]
        at_rows = [pred[i] for i, row in enumerate(rows) if row == query]
        low = values.get("FORALL_LP")
        high = values.get("EXISTS_LP")
        ok = (low is None or high is None or low <= high) and all(
            (low is None or low <= p) and (high is None or p <= high) for p in at_rows
        )
        if not ok:
            for i in members[key]:
                failures.setdefault(i, "forall <= predicate <= exists does not hold")


def _check_op(block: _Block, doc: _Doc, q: dict, exp: dict) -> None:
    kind = q["kind"]
    if kind in ("EXISTS_LP", "FORALL_LP"):
        _check_lp(block, doc, q, exp)
    elif kind in ("EXISTS_COUNTABLE", "FORALL_COUNTABLE"):
        source, _, rows = doc.kernels[q["kernel"]]
        query = [Fraction(v) for v in q["dist"]]
        _require(block.regime == "COUNTABLE", "regime is not COUNTABLE")
        _check_fiber(block, rows, doc.points[source], doc.preds[q["predicate"]], query,
                     kind == "EXISTS_COUNTABLE")
        _require(block.feasible is exp["hit"], f"fiber hit should be {exp['hit']}")
    elif kind == "COMPOSE":
        source = doc.kernels[q["inner"]][0]
        query = [Fraction(v) for v in q["dist"]]
        _require(block.agrees is True, "staged composite disagrees with direct evaluation")
        # the staged route documents its value, not which optimal point it names
        _check_fiber(block, doc.composed(q["inner"], q["outer"]), doc.points[source],
                     doc.preds[q["predicate"]], query, q["quantifier"] == "EXISTS",
                     first_on_ties=False)
        if exp["hit"]:
            _require(block.feasible is True, "composed row reported unreachable")
    elif kind == "METRIC":
        left = [Fraction(v) for v in q["left"]]
        right = [Fraction(v) for v in q["right"]]
        _require(block.value == sum(abs(a - b) for a, b in zip(left, right)) / 2,
                 "wrong total-variation distance")
    elif kind == "EXPECTATION":
        dist = [Fraction(v) for v in q["dist"]]
        _require(block.value == sum(a * b for a, b in zip(dist, doc.preds[q["predicate"]])),
                 "wrong expectation")
    elif kind == "DETERMINISM":
        source, target, rows = doc.kernels[q["kernel"]]
        deterministic = all(v in (0, 1) for row in rows for v in row)
        _require(deterministic is exp["deterministic"], "generator and document disagree")
        _require(block.value == int(deterministic), "wrong determinism verdict")
        if deterministic:
            mapping = ", ".join(
                f"{x} -> {doc.points[target][row.index(1)]}"
                for x, row in zip(doc.points[source], rows))
            _require(block.witness == mapping, "wrong point function")
    else:
        raise ValueError(f"unknown query kind {kind}")


def check_output(w: Workload, text: str, reference: Optional[list[str]] = None) -> dict[int, str]:
    """Failed ops of one CLI stdout, as {op index: reason}; empty when all pass.

    ``reference`` is the list of committed per-op digests for this part, or
    None when its seed has no reference.
    """
    n = len(w.expected) if w.doc is not None else len(LAWS_SUITES)
    blocks_text = split_ops(text)
    if len(blocks_text) != n:
        return {i: f"{len(blocks_text)} output blocks for {n} ops" for i in range(n)}
    failures: dict[int, str] = {}
    if reference is not None:
        for i, (block, ref) in enumerate(zip(blocks_text, reference)):
            if digest(block) != ref:
                failures[i] = "output differs from the committed reference"
    if w.doc is None:
        cases = w.properties["cases"]
        for i, (line, suite) in enumerate(zip(blocks_text, LAWS_SUITES)):
            if line != f"PASS {suite} ({cases} cases)":
                failures.setdefault(i, f"law line {line!r}")
        return failures

    doc = _Doc(w.doc)
    blocks: list[object] = []
    for i, (text_i, q, exp) in enumerate(zip(blocks_text, w.doc["queries"], w.expected)):
        try:
            _require(text_i.startswith(f"query {i + 1}: {q['kind']} "), "wrong header")
            block = _Block(text_i)
            _check_op(block, doc, q, exp)
            blocks.append(block)
        except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            failures.setdefault(i, str(exc))
            blocks.append(None)
    _check_pairs(blocks, w.doc["queries"], failures, doc)
    return failures
