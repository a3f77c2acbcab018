"""Scenario documents: declarations plus a query list, as a single JSON file.

All rationals in a document are exact strings (``"3/10"``, ``"1"``); decimal
notation is rejected.  Kernels are row-major arrays (row order = source
point order, column order = target point order), predicates are value
arrays in point order, and simplex-predicate tables are lists of
(distribution, value) pairs with a mandatory default.  Parsing resolves
every name reference and validates every invariant up front, so query
evaluation cannot fail later.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from typing import Any, Optional

from .errors import (
    GiryqError,
    RationalFormatError,
    ScenarioParseError,
    ScenarioReferenceError,
    ScenarioValidationError,
)
from .kernels import Kernel
from .laws import SUITES
from .measures import Dist, FiniteSpace, format_rational, parse_rational
from .predicates import (
    LiftedPredicate,
    Predicate,
    SimplexPredicate,
    TableSimplexPredicate,
)

DEFAULT_MAX_SPACE = 64

QUERY_KINDS = (
    "EXISTS_COUNTABLE",
    "FORALL_COUNTABLE",
    "EXISTS_LP",
    "FORALL_LP",
    "COMPOSE",
    "METRIC",
    "DETERMINISM",
    "EXPECTATION",
    "CHECK_LAWS",
)

# required / optional document fields per query kind
_QUERY_FIELDS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "EXISTS_COUNTABLE": (("kernel", "predicate", "dist"), ()),
    "FORALL_COUNTABLE": (("kernel", "predicate", "dist"), ()),
    "EXISTS_LP": (("kernel", "predicate", "dist"), ()),
    "FORALL_LP": (("kernel", "predicate", "dist"), ()),
    "COMPOSE": (("inner", "outer", "predicate", "dist"), ("quantifier",)),
    "METRIC": (("space", "left", "right"), ()),
    "DETERMINISM": (("kernel",), ()),
    "EXPECTATION": (("predicate", "dist"), ()),
    "CHECK_LAWS": ((), ("suites",)),
}


@dataclass(frozen=True)
class Query:
    """One query record; which fields are set depends on ``kind``."""

    kind: str
    kernel: Optional[str] = None
    inner: Optional[str] = None
    outer: Optional[str] = None
    predicate: Optional[str] = None
    quantifier: Optional[str] = None
    space: Optional[str] = None
    dist: Optional[Dist] = None
    left: Optional[Dist] = None
    right: Optional[Dist] = None
    suites: Optional[tuple[str, ...]] = None


@dataclass
class Scenario:
    """A fully resolved scenario: declarations plus an ordered query list."""

    spaces: tuple[FiniteSpace, ...]
    kernels: dict[str, Kernel]
    predicates: dict[str, Predicate]
    simplex_predicates: dict[str, SimplexPredicate]
    queries: tuple[Query, ...]


def max_space_points() -> int:
    """Point-count cap per space, from GIRYQ_MAX_SPACE (default 64)."""
    raw = os.environ.get("GIRYQ_MAX_SPACE")
    if raw is None:
        return DEFAULT_MAX_SPACE
    try:
        cap = int(raw)
    except ValueError:
        raise ScenarioValidationError(
            f"GIRYQ_MAX_SPACE must be an integer, got {raw!r}"
        ) from None
    if cap < 1:
        raise ScenarioValidationError("GIRYQ_MAX_SPACE must be positive")
    return cap


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------


def _expect(value: Any, kind: type, where: str) -> Any:
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ScenarioParseError(
            f"{where}: expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _get(doc: dict, key: str, kind: type, where: str) -> Any:
    if key not in doc:
        raise ScenarioParseError(f"{where}: missing field {key!r}")
    return _expect(doc[key], kind, f"{where}.{key}")


def _rational(raw: Any, where: str):
    try:
        return parse_rational(_expect(raw, str, where))
    except RationalFormatError as exc:
        raise ScenarioParseError(f"{where}: {exc}") from None


def _dist(raw: Any, space: FiniteSpace, where: str) -> Dist:
    values = _expect(raw, list, where)
    weights = tuple(_rational(v, f"{where}[{i}]") for i, v in enumerate(values))
    try:
        return Dist(space, weights)
    except GiryqError as exc:
        raise ScenarioValidationError(f"{where}: {exc}") from None


def _no_extras(doc: dict, allowed: set[str], where: str) -> None:
    extras = sorted(set(doc) - allowed)
    if extras:
        raise ScenarioParseError(f"{where}: unexpected field {extras[0]!r}")


# ---------------------------------------------------------------------------
# document -> scenario
# ---------------------------------------------------------------------------


def scenario_from_dict(doc: Any) -> Scenario:
    _expect(doc, dict, "document")
    _no_extras(
        doc,
        {"spaces", "kernels", "predicates", "simplex_predicates", "queries"},
        "document",
    )

    cap = max_space_points()
    spaces: dict[str, FiniteSpace] = {}
    for i, raw in enumerate(_get(doc, "spaces", list, "document")):
        where = f"spaces[{i}]"
        _expect(raw, dict, where)
        _no_extras(raw, {"name", "points"}, where)
        name = _get(raw, "name", str, where)
        points = tuple(
            _expect(p, str, f"{where}.points[{j}]")
            for j, p in enumerate(_get(raw, "points", list, where))
        )
        if name in spaces:
            raise ScenarioValidationError(f"{where}: space {name!r} declared twice")
        if len(points) > cap:
            raise ScenarioValidationError(
                f"{where}: {len(points)} points exceeds the cap of {cap} "
                f"(set GIRYQ_MAX_SPACE to raise it)"
            )
        try:
            spaces[name] = FiniteSpace(name, points)
        except GiryqError as exc:
            raise ScenarioValidationError(f"{where}: {exc}") from None

    def space_ref(name: Any, where: str) -> FiniteSpace:
        name = _expect(name, str, where)
        if name not in spaces:
            raise ScenarioReferenceError(f"{where}: unknown space {name!r}")
        return spaces[name]

    kernels: dict[str, Kernel] = {}
    for name, raw in _get(doc, "kernels", dict, "document").items():
        where = f"kernels[{name!r}]"
        _expect(raw, dict, where)
        _no_extras(raw, {"source", "target", "rows"}, where)
        source = space_ref(_get(raw, "source", str, where), f"{where}.source")
        target = space_ref(_get(raw, "target", str, where), f"{where}.target")
        raw_rows = _get(raw, "rows", list, where)
        if len(raw_rows) != len(source):
            raise ScenarioValidationError(
                f"{where}: {len(raw_rows)} rows for the {len(source)} points "
                f"of {source.name!r}"
            )
        rows = []
        for j, raw_row in enumerate(raw_rows):
            row_where = f"{where}.rows[{j}] (point {source.points[j]!r})"
            rows.append(_dist(raw_row, target, row_where))
        kernels[name] = Kernel(source, target, tuple(rows))

    predicates: dict[str, Predicate] = {}
    for name, raw in _get(doc, "predicates", dict, "document").items():
        where = f"predicates[{name!r}]"
        _expect(raw, dict, where)
        _no_extras(raw, {"space", "values"}, where)
        space = space_ref(_get(raw, "space", str, where), f"{where}.space")
        values = tuple(
            _rational(v, f"{where}.values[{j}]")
            for j, v in enumerate(_get(raw, "values", list, where))
        )
        try:
            predicates[name] = Predicate(space, values)
        except GiryqError as exc:
            raise ScenarioValidationError(f"{where}: {exc}") from None

    simplex_predicates: dict[str, SimplexPredicate] = {}
    for name, raw in _get(doc, "simplex_predicates", dict, "document").items():
        where = f"simplex_predicates[{name!r}]"
        _expect(raw, dict, where)
        kind = _get(raw, "kind", str, where)
        if kind == "lifted":
            _no_extras(raw, {"kind", "base"}, where)
            base = _get(raw, "base", str, where)
            if base not in predicates:
                raise ScenarioReferenceError(
                    f"{where}.base: unknown predicate {base!r}"
                )
            simplex_predicates[name] = LiftedPredicate(predicates[base])
        elif kind == "table":
            _no_extras(raw, {"kind", "space", "entries", "default"}, where)
            space = space_ref(_get(raw, "space", str, where), f"{where}.space")
            entries = []
            for j, pair in enumerate(_get(raw, "entries", list, where)):
                pair_where = f"{where}.entries[{j}]"
                pair = _expect(pair, list, pair_where)
                if len(pair) != 2:
                    raise ScenarioParseError(
                        f"{pair_where}: expected a [dist, value] pair"
                    )
                entries.append(
                    (
                        _dist(pair[0], space, f"{pair_where}[0]"),
                        _rational(pair[1], f"{pair_where}[1]"),
                    )
                )
            default = _rational(_get(raw, "default", str, where), f"{where}.default")
            try:
                simplex_predicates[name] = TableSimplexPredicate(
                    space, tuple(entries), default
                )
            except GiryqError as exc:
                raise ScenarioValidationError(f"{where}: {exc}") from None
        else:
            raise ScenarioParseError(
                f"{where}.kind: expected 'lifted' or 'table', got {kind!r}"
            )

    def kernel_ref(doc_q: dict, key: str, where: str) -> Kernel:
        name = _get(doc_q, key, str, where)
        if name not in kernels:
            raise ScenarioReferenceError(f"{where}.{key}: unknown kernel {name!r}")
        return kernels[name]

    def predicate_ref(doc_q: dict, where: str) -> Predicate:
        name = _get(doc_q, "predicate", str, where)
        if name not in predicates:
            raise ScenarioReferenceError(
                f"{where}.predicate: unknown predicate {name!r}"
            )
        return predicates[name]

    queries: list[Query] = []
    for i, raw in enumerate(_get(doc, "queries", list, "document")):
        where = f"queries[{i}]"
        _expect(raw, dict, where)
        kind = _get(raw, "kind", str, where)
        if kind not in QUERY_KINDS:
            raise ScenarioParseError(f"{where}.kind: unknown query kind {kind!r}")
        required, optional = _QUERY_FIELDS[kind]
        _no_extras(raw, {"kind", *required, *optional}, where)
        for key in required:
            if key not in raw:
                raise ScenarioParseError(f"{where}: missing field {key!r}")

        if kind in ("EXISTS_COUNTABLE", "FORALL_COUNTABLE", "EXISTS_LP", "FORALL_LP"):
            kernel = kernel_ref(raw, "kernel", where)
            pred = predicate_ref(raw, where)
            if pred.space != kernel.source:
                raise ScenarioValidationError(
                    f"{where}: predicate lives on {pred.space.name!r} but the "
                    f"kernel starts at {kernel.source.name!r}"
                )
            queries.append(
                Query(
                    kind=kind,
                    kernel=raw["kernel"],
                    predicate=raw["predicate"],
                    dist=_dist(raw["dist"], kernel.target, f"{where}.dist"),
                )
            )
        elif kind == "COMPOSE":
            inner = kernel_ref(raw, "inner", where)
            outer = kernel_ref(raw, "outer", where)
            pred = predicate_ref(raw, where)
            if inner.target != outer.source:
                raise ScenarioValidationError(
                    f"{where}: inner lands in {inner.target.name!r} but outer "
                    f"starts at {outer.source.name!r}"
                )
            if pred.space != inner.source:
                raise ScenarioValidationError(
                    f"{where}: predicate lives on {pred.space.name!r} but the "
                    f"chain starts at {inner.source.name!r}"
                )
            quantifier = raw.get("quantifier", "EXISTS")
            if quantifier not in ("EXISTS", "FORALL"):
                raise ScenarioParseError(
                    f"{where}.quantifier: expected 'EXISTS' or 'FORALL', "
                    f"got {quantifier!r}"
                )
            queries.append(
                Query(
                    kind=kind,
                    inner=raw["inner"],
                    outer=raw["outer"],
                    predicate=raw["predicate"],
                    quantifier=quantifier,
                    dist=_dist(raw["dist"], outer.target, f"{where}.dist"),
                )
            )
        elif kind == "METRIC":
            space = space_ref(raw["space"], f"{where}.space")
            queries.append(
                Query(
                    kind=kind,
                    space=raw["space"],
                    left=_dist(raw["left"], space, f"{where}.left"),
                    right=_dist(raw["right"], space, f"{where}.right"),
                )
            )
        elif kind == "DETERMINISM":
            kernel_ref(raw, "kernel", where)
            queries.append(Query(kind=kind, kernel=raw["kernel"]))
        elif kind == "EXPECTATION":
            pred = predicate_ref(raw, where)
            queries.append(
                Query(
                    kind=kind,
                    predicate=raw["predicate"],
                    dist=_dist(raw["dist"], pred.space, f"{where}.dist"),
                )
            )
        else:  # CHECK_LAWS
            suites = None
            if "suites" in raw:
                suites = tuple(
                    _expect(s, str, f"{where}.suites[{j}]")
                    for j, s in enumerate(_expect(raw["suites"], list, f"{where}.suites"))
                )
                for s in suites:
                    if s not in SUITES:
                        raise ScenarioValidationError(
                            f"{where}.suites: unknown law suite {s!r}"
                        )
            queries.append(Query(kind=kind, suites=suites))

    return Scenario(
        spaces=tuple(spaces.values()),
        kernels=kernels,
        predicates=predicates,
        simplex_predicates=simplex_predicates,
        queries=tuple(queries),
    )


def parse_scenario(text: str) -> Scenario:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return scenario_from_dict(doc)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


# ---------------------------------------------------------------------------
# scenario -> document
# ---------------------------------------------------------------------------


def _dist_doc(dist: Dist) -> list[str]:
    return [format_rational(w) for w in dist.weights]


def scenario_to_dict(scenario: Scenario) -> dict:
    doc: dict[str, Any] = {
        "spaces": [
            {"name": s.name, "points": list(s.points)} for s in scenario.spaces
        ],
        "kernels": {
            name: {
                "source": k.source.name,
                "target": k.target.name,
                "rows": [_dist_doc(row) for row in k.rows],
            }
            for name, k in scenario.kernels.items()
        },
        "predicates": {
            name: {
                "space": p.space.name,
                "values": [format_rational(v) for v in p.values],
            }
            for name, p in scenario.predicates.items()
        },
        "simplex_predicates": {},
        "queries": [],
    }
    for name, h in scenario.simplex_predicates.items():
        if isinstance(h, LiftedPredicate):
            base = next(
                (n for n, p in scenario.predicates.items() if p == h.base), None
            )
            if base is None:
                raise ScenarioValidationError(
                    f"lifted simplex predicate {name!r} has an unnamed base"
                )
            doc["simplex_predicates"][name] = {"kind": "lifted", "base": base}
        else:
            doc["simplex_predicates"][name] = {
                "kind": "table",
                "space": h.space.name,
                "entries": [
                    [_dist_doc(d), format_rational(v)] for d, v in h.entries
                ],
                "default": format_rational(h.default),
            }
    for q in scenario.queries:
        record: dict[str, Any] = {"kind": q.kind}
        for f in fields(Query):
            if f.name == "kind":
                continue
            value = getattr(q, f.name)
            if value is None:
                continue
            if isinstance(value, Dist):
                record[f.name] = _dist_doc(value)
            elif isinstance(value, tuple):
                record[f.name] = list(value)
            else:
                record[f.name] = value
        doc["queries"].append(record)
    return doc


def serialize_scenario(scenario: Scenario) -> str:
    return json.dumps(scenario_to_dict(scenario), indent=2) + "\n"
