"""Scenario documents: declarations plus a query list, as a single JSON file.

All rationals in a document are exact strings (``"3/10"``, ``"1"``); decimal
notation is rejected.  Kernels are row-major arrays (row order = source
point order, column order = target point order), predicates are value
arrays in point order, and simplex-predicate tables are lists of
(distribution, value) pairs with a mandatory default.  No object may repeat
a key.  Parsing resolves every name reference and validates every
invariant up front, so query evaluation cannot fail later.  A value that a
constructor rejects (a repeated point label, a row that does not sum to 1,
a predicate value outside [0, 1]) is reported at its document path by
:func:`_located`; :func:`_doc` writes a value back in document form, for
:func:`scenario_to_dict` and for the CLI's result records alike.

Text output prints names and labels raw, so a space name, a point label and
the name of a kernel, predicate or simplex predicate must each be printable
(``str.isprintable``): a newline, tab, escape or zero-width character in one
could forge a line of output.  :func:`_name` refuses any other at its
document path.

Sparse and deterministic kernels repeat a few literals many times (``"0"``
above all), so :func:`_rational` reads each distinct string once, through a
bounded memo of :func:`parse_rational`, and equal literals share one
immutable ``Fraction``.  A refused literal is never kept, so it is refused
again, at its own document path, wherever it appears.

A query is a ``kind`` plus the fields its entry in ``QUERY_SPECS`` lists, in
document order (optional fields in brackets)::

    EXISTS_COUNTABLE, FORALL_COUNTABLE, EXISTS_LP, FORALL_LP
                  kernel, predicate, dist      dist on the kernel's target
    COMPOSE       inner, outer, predicate, [quantifier], dist
                                               dist on the outer kernel's target
    METRIC        space, left, right           left, right on the space
    DETERMINISM   kernel
    EXPECTATION   predicate, dist              dist on the predicate's space
    CHECK_LAWS    [suites]

``kernel``, ``inner`` and ``outer`` name kernels, ``predicate`` a predicate
and ``space`` a space.  The predicate must live where the kernel, or the
chain ``inner`` then ``outer``, starts, and ``inner`` must land where
``outer`` starts.  ``quantifier`` is ``"EXISTS"`` (the default) or
``"FORALL"``; ``suites`` lists law suites and defaults to all of them.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable, Optional

from .errors import (
    GiryqError,
    RationalFormatError,
    ScenarioParseError,
    ScenarioReferenceError,
    ScenarioValidationError,
)
from .kernels import Kernel
from .measures import (
    Dist, FiniteSpace, _per_point, _quoted, _same_space, format_rational, parse_rational,
)
from .predicates import (
    LiftedPredicate,
    Predicate,
    SimplexPredicate,
    TableSimplexPredicate,
)

# the most points a space may declare; fiber scans and lifted LPs grow with it
MAX_SPACE_POINTS = 64

# random instances per law suite when the command line names no count; a
# CHECK_LAWS query and ``giryq laws`` read it without importing the suites
DEFAULT_CASES = 200

# the most distinct rational literals that :func:`_rational` keeps parsed
_LITERAL_MEMO = 1024


@dataclass(frozen=True)
class QuerySpec:
    """The document layout of one query kind."""

    fields: tuple[str, ...]  # document order, which serialization keeps
    optional: dict[str, Any]  # field -> its value when left out (None: absent)
    # the space of the kind's distribution fields, from its resolved name fields
    dist_space: Optional[Callable[[dict[str, Any]], FiniteSpace]] = None


_QUANTIFIER_SPEC = QuerySpec(("kernel", "predicate", "dist"), {}, lambda r: r["kernel"].target)
QUERY_SPECS: dict[str, QuerySpec] = {
    "EXISTS_COUNTABLE": _QUANTIFIER_SPEC,
    "FORALL_COUNTABLE": _QUANTIFIER_SPEC,
    "EXISTS_LP": _QUANTIFIER_SPEC,
    "FORALL_LP": _QUANTIFIER_SPEC,
    "COMPOSE": QuerySpec(("inner", "outer", "predicate", "quantifier", "dist"),
                         {"quantifier": "EXISTS"}, lambda r: r["outer"].target),
    "METRIC": QuerySpec(("space", "left", "right"), {}, lambda r: r["space"]),
    "DETERMINISM": QuerySpec(("kernel",), {}),
    "EXPECTATION": QuerySpec(("predicate", "dist"), {}, lambda r: r["predicate"].space),
    "CHECK_LAWS": QuerySpec(("suites",), {"suites": None}),
}

# name field -> the kind of declaration it names; other fields that are not
# in _VALUE_FIELDS are distributions
_NAME_FIELDS = {"kernel": "kernel", "inner": "kernel", "outer": "kernel",
                "predicate": "predicate", "space": "space"}


@dataclass(frozen=True)
class Query:
    """One query record.

    ``args`` maps each field of ``QUERY_SPECS[kind]`` that the query has, in
    document order, to its resolved value: the declared name for kernel,
    predicate and space fields, a ``Dist`` for ``dist``/``left``/``right``,
    the quantifier word, and the tuple of suite names.  A left-out
    ``quantifier`` reads ``"EXISTS"``; left-out ``suites`` are absent.
    """

    kind: str
    args: dict[str, Any]


@dataclass
class Scenario:
    """A fully resolved scenario: declarations plus an ordered query list."""

    spaces: tuple[FiniteSpace, ...]
    kernels: dict[str, Kernel]
    predicates: dict[str, Predicate]
    simplex_predicates: dict[str, SimplexPredicate]
    queries: tuple[Query, ...]


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------


class _RepeatedKeys(dict):
    """A JSON object that lists ``key`` twice; :func:`_expect` rejects it."""

    key: str


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    # JSON keeps the last of two equal keys; a scenario rejects them, since
    # the earlier declaration or field would be dropped without a word
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [k for k, _ in pairs]
        obj = _RepeatedKeys(pairs)
        obj.key = next(k for i, k in enumerate(keys) if k in keys[:i])
    return obj


def _expect(value: Any, kind: type, where: str) -> Any:
    if isinstance(value, _RepeatedKeys):
        raise ScenarioValidationError(f"{where}: duplicate key {_quoted(value.key)}")
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ScenarioParseError(
            f"{where}: expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _get(doc: dict, key: str, kind: type, where: str) -> Any:
    if key not in doc:
        raise ScenarioParseError(f"{where}: missing field {key!r}")
    return _expect(doc[key], kind, f"{where}.{key}")


_literal = lru_cache(maxsize=_LITERAL_MEMO)(parse_rational)


def _name(raw: Any, where: str) -> str:
    """``raw``, a string that text output prints raw, if it is printable."""
    name = _expect(raw, str, where)
    if not name.isprintable():
        raise ScenarioValidationError(f"{where}: {_quoted(name)} is not printable")
    return name


def _rational(raw: Any, where: str):
    try:
        return _literal(_expect(raw, str, where))
    except RationalFormatError as exc:
        raise ScenarioParseError(f"{where}: {exc}") from None


def _located(where: str, build: Callable, *args: Any) -> Any:
    """``build(*args)``; a value error it raises is reported at ``where``."""
    try:
        return build(*args)
    except GiryqError as exc:
        raise ScenarioValidationError(f"{where}: {exc}") from None


def _dist(raw: Any, space: FiniteSpace, where: str) -> Dist:
    values = _expect(raw, list, where)
    weights = tuple(_rational(v, f"{where}[{i}]") for i, v in enumerate(values))
    return _located(where, Dist, space, weights)


def _no_extras(doc: dict, allowed: set[str], where: str) -> None:
    extras = sorted(set(doc) - allowed)
    if extras:
        raise ScenarioParseError(f"{where}: unexpected field {_quoted(extras[0])}")


def _ref(doc: dict, key: str, table: dict, noun: str, where: str) -> Any:
    name = _get(doc, key, str, where)
    if name not in table:
        raise ScenarioReferenceError(f"{where}.{key}: unknown {noun} {_quoted(name)}")
    return table[name]


def _check_spaces(refs: dict[str, Any], where: str) -> None:
    """Inner lands where outer starts; the predicate, where the kernel or chain does."""
    if "inner" in refs:
        _located(where, _same_space, "inner lands in", refs["inner"].target,
                 "outer starts at", refs["outer"].source)
    for key, start in (("kernel", "the kernel"), ("inner", "the chain")):
        if key in refs and "predicate" in refs:
            _located(where, _same_space, "predicate lives on", refs["predicate"].space,
                     f"{start} starts at", refs[key].source)


def _quantifier(value: Any, where: str) -> str:
    if value not in ("EXISTS", "FORALL"):
        raise ScenarioParseError(
            f"{where}: expected 'EXISTS' or 'FORALL', got {_quoted(value)}"
        )
    return value


def _suites(value: Any, where: str) -> tuple[str, ...]:
    from .laws import SUITES  # loaded only for a CHECK_LAWS query that lists suites

    suites = tuple(
        _expect(s, str, f"{where}[{j}]")
        for j, s in enumerate(_expect(value, list, where))
    )
    if not suites:  # an empty list would run nothing and report a pass
        raise ScenarioValidationError(f"{where}: empty list (leave it out to run every suite)")
    for j, s in enumerate(suites):
        if s not in SUITES:
            raise ScenarioValidationError(f"{where}: unknown law suite {_quoted(s)}")
        if s in suites[:j]:  # it would run twice, at one seed, and print two equal lines
            raise ScenarioValidationError(f"{where}: suite {s!r} listed twice")
    return suites


_VALUE_FIELDS = {"quantifier": _quantifier, "suites": _suites}


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

    spaces: dict[str, FiniteSpace] = {}
    for i, raw in enumerate(_get(doc, "spaces", list, "document")):
        where = f"spaces[{i}]"
        _expect(raw, dict, where)
        _no_extras(raw, {"name", "points"}, where)
        name = _name(_get(raw, "name", str, where), f"{where}.name")
        points = tuple(
            _name(p, f"{where}.points[{j}]") for j, p in enumerate(_get(raw, "points", list, where))
        )
        if name in spaces:
            raise ScenarioValidationError(f"{where}: space {_quoted(name)} declared twice")
        if len(points) > MAX_SPACE_POINTS:
            raise ScenarioValidationError(
                f"{where}: {len(points)} points exceeds the cap of {MAX_SPACE_POINTS}"
            )
        spaces[name] = _located(where, FiniteSpace, name, points)

    kernels: dict[str, Kernel] = {}
    for name, raw in _get(doc, "kernels", dict, "document").items():
        where = f"kernels[{_quoted(name)}]"
        _name(name, where)
        _expect(raw, dict, where)
        _no_extras(raw, {"source", "target", "rows"}, where)
        source = _ref(raw, "source", spaces, "space", where)
        target = _ref(raw, "target", spaces, "space", where)
        raw_rows = _get(raw, "rows", list, where)
        _located(where, _per_point, raw_rows, source, "rows", list)
        rows = []
        for j, raw_row in enumerate(raw_rows):
            row_where = f"{where}.rows[{j}] (point {_quoted(source.points[j])})"
            rows.append(_dist(raw_row, target, row_where))
        kernels[name] = Kernel(source, target, tuple(rows))

    predicates: dict[str, Predicate] = {}
    for name, raw in _get(doc, "predicates", dict, "document").items():
        where = f"predicates[{_quoted(name)}]"
        _name(name, where)
        _expect(raw, dict, where)
        _no_extras(raw, {"space", "values"}, where)
        space = _ref(raw, "space", spaces, "space", where)
        values = tuple(
            _rational(v, f"{where}.values[{j}]")
            for j, v in enumerate(_get(raw, "values", list, where))
        )
        predicates[name] = _located(where, Predicate, space, values)

    simplex_predicates: dict[str, SimplexPredicate] = {}
    for name, raw in _get(doc, "simplex_predicates", dict, "document").items():
        where = f"simplex_predicates[{_quoted(name)}]"
        _name(name, where)
        _expect(raw, dict, where)
        kind = _get(raw, "kind", str, where)
        if kind == "lifted":
            _no_extras(raw, {"kind", "base"}, where)
            base = _ref(raw, "base", predicates, "predicate", where)
            simplex_predicates[name] = LiftedPredicate(base)
        elif kind == "table":
            _no_extras(raw, {"kind", "space", "entries", "default"}, where)
            space = _ref(raw, "space", spaces, "space", where)
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
            simplex_predicates[name] = _located(
                where, TableSimplexPredicate, space, tuple(entries), default
            )
        else:
            raise ScenarioParseError(
                f"{where}.kind: expected 'lifted' or 'table', got {_quoted(kind)}"
            )

    tables = {"kernel": kernels, "predicate": predicates, "space": spaces}
    queries: list[Query] = []
    for i, raw in enumerate(_get(doc, "queries", list, "document")):
        where = f"queries[{i}]"
        _expect(raw, dict, where)
        kind = _get(raw, "kind", str, where)
        if kind not in QUERY_SPECS:
            raise ScenarioParseError(f"{where}.kind: unknown query kind {_quoted(kind)}")
        spec = QUERY_SPECS[kind]
        _no_extras(raw, {"kind", *spec.fields}, where)
        for key in spec.fields:
            if key not in raw and key not in spec.optional:
                raise ScenarioParseError(f"{where}: missing field {key!r}")
        refs = {
            key: _ref(raw, key, tables[noun], noun, where)
            for key in spec.fields
            if (noun := _NAME_FIELDS.get(key))
        }
        _check_spaces(refs, where)
        args: dict[str, Any] = {}
        for key in spec.fields:
            if key in refs:
                args[key] = raw[key]
            elif key not in _VALUE_FIELDS:
                args[key] = _dist(raw[key], spec.dist_space(refs), f"{where}.{key}")
            elif key in raw or spec.optional[key] is not None:
                value = raw.get(key, spec.optional[key])
                args[key] = _VALUE_FIELDS[key](value, f"{where}.{key}")
        queries.append(Query(kind, args))

    return Scenario(
        spaces=tuple(spaces.values()),
        kernels=kernels,
        predicates=predicates,
        simplex_predicates=simplex_predicates,
        queries=tuple(queries),
    )


def parse_scenario(text: str) -> Scenario:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except (ValueError, RecursionError) as exc:  # a too-long integer; deep nesting
        raise ScenarioParseError(f"invalid JSON: {exc}") from None
    return scenario_from_dict(doc)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ScenarioParseError(f"not UTF-8 at byte {exc.start}: {exc.reason}") from None
    return parse_scenario(text)


# ---------------------------------------------------------------------------
# scenario -> document
# ---------------------------------------------------------------------------


def _doc(value: Any) -> Any:
    """``value`` in document form: a rational as its string, a ``Dist`` as
    its weights, and a tuple as the list of its entries in document form.

    A ``Dist``'s weights are ``Fraction``s, so each is its own ``str``."""
    if isinstance(value, Dist):
        return list(map(str, value.weights))
    if isinstance(value, tuple):
        return [_doc(v) for v in value]
    if isinstance(value, Fraction):
        return format_rational(value)
    return value


def scenario_to_dict(scenario: Scenario) -> dict:
    doc: dict[str, Any] = {
        "spaces": [{"name": s.name, "points": _doc(s.points)} for s in scenario.spaces],
        "kernels": {
            name: {"source": k.source.name, "target": k.target.name, "rows": _doc(k.rows)}
            for name, k in scenario.kernels.items()
        },
        "predicates": {
            name: {"space": p.space.name, "values": _doc(p.values)}
            for name, p in scenario.predicates.items()
        },
        "simplex_predicates": {},
        "queries": [
            {"kind": q.kind, **{key: _doc(value) for key, value in q.args.items()}}
            for q in scenario.queries
        ],
    }
    for name, h in scenario.simplex_predicates.items():
        if isinstance(h, LiftedPredicate):
            # by identity: equal predicates under two names are two predicates
            base = next(
                (n for n, p in scenario.predicates.items() if p is h.base), None
            )
            if base is None:
                raise ScenarioValidationError(
                    f"lifted simplex predicate {_quoted(name)} has an unnamed base"
                )
            doc["simplex_predicates"][name] = {"kind": "lifted", "base": base}
        else:
            doc["simplex_predicates"][name] = {
                "kind": "table",
                "space": h.space.name,
                "entries": _doc(h.entries),
                "default": _doc(h.default),
            }
    return doc


def serialize_scenario(scenario: Scenario) -> str:
    return json.dumps(scenario_to_dict(scenario), indent=2) + "\n"
