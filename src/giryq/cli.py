"""Command-line front end: scenario execution and the standalone law runner.

Exit codes: 0 on success, 1 when standard output closes before all of
the output is written (say, piped into ``head``), 2 when the scenario or
an argument fails to parse or validate, or a flag is unknown, 3 when a
law suite reports a failure.  Every reported value is an exact rational
string; the decimal column is display-only and never feeds back into any
computation.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import Any, Optional

from .errors import ScenarioError
from .kernels import extract_point_function, is_deterministic
from .lp import Sense
from .measures import ONE, ZERO, _quoted, format_rational, tv_metric
from .predicates import expectation
from .quantifiers import (
    QuantifierResult,
    check_composite,
    exists_fiber,
    exists_lifted,
    forall_fiber,
    forall_lifted,
)
from .scenario import DEFAULT_CASES, Query, Scenario, _doc, load_scenario

_QUANTIFIER_OPS = {
    "EXISTS_COUNTABLE": exists_fiber,
    "FORALL_COUNTABLE": forall_fiber,
    "EXISTS_LP": exists_lifted,
    "FORALL_LP": forall_lifted,
}


def _record(kind: str, inputs: dict, value: Fraction, witness: Any = None,
            feasible: Optional[bool] = None, regime: Optional[str] = None) -> dict:
    return {
        "kind": kind,
        "inputs": inputs,
        "value": format_rational(value),
        "value_decimal": float(value),
        "witness": witness,
        "feasible": feasible,
        "regime": regime,
    }


def _quantifier_record(kind: str, inputs: dict, result: QuantifierResult) -> dict:
    return _record(kind, inputs, result.value, _doc(result.witness), result.feasible,
                   result.regime.value)


def evaluate_query(scenario: Scenario, query: Query, seed: int, cases: int) -> dict:
    """Evaluate one query to its result record (a JSON-ready dict).

    COMPOSE evaluates its quantifier staged, through the intermediate
    measures; ``agrees_with_direct`` says whether
    :func:`~giryq.quantifiers.check_composite` passed it.
    """
    kind, args = query.kind, query.args
    if kind == "CHECK_LAWS":
        from . import laws  # loaded only by a command that runs the suites

        suites = args.get("suites")
        reports = laws.run_suites(suites, seed=seed, cases=cases)
        passed = all(r.passed for r in reports)
        record = _record(
            kind,
            {"seed": seed, "cases": cases, "suites": list(suites or laws.SUITES)},
            ONE if passed else ZERO,
            [r.line() for r in reports],
        )
        record["passed"] = passed
        return record

    inputs = {key: _doc(value) for key, value in args.items()}
    kernel = scenario.kernels.get(args.get("kernel"))
    pred = scenario.predicates.get(args.get("predicate"))
    if kind in _QUANTIFIER_OPS:
        result = _QUANTIFIER_OPS[kind](kernel, pred, args["dist"])
        return _quantifier_record(kind, inputs, result)

    if kind == "COMPOSE":
        inner, outer = scenario.kernels[args["inner"]], scenario.kernels[args["outer"]]
        sense = Sense.MAX if args["quantifier"] == "EXISTS" else Sense.MIN
        result, failure = check_composite(inner, outer, pred, args["dist"], sense)
        record = _quantifier_record(kind, inputs, result)
        record["agrees_with_direct"] = failure is None
        return record

    if kind == "METRIC":
        return _record(kind, inputs, tv_metric(args["left"], args["right"]))

    if kind == "DETERMINISM":
        deterministic = is_deterministic(kernel)
        witness = None
        if deterministic:
            fn = extract_point_function(kernel)
            witness = dict(zip(fn.source.points, fn.assignment))
        return _record(kind, inputs, ONE if deterministic else ZERO, witness)

    if kind == "EXPECTATION":
        return _record(kind, inputs, expectation(pred, args["dist"]))
    raise ValueError(f"unknown query kind {kind!r}")


def evaluate_scenario(
    scenario: Scenario, seed: int = 0, cases: int = DEFAULT_CASES, parallel: bool = False
) -> list[dict]:
    """Evaluate all queries in order, each by :func:`evaluate_query`.

    ``parallel`` runs them on a thread pool and keeps the output order.
    The pool is bound by the GIL and slower than the serial run; no CLI
    option reaches it.
    """
    if parallel and len(scenario.queries) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(8, len(scenario.queries))) as pool:
            return list(
                pool.map(lambda q: evaluate_query(scenario, q, seed, cases), scenario.queries)
            )
    return [evaluate_query(scenario, q, seed, cases) for q in scenario.queries]


def _format_inputs(inputs: dict) -> str:
    parts = []
    for key, value in inputs.items():
        if isinstance(value, list) and all(isinstance(v, str) for v in value):
            parts.append(f"{key}=({', '.join(value)})")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def render_text(records: list[dict]) -> str:
    lines = []
    for i, record in enumerate(records, start=1):
        lines.append(f"query {i}: {record['kind']} {_format_inputs(record['inputs'])}")
        decimal = record["value_decimal"]
        lines.append(f"  value: {record['value']} (approx {decimal:.10g})")
        if record["regime"] is not None:
            feasible = "yes" if record["feasible"] else "no"
            lines.append(f"  regime: {record['regime']}  feasible: {feasible}")
        witness = record["witness"]
        if record["kind"] == "CHECK_LAWS":
            lines.append("  suites:")
            lines.extend(f"    {line}" for line in witness)
        elif isinstance(witness, list):
            lines.append(f"  witness: ({', '.join(witness)})")
        elif isinstance(witness, dict):
            mapping = ", ".join(f"{k} -> {v}" for k, v in witness.items())
            lines.append(f"  witness: {mapping}")
        elif witness is not None:
            lines.append(f"  witness: {witness}")
        if "agrees_with_direct" in record:
            agrees = "yes" if record["agrees_with_direct"] else "no"
            lines.append(f"  agrees with direct evaluation: {agrees}")
    return "".join(line + "\n" for line in lines)


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read {args.scenario}: {exc}", file=sys.stderr)
        return 2
    records = evaluate_scenario(scenario, seed=args.seed, cases=args.cases)
    if args.format == "json":
        print(json.dumps(records, indent=2))
    else:
        print(render_text(records), end="")
    laws_failed = any(
        record["kind"] == "CHECK_LAWS" and not record["passed"] for record in records
    )
    return 3 if laws_failed else 0


def _cmd_laws(args: argparse.Namespace) -> int:
    from . import laws

    reports = laws.run_suites(seed=args.seed, cases=args.cases)
    for report in reports:
        print(report.line())
    return 0 if all(r.passed for r in reports) else 3


def _integer(text: str, pattern: str, expected: str) -> int:
    """``int(text)`` for a ``pattern`` match; argparse names the flag in an error."""
    if re.fullmatch(pattern, text):
        try:
            return int(text)
        except ValueError:  # past sys.get_int_max_str_digits(), far past _quoted's limit
            pass
    raise argparse.ArgumentTypeError(f"expected {expected}, got {_quoted(text)}")


def _case_count(text: str) -> int:
    return _integer(text, r"[0-9]+", "a count of 0 or more")


def _seed(text: str) -> int:
    return _integer(text, r"[+-]?[0-9]+", "an integer")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="giryq",
        description=(
            "Exact quantifier queries over finite Markov kernels, plus a "
            "random-instance law checker."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate the queries of a scenario file")
    run.add_argument("scenario", help="path to a scenario JSON document")
    run.add_argument("--seed", type=_seed, default=0, help="seed for law suites")
    run.add_argument(
        "--cases", type=_case_count, default=DEFAULT_CASES,
        help="random instances per law suite",
    )
    run.add_argument("--format", choices=("text", "json"), default="text")
    run.set_defaults(handler=_cmd_run)

    lawsp = sub.add_parser("laws", help="run the full law suite without a scenario")
    lawsp.add_argument("--seed", type=_seed, default=0)
    lawsp.add_argument("--cases", type=_case_count, default=DEFAULT_CASES)
    lawsp.set_defaults(handler=_cmd_laws)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        if sys.stdout is not None:  # None when the process started without one
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so the
        # interpreter's own flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
