"""Run the giryq CLI once in this process, timed from outside its code.

Usage::

    python3 perfbench/cli_runner.py --mode ops|trace --out FILE -- <giryq args>

``giryq`` must be importable (the benchmark puts ``src`` on PYTHONPATH).
The CLI's stdout and exit code are passed through untouched.  ``ops`` mode
wraps only the op (``cli.evaluate_query`` for ``run``, ``laws.run_suite``
for ``laws``) and runs ``calibrate.probe`` before the first op and after
every op, outside the op's span; ``trace`` mode wraps every public function
listed in ``tracer.LAYER_FUNCTIONS``.  Either way the root span is
``cli.main``.  At exit the spans, the probes, the peak resident memory and,
in ``trace`` mode, the per-layer figures are written to FILE as JSON.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction

from calibrate import probe
from tracer import OP_SPANS, Tracer

import giryq.cli as cli
from giryq.laws import SUITES
from giryq.lp import LinearProgram


def _bits(x: Fraction) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _total_ms(tracer: Tracer, *names: str) -> float:
    return 1000 * sum(sum(tracer.durations(n)) for n in names)


def _frac(hits: int, total: int) -> float:
    return hits / total if total else 0.0


def _lp_figures(tracer: Tracer) -> dict:
    """LP counters, plus phase 1 timed by re-solving each recorded program
    with a zero objective: that solve is phase 1 plus the drive-out of
    artificials, and phase 2 is the rest of the original solve.
    """
    solve = tracer.originals["lp.lp_solve"]
    calls = tracer.calls.get("lp.lp_solve", [])
    phase1_s, phase1_pivots, cells, bits = 0.0, 0, 0, 0
    for _, (lp, *_rest), solution in calls:
        m, n = len(lp.rhs), len(lp.objective)
        cells = max(cells, m * (n + m))
        if solution.point is not None:
            bits = max([bits, *map(_bits, solution.point)])
        zero = LinearProgram(objective=(0,) * n, matrix=lp.matrix, rhs=lp.rhs, sense=lp.sense)
        t = time.perf_counter()
        phase1 = solve(zero)
        phase1_s += time.perf_counter() - t
        phase1_pivots += phase1.pivots
    solve_ms = _total_ms(tracer, "lp.lp_solve")
    return {
        "lp.calls": len(calls),
        "lp.solve_ms": solve_ms,
        "lp.phase1_ms": 1000 * phase1_s,
        "lp.phase2_ms": solve_ms - 1000 * phase1_s,
        "lp.pivots": sum(sol.pivots for _, _, sol in calls),
        "lp.phase1_pivots": phase1_pivots,
        "lp.tableau_cells_max": cells,
        "lp.max_bits": bits,
    }


def _quantifier_figures(tracer: Tracer) -> dict:
    lifted = [
        (sense, args, result)
        for sense in ("exists", "forall")
        for _, args, result in tracer.calls.get(f"quantifiers.{sense}_lifted", [])
    ]
    senses: dict[tuple, set] = {}
    for sense, (kernel, pred, query), _ in lifted:
        senses.setdefault((kernel, pred, query), set()).add(sense)
    fiber = [
        result
        for sense in ("exists", "forall")
        for _, _, result in tracer.calls.get(f"quantifiers.{sense}_fiber", [])
    ]
    lifted_names = {"quantifiers.exists_lifted", "quantifiers.forall_lifted"}
    spans = tracer.spans
    certify = sum(
        end - start
        for name, start, end, parent, _ in spans
        if name in ("kernels.lift", "predicates.expectation")
        and parent >= 0 and spans[parent][0] in lifted_names
    )
    return {
        "quantifiers.lifted_ms": _total_ms(tracer, *lifted_names),
        "quantifiers.fiber_ms": _total_ms(tracer, "quantifiers.exists_fiber", "quantifiers.forall_fiber"),
        "quantifiers.composite_ms": _total_ms(
            tracer, "quantifiers.exists_composite", "quantifiers.forall_composite"),
        "quantifiers.certify_ms": 1000 * certify,
        "quantifiers.paired_frac": _frac(
            sum(len(senses[(k, p, q)]) == 2 for _, (k, p, q), _ in lifted), len(lifted)),
        "quantifiers.row_image_frac": _frac(
            sum(q in k.rows for _, (k, _p, q), _ in lifted), len(lifted)),
        "quantifiers.infeasible_frac": _frac(
            sum(not r.feasible for _, _, r in lifted), len(lifted)),
        "quantifiers.fiber_hit_frac": _frac(sum(r.feasible for r in fiber), len(fiber)),
    }


def _kernel_figures(tracer: Tracer) -> dict:
    pairs = [args[:2] for _, args, _ in tracer.calls.get("kernels.compose", [])]
    return {
        "kernels.compose_ms": _total_ms(tracer, "kernels.compose"),
        "kernels.compose_calls": len(pairs),
        "kernels.repeat_pair_frac": _frac(len(pairs) - len(set(pairs)), len(pairs)),
        "kernels.lift_ms": _total_ms(tracer, "kernels.lift"),
    }


def layer_figures(tracer: Tracer) -> dict:
    """Every per-layer figure of one traced CLI process."""
    (main_s,) = tracer.durations("cli.main")
    figures = {
        "cli.main_ms": 1000 * main_s,
        "cli.evaluate_ms": 1000 * sum(
            end - start for name, start, end, parent, _ in tracer.spans
            if parent == 0 and name in ("cli.evaluate_scenario", "laws.run_suites")),
        "cli.render_ms": _total_ms(tracer, "cli.render_text", "laws.report_line"),
        "scenario.load_ms": _total_ms(tracer, "scenario.load_scenario"),
        "trace.spans": len(tracer.spans),
    }
    suite_s = dict.fromkeys(SUITES, 0.0)
    for name, start, end, _, detail in tracer.spans:
        if name == "laws.run_suite":
            suite_s[detail] += end - start
    figures.update({f"laws.{s}_ms": 1000 * v for s, v in suite_s.items()})
    self_s = tracer.self_times()
    figures.update({f"{layer}.self_ms": 1000 * v for layer, v in self_s.items()})
    figures["trace.self_sum_frac"] = sum(self_s.values()) / main_s
    figures.update(_kernel_figures(tracer))
    figures.update(_quantifier_figures(tracer))
    # last: it re-solves LPs, which must not land inside any span above
    figures.update(_lp_figures(tracer))
    return figures


def peak_rss_mb() -> float:
    """This process's peak resident memory since it started the interpreter.

    ``getrusage`` and ``wait4`` would also count the memory of the parent
    that forked it, which holds every generated workload."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def probe_around(op: str, probes: list) -> None:
    """Rebind every reference to the traced op so that the probe runs before
    the first call and after each call, appending its stamps to ``probes``."""
    layer, fname = op.split(".")
    traced = getattr(sys.modules[f"giryq.{layer}"], fname)

    @functools.wraps(traced)
    def probed(*args, **kwargs):
        if not probes:
            probes.append(probe())
        try:
            return traced(*args, **kwargs)
        finally:
            probes.append(probe())

    for name, module in list(sys.modules.items()):
        if name.startswith("giryq."):
            for attr, value in list(vars(module).items()):
                if value is traced:
                    setattr(module, attr, probed)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("ops", "trace"), required=True)
    parser.add_argument("--out", required=True, help="JSON file for spans and figures")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    op = OP_SPANS[argv[0]]
    probes: list[tuple[float, float]] = []
    if args.mode == "ops":
        tracer.install(only=(op,))
        probe_around(op, probes)
    else:
        tracer.install()
    code = tracer.span("cli.main", cli.main, (argv,))
    sys.stdout.flush()

    out = {
        "exit": code,
        "main_s": tracer.durations("cli.main")[0],
        "ops": [[s[1], s[2]] for s in tracer.spans if s[0] == op],
        "probes": probes,
        "peak_rss_mb": peak_rss_mb(),
    }
    if args.mode == "trace":
        out["figures"] = layer_figures(tracer)
        out["spans"] = tracer.spans
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
