"""One-off baseline: the figures of ROADMAP.md's Baseline section, remeasured.

Usage, from the root of a checkout::

    python3 perfbench/baseline.py [--seed N]

It times, in this process:

* ``exists_lifted`` on one random reachable query per kernel size
  16x8, 32x12, 64x16 and 64x32 (kernels as ``workloads.random_kernel_rows``
  makes them);
* ``exists_fiber`` at a row image of the 64x32 kernel (median of 200 calls);
* each law suite at 200 cases;
* ``cli.parallel_speedup``: serial ``evaluate_scenario`` against
  ``evaluate_scenario(parallel=True)`` on the ``lp_lifted`` workload,
  as serial time over parallel time.

It is slow (the 64x32 LP alone takes seconds) and is not one of the
benchmark's repeated runs.  The result is printed and written to
``.perfbench_out/baseline.json``.
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

from workloads import (
    gen_lp_lifted, interior_query, random_kernel_rows, random_predicate, workload_rng,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from giryq import laws  # noqa: E402
from giryq.cli import evaluate_scenario  # noqa: E402
from giryq.kernels import Kernel  # noqa: E402
from giryq.measures import Dist, FiniteSpace  # noqa: E402
from giryq.predicates import Predicate  # noqa: E402
from giryq.quantifiers import exists_fiber, exists_lifted  # noqa: E402
from giryq.scenario import scenario_from_dict  # noqa: E402

LP_SIZES = ((16, 8), (32, 12), (64, 16), (64, 32))
LAW_CASES = 200


def _timed(fn, *args) -> float:
    t = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t


def _instance(seed: int, nx: int, ny: int) -> tuple[Kernel, Predicate, Dist]:
    rng = workload_rng(f"baseline-{nx}x{ny}", seed)
    sx = FiniteSpace("X", tuple(f"x{i}" for i in range(nx)))
    sy = FiniteSpace("Y", tuple(f"y{i}" for i in range(ny)))
    rows = random_kernel_rows(rng, nx, ny)
    kernel = Kernel(sx, sy, tuple(Dist(sy, tuple(r)) for r in rows))
    pred = Predicate(sx, tuple(random_predicate(rng, nx)))
    return kernel, pred, Dist(sy, tuple(interior_query(rng, rows)))


def main() -> int:
    parser = argparse.ArgumentParser(description="one-off baseline figures")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    out: dict = {"python": platform.python_version(), "seed": args.seed}
    for nx, ny in LP_SIZES:
        kernel, pred, query = _instance(args.seed, nx, ny)
        out[f"lifted_lp_{nx}x{ny}_s"] = _timed(exists_lifted, kernel, pred, query)

    kernel, pred, _ = _instance(args.seed, 64, 32)
    row = kernel.rows[0]
    out["fiber_64x32_us"] = 1e6 * statistics.median(
        _timed(exists_fiber, kernel, pred, row) for _ in range(200))

    for name in laws.SUITES:
        out[f"laws.{name}_{LAW_CASES}_s"] = _timed(laws.run_suite, name, args.seed, LAW_CASES)

    scenario = scenario_from_dict(gen_lp_lifted(args.seed).doc)
    serial = _timed(evaluate_scenario, scenario)
    parallel = _timed(lambda: evaluate_scenario(scenario, parallel=True))
    out["cli.serial_s"] = serial
    out["cli.parallel_s"] = parallel
    out["cli.parallel_speedup"] = serial / parallel

    text = json.dumps(out, indent=1)
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    (ROOT / ".perfbench_out" / "baseline.json").write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
