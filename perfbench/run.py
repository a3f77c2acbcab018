"""Benchmark for the giryq CLI: ``giryq run`` and ``giryq laws`` end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lp_lifted|kernel_chain|laws \\
        --seed N --seconds S --trace 0|1

The seed makes the workload's inputs (see ``workloads.py``): a fixed number
of parts, each the whole input of one CLI process.  The CLI runs from
source (``src`` on PYTHONPATH), one process at a time, each evaluating its
ops one after another: a closed loop with a single client.

With ``--trace 0`` the run goes through the parts in turn, and round again
while the seconds last, timing per part a set-up process and then the CLI
process.  The host's vCPU speed changes by up to 1.6x within seconds, so
every time is scaled by the speed of the moment, as a fixed probe
(``calibrate.py``) measures it against ``calibrate.PROBE_S``: the CLI
process runs the probe before its first op and after each op, each op is
scaled by the two probes around it, start-up and load by the first probe,
and the rest up to exit by the last; a set-up process is scaled by probes
run just before and after it.  Probe time is left out, and the figures read
as seconds on a machine where the probe takes ``PROBE_S``; raw times are
kept in the details file.  Times are taken per part as medians over its
processes, then averaged over parts; op percentiles are over the distinct
ops, each at its median latency.  Peak memory is the CLI process's own, as
it reports it (see ``cli_runner.py``).
With ``--trace 1`` it runs, per part while the seconds last, an untraced
and then a traced process (see ``tracer.py``) and reports the per-layer
figures, unscaled.  Every process's stdout is checked (``check.py``).  The last
stdout line is the result as JSON, with exactly the metrics that
``BENCHMARK.json`` lists for the mode; details go to ``.perfbench_out``.

``--write-reference`` instead records the per-op output digests of every
part at the reference seed into ``reference.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from calibrate import PROBE_S, probe
from check import check_output, digest, split_ops
from workloads import GENERATORS, LAWS_SUITES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0

# parts per workload: more distinct inputs per run steady the op percentiles
PARTS = {"lp_lifted": 12, "kernel_chain": 8, "laws": 24}
# probes run before and after each set-up process
SETUP_PROBES = 3
# every process is killed once the run has lasted this long
HARD_LIMIT_S = 150.0


class Run:
    """One benchmark run: the workload's parts, its processes and their checks."""

    def __init__(self, name: str, seed: int, seconds: float) -> None:
        self.parts = [GENERATORS[name](seed, k) for k in range(PARTS[name])]
        # the host's vCPUs change speed independently of each other, so the
        # probes and the processes they scale all run on one of them
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.start = time.perf_counter()
        self.seconds = seconds
        self.dir = OUT / name
        self.dir.mkdir(parents=True, exist_ok=True)
        for w in self.parts:
            for fname, text in w.files.items():
                (self.dir / fname).write_text(text, encoding="utf-8")
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.reference = None
        if seed == REFERENCE_SEED and REFERENCE.is_file():
            self.reference = json.loads(REFERENCE.read_text()).get(name)
        self.verdicts: dict[tuple[int, str], dict[int, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, str] = {}
        self.count = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def process(self, cmd: list[str]) -> tuple[float, float, int, bytes]:
        """Run one process; return its start and end on ``perf_counter`` (a
        system-wide monotonic clock, which the child's own stamps share),
        exit code and stdout."""
        self.count += 1
        stdout_path = self.dir / f"stdout-{self.count}.txt"
        with open(stdout_path, "wb") as out, open(self.dir / "stderr.txt", "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.dir)
            killer = threading.Timer(max(1.0, HARD_LIMIT_S - self.elapsed()), proc.kill)
            killer.start()
            try:
                code = proc.wait()
            finally:
                killer.cancel()
            end = time.perf_counter()
        stdout = stdout_path.read_bytes()
        stdout_path.unlink()
        return start, end, code, stdout

    def cli(self, part: int, mode: str) -> dict:
        """One CLI process over a whole part, through the runner, checked."""
        w = self.parts[part]
        out_file = self.dir / f"{mode}-{self.count + 1}.json"
        cmd = [sys.executable, str(HERE / "cli_runner.py"), "--mode", mode,
               "--out", str(out_file), "--", *w.argv]
        start, end, code, stdout = self.process(cmd)
        n_ops = len(w.expected) if w.doc is not None else len(LAWS_SUITES)
        rep = {"part": part, "start": start, "end": end, "exit": code}
        if code == 0 and out_file.is_file():
            rep.update(json.loads(out_file.read_text()))
            out_file.unlink()
            key = (part, hashlib.sha256(stdout).hexdigest())
            if key not in self.verdicts:
                reference = self.reference[part] if self.reference else None
                self.verdicts[key] = check_output(w, stdout.decode("utf-8", "replace"), reference)
            failed = self.verdicts[key]
        else:
            failed = {i: f"exit code {code}" for i in range(n_ops)}
        for i, reason in failed.items():
            self.reasons.setdefault(f"part {part} op {i}", reason)
        self.attempted += n_ops
        self.failed += len(failed)
        return rep

    def setup(self, part: int) -> tuple[float, float]:
        """Wall time of a process that starts, imports and loads, evaluating
        nothing; and the median probe time around it."""
        argv = self.parts[part].setup_argv
        if argv is None:
            cmd = [sys.executable, "-c", "import giryq.cli"]
        else:
            cmd = [sys.executable, "-m", "giryq.cli", *argv]
        probes = [probe() for _ in range(SETUP_PROBES)]
        start, end, code, _ = self.process(cmd)
        probes += [probe() for _ in range(SETUP_PROBES)]
        if code != 0:
            raise RuntimeError(f"set-up process exited with code {code}")
        return end - start, statistics.median(e - s for s, e in probes)

    def rounds(self, minimum: int):
        """Yield part numbers in turn: ``minimum`` of them, then more while
        the next one is expected to end within the run's seconds."""
        steps: list[float] = []
        i = 0
        while i < minimum or statistics.median(steps) < self.seconds - self.elapsed():
            t = time.perf_counter()
            yield i % len(self.parts)
            steps.append(time.perf_counter() - t)
            i += 1


def _per_part(samples: list[tuple[int, object]]) -> dict[int, list]:
    by_part: dict[int, list] = {}
    for part, value in samples:
        by_part.setdefault(part, []).append(value)
    return by_part


def scaled(rep: dict) -> tuple[float, float, list[float]]:
    """One CLI process's wall time, time from the first op to the last and
    op latencies, each scaled by the probes around it, probe time left out."""
    probes, ops = rep["probes"], rep["ops"]
    if len(probes) != len(ops) + 1:
        raise RuntimeError(f"{len(ops)} ops but {len(probes)} probes")
    speed = [(end - start) / PROBE_S for start, end in probes]
    # op i runs between probe i and probe i + 1
    around = [(a + b) / 2 for a, b in zip(speed, speed[1:])]
    latencies = [(end - start) / v for (start, end), v in zip(ops, around)]
    busy = sum((after[0] - before[1]) / v for before, after, v in zip(probes, probes[1:], around))
    wall = ((probes[0][0] - rep["start"]) / speed[0] + busy
            + (rep["end"] - probes[-1][1]) / speed[-1])
    return wall, busy, latencies


def end_to_end(run: Run) -> tuple[dict, dict]:
    # a set-up process before each CLI process spreads both over the same time
    setups, reps = [], []
    for part in run.rounds(len(run.parts)):
        setups.append(run.setup(part))
        reps.append(run.cli(part, "ops"))
    good = [dict(r, scaled=scaled(r)) for r in reps if r["exit"] == 0 and r.get("ops")]
    if not good:
        raise RuntimeError("no CLI process completed")
    by_part = _per_part([(r["part"], r["scaled"]) for r in good]).values()
    # one latency per distinct op: its median over the part's processes
    latencies = [statistics.median(op) for runs in by_part for op in zip(*(lat for *_, lat in runs))]
    metrics = {
        "wall_s": statistics.fmean(statistics.median(w for w, *_ in runs) for runs in by_part),
        "setup_s": statistics.median(wall / (probe_s / PROBE_S) for wall, probe_s in setups),
        "ops_per_s": len(latencies) / sum(statistics.median(b for _, b, _ in runs)
                                          for runs in by_part),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
    }
    details = {"processes": len(reps), "distinct_ops": len(latencies),
               "setup_wall_and_probe_s": setups,
               "cli": [{k: r.get(k) for k in ("part", "start", "end", "ops", "probes")}
                       for r in reps]}
    return metrics, details


def traced(run: Run) -> tuple[dict, dict]:
    pairs = [(run.cli(part, "ops"), run.cli(part, "trace")) for part in run.rounds(1)]
    good = [(plain, tr) for plain, tr in pairs if "main_s" in plain and "figures" in tr]
    if not good:
        raise RuntimeError("no traced CLI process completed")
    (run.dir / "spans.json").write_text(json.dumps(good[-1][1]["spans"]))
    figures = [tr["figures"] for _, tr in good]
    metrics = {k: statistics.median(f[k] for f in figures) for k in figures[0]}
    props = [run.parts[tr["part"]].properties for _, tr in good]
    metrics["scenario.doc_kb"] = statistics.median(p.get("doc_bytes", 0) for p in props) / 1024
    metrics["scenario.rationals"] = statistics.median(p.get("rationals", 0) for p in props)
    # the untraced process ran the probes, which the traced one does not
    metrics["trace.overhead_frac"] = statistics.median(
        tr["main_s"] / (plain["main_s"] - sum(e - s for s, e in plain["probes"])) - 1
        for plain, tr in good)
    details = {"processes": 2 * len(pairs),
               "traced_main_s": [tr["main_s"] for _, tr in good],
               "untraced_main_s": [plain["main_s"] for plain, _ in good]}
    return metrics, details


def write_reference(name: str) -> None:
    run = Run(name, REFERENCE_SEED, seconds=0)
    digests = []
    for w in run.parts:
        _, _, code, stdout = run.process([sys.executable, "-m", "giryq.cli", *w.argv])
        text = stdout.decode()
        problems = check_output(w, text)
        if code != 0 or problems:
            raise SystemExit(f"refusing to record a failing output: exit {code}, {problems}")
        digests.append([digest(block) for block in split_ops(text)])
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {"seed": REFERENCE_SEED}
    refs[name] = digests
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description="giryq CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "giryq" / "cli.py").is_file():
        print(f"error: no giryq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference(args.workload)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    run = Run(args.workload, args.seed, args.seconds)
    metrics, details = (traced if args.trace else end_to_end)(run)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    details.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   properties=[w.properties for w in run.parts],
                   fail_frac=run.failed / run.attempted, failed_ops=run.reasons)
    (run.dir / f"result-{args.seed}-{args.trace}.json").write_text(
        json.dumps(dict(result, details=details), indent=1))
    for op, reason in sorted(run.reasons.items())[:5]:
        print(f"{op} failed: {reason}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
