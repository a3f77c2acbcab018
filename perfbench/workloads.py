"""Seeded workload generators for the giryq benchmark.

Each generator turns a seed into the exact inputs the CLI sees (a scenario
document, or the arguments of ``giryq laws``) plus the workload's recorded
properties.  Generators use only the standard library and their own random
stream, so a change inside ``src/giryq`` can never change a workload.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

# lifted-LP grades |X| x |Y| with their kernel counts, five LP queries per
# kernel.  The counts put the median op inside the 16x8 group and the 90th
# percentile inside the 32x12 group, away from a boundary between sizes.
LP_GRADES = ((8, 4, 1), (12, 6, 2), (16, 8, 4), (24, 10, 1), (32, 12, 2))

# kernel_chain: every space sits at the scenario cap of 64 points
CHAIN_POINTS = 64
CHAIN_ROW_SUPPORT = 12

# laws: `giryq laws` at this many cases per suite; one process runs all suites
LAWS_CASES = 40
LAWS_SUITES = (
    "monad_laws", "determinism", "adjunction", "galois", "composites", "continuity",
    "lp_oracle", "metric_axioms", "predicate_order", "quantifier_order", "lift_linearity",
)


@dataclass
class Workload:
    """Generated inputs for one CLI process: one part of a run's workload.

    ``argv`` is the CLI command line after the program name, relative to the
    directory that holds ``files``; ``setup_argv`` the command line of a
    process that loads the same inputs but evaluates nothing (None means
    interpreter start plus ``import giryq.cli``).  ``expected`` holds the
    generator's own knowledge about each query (say, that it is unreachable),
    which the checker uses to verify certificates.
    """

    argv: list[str]
    setup_argv: Optional[list[str]]
    files: dict[str, str] = field(default_factory=dict)
    doc: Optional[dict] = None
    expected: list[dict] = field(default_factory=list)
    properties: dict = field(default_factory=dict)


def workload_rng(workload: str, seed: int, part: int = 0) -> random.Random:
    # string seeding goes through sha512: stable across processes and runs
    return random.Random(f"perfbench:{workload}:{seed}:{part}")


def _rand_dist(rng: random.Random, n: int, support: int, scale: int) -> list[Fraction]:
    """A distribution on ``n`` points with exactly ``support`` nonzero weights."""
    idx = rng.sample(range(n), support)
    parts = [rng.randint(1, scale) for _ in idx]
    total = sum(parts)
    weights = [Fraction(0)] * n
    for i, p in zip(idx, parts):
        weights[i] = Fraction(p, total)
    return weights


def random_predicate(rng: random.Random, n: int) -> list[Fraction]:
    """Values in [0, 1] with denominators up to 9."""
    out = []
    for _ in range(n):
        den = rng.randint(1, 9)
        out.append(Fraction(rng.randint(0, den), den))
    return out


def mix(weights: list[Fraction], rows: list[list[Fraction]]) -> list[Fraction]:
    """The mixture of ``rows`` with ``weights``: a vector-matrix product."""
    out = [Fraction(0)] * len(rows[0])
    for w, row in zip(weights, rows):
        if w:
            for j, v in enumerate(row):
                if v:
                    out[j] += w * v
    return out


def random_kernel_rows(rng: random.Random, nx: int, ny: int) -> list[list[Fraction]]:
    """Rows of a random |X| x |Y| kernel, each with at least two nonzero weights."""
    return [_rand_dist(rng, ny, rng.randint(2, ny), 8) for _ in range(nx)]


def unreachable_query(rng: random.Random, rows: list[list[Fraction]]) -> list[Fraction]:
    """A query that puts more weight on some point than any row does."""
    y = rng.randrange(len(rows[0]))
    top = max(r[y] for r in rows)
    base = rows[rng.randrange(len(rows))]
    # any t above t0 puts more weight on y than any mixture of rows can
    t0 = (top - base[y]) / (1 - base[y])
    t = (t0 + 1) / 2
    query = [(1 - t) * v for v in base]
    query[y] += t
    return query


def interior_query(rng: random.Random, rows: list[list[Fraction]]) -> list[Fraction]:
    """A reachable query: a random mixture of three rows."""
    return mix(_rand_dist(rng, len(rows), 3, 6), rows)


def _space(name: str, n: int, tag: str) -> dict:
    return {"name": name, "points": [f"{tag}{i}" for i in range(n)]}


def _kernel_doc(source: str, target: str, rows: list[list[Fraction]]) -> dict:
    return {
        "source": source,
        "target": target,
        "rows": [[str(v) for v in row] for row in rows],
    }


def _doc_text(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"


def count_rationals(doc: dict) -> int:
    """Number of rational literals in a scenario document."""
    count = 0
    for k in doc["kernels"].values():
        count += sum(len(r) for r in k["rows"])
    for p in doc["predicates"].values():
        count += len(p["values"])
    for q in doc["queries"]:
        for key in ("dist", "left", "right"):
            if key in q:
                count += len(q[key])
    return count


def _finish_run(part: int, doc: dict, expected: list[dict], props: dict) -> Workload:
    empty = dict(doc, queries=[])
    text = _doc_text(doc)
    props = dict(props)
    props.update(
        ops=len(doc["queries"]),
        doc_bytes=len(text.encode()),
        rationals=count_rationals(doc),
    )
    return Workload(
        argv=["run", f"doc-{part}.json", "--format", "text"],
        setup_argv=["run", f"setup-{part}.json", "--format", "text"],
        files={f"doc-{part}.json": text, f"setup-{part}.json": _doc_text(empty)},
        doc=doc,
        expected=expected,
        properties=props,
    )


def gen_lp_lifted(seed: int, part: int = 0) -> Workload:
    """Fifty lifted LP queries over graded random kernels.

    Every kernel gets five queries: a reachable interior query asked in both
    senses, then alternately (a second such pair and an unreachable query in
    one sense) or (a row image asked in both senses and a reachable query in
    one sense).  Rows always carry at least two nonzero weights, so a query
    whose weight at some point beats every row's weight there is provably
    unreachable.
    """
    rng = workload_rng("lp_lifted", seed, part)
    doc: dict = {"spaces": [], "kernels": {}, "predicates": {},
                 "simplex_predicates": {}, "queries": []}
    pending: list[tuple[dict, dict]] = []
    for nx, ny, count in LP_GRADES:
        sx, sy = f"X{nx}", f"Y{ny}"
        doc["spaces"] += [_space(sx, nx, "x"), _space(sy, ny, "y")]
        for k in range(count):
            kname, pname = f"K{nx}x{ny}_{k}", f"p{nx}x{ny}_{k}"
            rows = random_kernel_rows(rng, nx, ny)
            pred = random_predicate(rng, nx)
            doc["kernels"][kname] = _kernel_doc(sx, sy, rows)
            doc["predicates"][pname] = {"space": sx, "values": [str(v) for v in pred]}

            def add(query: list[Fraction], senses: tuple[str, ...], tag: str) -> None:
                for sense in senses:
                    q = {"kind": f"{sense}_LP", "kernel": kname, "predicate": pname,
                         "dist": [str(v) for v in query]}
                    exp = {"kind": q["kind"], "tag": tag, "paired": len(senses) == 2,
                           "feasible": tag != "unreachable"}
                    pending.append((q, exp))

            one_sense = (rng.choice(("EXISTS", "FORALL")),)
            add(interior_query(rng, rows), ("EXISTS", "FORALL"), "interior")
            if k % 2 == 0:
                add(interior_query(rng, rows), ("EXISTS", "FORALL"), "interior")
                add(unreachable_query(rng, rows), one_sense, "unreachable")
            else:
                add(list(rows[rng.randrange(nx)]), ("EXISTS", "FORALL"), "row_image")
                add(interior_query(rng, rows), one_sense, "interior")
    rng.shuffle(pending)
    doc["queries"] = [q for q, _ in pending]
    expected = [e for _, e in pending]
    n = len(expected)
    props = {
        "grades": {f"{a}x{b}": c for a, b, c in LP_GRADES},
        "quantifiers.paired_frac": sum(e["paired"] for e in expected) / n,
        "quantifiers.row_image_frac": sum(e["tag"] == "row_image" for e in expected) / n,
        "quantifiers.infeasible_frac": sum(not e["feasible"] for e in expected) / n,
    }
    return _finish_run(part, doc, expected, props)


def gen_kernel_chain(seed: int, part: int = 0) -> Workload:
    """Fiber, metric, expectation and determinism queries on 64-point spaces,
    plus COMPOSE queries over two kernel pairs.  Kernel rows are drawn from a
    small pool, so fibers hold several points and composite stages merge.
    No query kind here reaches the LP.
    """
    rng = workload_rng("kernel_chain", seed, part)
    n = CHAIN_POINTS
    doc: dict = {"spaces": [_space("A", n, "a"), _space("B", n, "b"), _space("C", n, "c")],
                 "kernels": {}, "predicates": {}, "simplex_predicates": {}, "queries": []}
    rows: dict[str, list[list[Fraction]]] = {}
    layout = {"f": ("A", "B", 8), "g": ("B", "C", 8), "h": ("A", "B", 16), "k": ("B", "C", 4)}
    for name, (src, tgt, pool_size) in layout.items():
        pool = [_rand_dist(rng, n, CHAIN_ROW_SUPPORT, 6) for _ in range(pool_size)]
        rows[name] = [list(rng.choice(pool)) for _ in range(n)]
        doc["kernels"][name] = _kernel_doc(src, tgt, rows[name])
    det = [rng.randrange(n // 2) for _ in range(n)]
    rows["d"] = [[Fraction(int(j == det[i])) for j in range(n)] for i in range(n)]
    doc["kernels"]["d"] = _kernel_doc("A", "B", rows["d"])
    for space in ("A", "B"):
        doc["predicates"][f"p{space}"] = {"space": space,
                                         "values": [str(v) for v in random_predicate(rng, n)]}

    pending: list[tuple[dict, dict]] = []
    dist = lambda: [str(v) for v in _rand_dist(rng, n, rng.randint(2, n), 9)]

    # 8 COMPOSE: 4 per kernel pair, 3 of them at a composed row.  One op in
    # eight is a COMPOSE, so the 90th percentile op is one.
    for inner, outer in (("f", "g"), ("h", "k")):
        for i in range(4):
            if i < 3:
                query = [str(v) for v in mix(rng.choice(rows[inner]), rows[outer])]
            else:
                query = dist()
            pending.append(({"kind": "COMPOSE", "inner": inner, "outer": outer,
                             "predicate": "pA", "quantifier": ("EXISTS", "FORALL")[i % 2],
                             "dist": query}, {"kind": "COMPOSE", "hit": i < 3}))
    # 24 fiber queries, 18 of them at a row of their kernel (a fiber hit)
    for i in range(24):
        kname = ("f", "h", "d")[i % 3]
        hit = (i // 3) % 3 != 2
        if hit:
            query = [str(v) for v in rows[kname][rng.randrange(n)]]
        else:
            query = dist()
        kind = rng.choice(("EXISTS_COUNTABLE", "FORALL_COUNTABLE"))
        pending.append(({"kind": kind, "kernel": kname, "predicate": "pA", "dist": query},
                        {"kind": kind, "hit": hit}))
    for _ in range(12):
        space = rng.choice("ABC")
        pending.append(({"kind": "METRIC", "space": space, "left": dist(), "right": dist()},
                        {"kind": "METRIC"}))
    for _ in range(12):
        space = rng.choice("AB")
        pending.append(({"kind": "EXPECTATION", "predicate": f"p{space}", "dist": dist()},
                        {"kind": "EXPECTATION"}))
    for i in range(8):
        kname = ("f", "g", "h", "k", "d")[i % 5]
        pending.append(({"kind": "DETERMINISM", "kernel": kname},
                        {"kind": "DETERMINISM", "deterministic": kname == "d"}))
    rng.shuffle(pending)
    doc["queries"] = [q for q, _ in pending]
    expected = [e for _, e in pending]

    fiber = [e for e in expected if e["kind"].endswith("_COUNTABLE")]
    composes = [e for e in expected if e["kind"] == "COMPOSE"]
    props = {
        "points": n,
        "row_pool_sizes": {k: size for k, (_, _, size) in layout.items()},
        "fiber_hit_frac": sum(e["hit"] for e in fiber) / len(fiber),
        "compose_hit_frac": sum(e["hit"] for e in composes) / len(composes),
        # each COMPOSE query composes its pair once; all but the first per pair repeat
        "kernels.repeat_pair_frac": (len(composes) - 2) / len(composes),
    }
    return _finish_run(part, doc, expected, props)


def gen_laws(seed: int, part: int = 0) -> Workload:
    """All 11 law suites through ``giryq laws``, at a law seed made from the
    benchmark's seed and the part."""
    law_seed = workload_rng("laws", seed, part).randrange(2**31)
    return Workload(
        argv=["laws", "--seed", str(law_seed), "--cases", str(LAWS_CASES)],
        setup_argv=None,
        properties={"cases": LAWS_CASES, "law_seed": law_seed},
    )


GENERATORS = {
    "lp_lifted": gen_lp_lifted,
    "kernel_chain": gen_kernel_chain,
    "laws": gen_laws,
}
