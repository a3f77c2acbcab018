"""Seeded random-instance law suites and the independent test oracles.

Each suite draws random exact-rational instances from a deterministic
generator and checks one family of algebraic laws by exact comparison.
Suites return a report with one line per failure, so a rerun with the same
seed reproduces the report byte for byte.  The oracles here (subset
enumeration for the metric, basic-solution enumeration for linear
programs) are deliberately independent of the code paths they check.  The
metric oracle enumerates every one of the 2^n events, in Gray-code order
over integers (the point-wise differences scaled by the lcm of their
denominators), so each event costs one integer addition.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable, Iterator, Optional, Sequence

from .kernels import (
    Kernel,
    PointFunction,
    compose,
    deterministic_kernel,
    extract_point_function,
    identity_kernel,
    image_measure,
    is_deterministic,
    lift,
    mixture,
)
from .lp import LinearProgram, LpSolution, LpStatus, Sense, lp_solve
from .measures import (
    ZERO,
    Dist,
    FinSuppMeasure,
    FiniteSpace,
    _cleared,
    _same_space,
    tv_metric,
    tv_norm,
)
from .predicates import LiftedPredicate, Predicate, entails, expectation, substitute
from .quantifiers import (
    Regime,
    check_adjunction_bounds,
    check_composite,
    check_galois,
    exists_at,
    exists_fiber,
    exists_lifted,
    forall_at,
    forall_fiber,
    forall_lifted,
)
from .scenario import DEFAULT_CASES

# ---------------------------------------------------------------------------
# random instance generators (exact rationals only)
# ---------------------------------------------------------------------------


def rand_fraction(rng: random.Random) -> Fraction:
    """A random rational in [0, 1] with a denominator of at most 6."""
    den = rng.randint(1, 6)
    return Fraction(rng.randint(0, den), den)


def rand_space(
    rng: random.Random, tag: str, min_size: int = 1, max_size: int = 5
) -> FiniteSpace:
    size = rng.randint(min_size, max_size)
    return FiniteSpace(tag, tuple(f"{tag.lower()}{i + 1}" for i in range(size)))


def rand_dist(rng: random.Random, space: FiniteSpace) -> Dist:
    parts = [rng.randint(0, 8) for _ in range(len(space))]
    if not any(parts):
        parts[rng.randrange(len(parts))] = 1
    total = sum(parts)
    return Dist(space, tuple(Fraction(p, total) for p in parts))


def rand_kernel(rng: random.Random, source: FiniteSpace, target: FiniteSpace) -> Kernel:
    return Kernel(
        source, target, tuple(rand_dist(rng, target) for _ in source.points)
    )


def rand_predicate(rng: random.Random, space: FiniteSpace) -> Predicate:
    return Predicate(space, tuple(rand_fraction(rng) for _ in space.points))


def rand_point_function(
    rng: random.Random, source: FiniteSpace, target: FiniteSpace
) -> PointFunction:
    return PointFunction(
        source, target, tuple(rng.choice(target.points) for _ in source.points)
    )


def rand_finsupp_over_dists(rng: random.Random, space: FiniteSpace) -> FinSuppMeasure:
    """A measure on at most three distinct random distributions."""
    atoms: list[Dist] = []
    for _ in range(rng.randint(1, 3)):
        d = rand_dist(rng, space)
        if d not in atoms:
            atoms.append(d)
    parts = [rng.randint(1, 6) for _ in atoms]
    total = sum(parts)
    return FinSuppMeasure(atoms, tuple(Fraction(p, total) for p in parts))


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def _event_sums(steps: Sequence[int]) -> Iterator[int]:
    """The sum of ``steps`` over every subset of indices, each subset once.

    The subsets come in Gray-code order from the empty one: subset ``k``
    differs from subset ``k - 1`` in index ``(k & -k).bit_length() - 1``
    alone, so each sum is the last one plus or minus one step.
    """
    inside = [False] * len(steps)
    total = 0
    yield total
    for k in range(1, 1 << len(steps)):
        i = (k & -k).bit_length() - 1
        total = total - steps[i] if inside[i] else total + steps[i]
        inside[i] = not inside[i]
        yield total


def tv_oracle(p: Dist, q: Dist) -> Fraction:
    """Metric by brute force: max of |p(B) - q(B)| over all 2^n events B.

    Every event is enumerated, in Gray-code order (:func:`_event_sums`),
    over the differences ``p_i - q_i`` scaled to integers by the lcm of
    their denominators.  Nothing here uses :func:`tv_metric`'s positive
    part or the half of :func:`tv_norm`.
    """
    _same_space("first distribution lives on", p.space, "the second lives on", q.space)
    steps, scale = _cleared([a - b for a, b in zip(p.weights, q.weights)])
    return Fraction(max(map(abs, _event_sums(steps))), scale)


def _solve_unique(
    columns: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Optional[list[Fraction]]:
    """Unique solution of a column-subset system, or None.

    None means the chosen columns are linearly dependent or the system is
    inconsistent; either way the subset contributes no basic solution.
    """
    m = len(rhs)
    k = len(columns[0]) if m else 0
    aug = [list(row) + [b] for row, b in zip(columns, rhs)]
    r = 0
    for c in range(k):
        pivot_row = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot_row is None:
            return None
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        piv = aug[r][c]
        aug[r] = [a / piv for a in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        r += 1
    for i in range(r, m):
        if aug[i][-1] != 0:
            return None
    return [aug[i][-1] for i in range(k)]


def enumerate_basic_points(lp: LinearProgram) -> list[tuple[Fraction, ...]]:
    """All nonnegative basic solutions of ``A x = b`` by subset enumeration."""
    m = len(lp.rhs)
    n = len(lp.objective)
    found: set[tuple[Fraction, ...]] = set()
    for k in range(min(m, n) + 1):
        for cols in itertools.combinations(range(n), k):
            sub = [[lp.matrix[i][j] for j in cols] for i in range(m)]
            sol = _solve_unique(sub, lp.rhs)
            if sol is None:
                continue
            x = [ZERO] * n
            for idx, j in enumerate(cols):
                x[j] = sol[idx]
            if all(v >= 0 for v in x):
                found.add(tuple(x))
    return sorted(found)


def lp_oracle(lp: LinearProgram) -> tuple[bool, Optional[Fraction]]:
    """(feasible, best basic objective value) by enumeration.

    The value is the optimum whenever the program is bounded; unbounded
    programs are recognized separately through the solver's ray
    certificate.
    """
    points = enumerate_basic_points(lp)
    if not points:
        return False, None
    values = [
        sum((c * x for c, x in zip(lp.objective, p)), ZERO) for p in points
    ]
    return True, (min(values) if lp.sense is Sense.MIN else max(values))


# ---------------------------------------------------------------------------
# suite plumbing
# ---------------------------------------------------------------------------


@dataclass
class LawReport:
    """Outcome of one suite run."""

    name: str
    cases: int
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def line(self) -> str:
        if self.passed:
            return f"PASS {self.name} ({self.cases} cases)"
        head = self.failures[0]
        more = f" [+{len(self.failures) - 1} more]" if len(self.failures) > 1 else ""
        return f"FAIL {self.name} ({self.cases} cases): {head}{more}"


def _rng_for(seed: int, name: str) -> random.Random:
    # string seeding hashes via sha512, stable across runs and processes
    return random.Random(f"{seed}:{name}")


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite_monad_laws(rng: random.Random, cases: int) -> list[str]:
    failures = []
    for i in range(cases):
        sx = rand_space(rng, "A")
        sy = rand_space(rng, "B")
        sz = rand_space(rng, "C")
        sw = rand_space(rng, "D")
        f = rand_kernel(rng, sx, sy)
        g = rand_kernel(rng, sy, sz)
        h = rand_kernel(rng, sz, sw)
        if compose(h, compose(g, f)) != compose(compose(h, g), f):
            failures.append(f"case {i}: composition is not associative")
        if compose(f, identity_kernel(sx)) != f:
            failures.append(f"case {i}: right unit law broken")
        if compose(identity_kernel(sy), f) != f:
            failures.append(f"case {i}: left unit law broken")
    return failures


def _has_underlying_function(kernel: Kernel) -> bool:
    """Brute-force search for a point function inducing the kernel."""
    diracs = {y: Dist.dirac(kernel.target, y) for y in kernel.target.points}
    return any(
        all(
            kernel.row(x) == diracs[y]
            for x, y in zip(kernel.source.points, assignment)
        )
        for assignment in itertools.product(
            kernel.target.points, repeat=len(kernel.source)
        )
    )


def _suite_determinism(rng: random.Random, cases: int) -> list[str]:
    failures = []
    for i in range(cases):
        sx = rand_space(rng, "A", max_size=4)
        sy = rand_space(rng, "B", max_size=4)
        fn = rand_point_function(rng, sx, sy)
        embedded = deterministic_kernel(fn)
        if extract_point_function(embedded) != fn:
            failures.append(f"case {i}: function does not round-trip")
        for tag, kernel in (("embedded", embedded), ("random", rand_kernel(rng, sx, sy))):
            if is_deterministic(kernel) != _has_underlying_function(kernel):
                failures.append(
                    f"case {i}: determinism test disagrees with brute force "
                    f"on the {tag} kernel"
                )
    return failures


def _suite_adjunction(rng: random.Random, cases: int) -> list[str]:
    failures = []
    for i in range(cases):
        sx = rand_space(rng, "A", max_size=4)
        sy = rand_space(rng, "B", max_size=4)
        f = rand_kernel(rng, sx, sy)
        g = rand_predicate(rng, sx)
        for regime in (Regime.COUNTABLE, Regime.LP):
            broken = check_adjunction_bounds(f, g, regime)
            if broken:
                failures.append(f"case {i} ({regime.value}): " + "; ".join(broken))
    return failures


def _suite_galois(rng: random.Random, cases: int) -> list[str]:
    failures = []
    for i in range(cases):
        sx = rand_space(rng, "A", max_size=4)
        sy = rand_space(rng, "B", max_size=4)
        f = rand_kernel(rng, sx, sy)
        g = rand_predicate(rng, sx)
        h = LiftedPredicate(rand_predicate(rng, sy))
        probes = [f.row(x) for x in sx.points]
        probes += [rand_dist(rng, sy) for _ in range(2)]
        report = check_galois(f, g, h, probes)
        if not report.ok:
            failures.append(
                f"case {i}: equivalence broken "
                f"(exists {report.exists_premise}/{report.exists_conclusion}, "
                f"forall {report.forall_premise}/{report.forall_conclusion})"
            )
    # crafted falsifiers: both sides of an equivalence must fail together
    for i in range(max(20, cases // 10)):
        sx = rand_space(rng, "A", max_size=4)
        sy = rand_space(rng, "B", max_size=4)
        f = rand_kernel(rng, sx, sy)
        probes = [f.row(x) for x in sx.points]
        x0 = rng.choice(sx.points)
        # existential direction: predicate 1 at x0 but h strictly below 1
        values = [rand_fraction(rng) for _ in sx.points]
        values[sx.index(x0)] = Fraction(1)
        g = Predicate(sx, tuple(values))
        below_one = Fraction(rng.randint(0, 4), 5)
        report = check_galois(
            f, g, LiftedPredicate(Predicate.constant(sy, below_one)), probes
        )
        if report.exists_premise or report.exists_conclusion or not report.ok:
            failures.append(f"crafted exists case {i}: sides did not fail together")
        # universal direction: predicate 0 at x0 but h strictly above 0
        values = [rand_fraction(rng) for _ in sx.points]
        values[sx.index(x0)] = Fraction(0)
        g = Predicate(sx, tuple(values))
        above_zero = Fraction(rng.randint(1, 5), 5)
        report = check_galois(
            f, g, LiftedPredicate(Predicate.constant(sy, above_zero)), probes
        )
        if report.forall_premise or report.forall_conclusion or not report.ok:
            failures.append(f"crafted forall case {i}: sides did not fail together")
    return failures


def _suite_composites(rng: random.Random, cases: int) -> list[str]:
    failures = []
    for i in range(cases):
        sx = rand_space(rng, "A", max_size=4)
        sy = rand_space(rng, "B", max_size=4)
        sz = rand_space(rng, "C", max_size=4)
        inner = rand_kernel(rng, sx, sy)
        outer = rand_kernel(rng, sy, sz)
        pred = rand_predicate(rng, sx)
        queries = list(dict.fromkeys(compose(outer, inner).rows)) + [rand_dist(rng, sz)]
        for q in queries:
            for sense, tag in ((Sense.MAX, "exists"), (Sense.MIN, "forall")):
                _, failure = check_composite(inner, outer, pred, q, sense)
                if failure is not None:
                    failures.append(f"case {i}: staged {tag} {failure} at {q}")
    return failures


def _suite_continuity(rng: random.Random, cases: int) -> list[str]:
    failures = []
    for i in range(cases):
        sx = rand_space(rng, "A")
        sy = rand_space(rng, "B")
        f = rand_kernel(rng, sx, sy)
        p = rand_dist(rng, sx)
        p2 = rand_dist(rng, sx)
        apply_f = lift(f)
        if tv_metric(apply_f(p), apply_f(p2)) > tv_metric(p, p2):
            failures.append(f"case {i}: lifted map expanded the metric")
        if 2 * tv_metric(p, p2) != tv_norm(p - p2):
            failures.append(f"case {i}: metric is not half the variation norm")
    for i in range(max(20, cases // 20)):
        # the first oracle case always exercises the largest space
        size = 12 if i == 0 else rng.randint(1, 12)
        space = rand_space(rng, "E", min_size=size, max_size=size)
        p = rand_dist(rng, space)
        q = rand_dist(rng, space)
        if tv_metric(p, q) != tv_oracle(p, q):
            failures.append(f"oracle case {i}: metric disagrees with enumeration")
    return failures


def rand_lp(rng: random.Random) -> LinearProgram:
    """A program with 1-4 rows and 1-6 columns of small rational entries."""
    m = rng.randint(1, 4)
    n = rng.randint(1, 6)
    entry = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return LinearProgram(
        objective=tuple(entry() for _ in range(n)),
        matrix=tuple(tuple(entry() for _ in range(n)) for _ in range(m)),
        rhs=tuple(entry() for _ in range(m)),
        sense=rng.choice((Sense.MIN, Sense.MAX)),
    )


def _pivot_budget(lp: LinearProgram) -> int:
    m = len(lp.rhs)
    n = len(lp.objective)
    return comb(n + m, m) + comb(n, min(m, n)) + m


def _check_lp_against_oracle(lp: LinearProgram, solution: LpSolution, label: str) -> list[str]:
    failures = []
    feasible, best = lp_oracle(lp)
    if solution.pivots > _pivot_budget(lp):
        failures.append(f"{label}: pivot count {solution.pivots} exceeds basis bound")
    if solution.status is LpStatus.INFEASIBLE:
        if feasible:
            failures.append(f"{label}: solver infeasible, oracle found a point")
    elif solution.status is LpStatus.OPTIMAL:
        if not feasible or solution.value != best:
            failures.append(
                f"{label}: optimal value {solution.value} != oracle {best}"
            )
        point = solution.point
        for row, b in zip(lp.matrix, lp.rhs):
            if sum((a * x for a, x in zip(row, point)), ZERO) != b:
                failures.append(f"{label}: returned point violates a constraint")
        if any(x < 0 for x in point):
            failures.append(f"{label}: returned point has a negative entry")
    else:
        ray = solution.ray
        if not feasible:
            failures.append(f"{label}: unbounded claim on an infeasible program")
        if any(r < 0 for r in ray) or all(r == 0 for r in ray):
            failures.append(f"{label}: ray is not a nonzero nonnegative direction")
        for row in lp.matrix:
            if sum((a * r for a, r in zip(row, ray)), ZERO) != 0:
                failures.append(f"{label}: ray leaves the constraint surface")
        gain = sum((c * r for c, r in zip(lp.objective, ray)), ZERO)
        if (lp.sense is Sense.MIN and gain >= 0) or (
            lp.sense is Sense.MAX and gain <= 0
        ):
            failures.append(f"{label}: ray does not improve the objective")
    return failures


def _suite_lp_oracle(rng: random.Random, cases: int) -> list[str]:
    failures = []
    for i in range(cases):
        lp = rand_lp(rng)
        a = lp_solve(lp)
        failures += _check_lp_against_oracle(lp, a, f"case {i}")
        # minimizing c agrees with the negated maximization exactly
        flipped = LinearProgram(
            objective=tuple(-c for c in lp.objective),
            matrix=lp.matrix,
            rhs=lp.rhs,
            sense=Sense.MAX if lp.sense is Sense.MIN else Sense.MIN,
        )
        b = lp_solve(flipped)
        if a.status != b.status:
            failures.append(f"case {i}: negation changed the status")
        elif a.status is LpStatus.OPTIMAL and a.value != -b.value:
            failures.append(f"case {i}: negation changed the value")
    return failures


def _suite_metric_axioms(rng: random.Random, cases: int) -> list[str]:
    failures = []
    for i in range(cases):
        space = rand_space(rng, "A", max_size=6)
        p, q, r = (rand_dist(rng, space) for _ in range(3))
        if tv_metric(p, q) != tv_metric(q, p):
            failures.append(f"case {i}: metric is not symmetric")
        if (tv_metric(p, q) == 0) != (p == q):
            failures.append(f"case {i}: metric separates the wrong pairs")
        if tv_metric(p, r) > tv_metric(p, q) + tv_metric(q, r):
            failures.append(f"case {i}: triangle inequality broken")
        blend = rng.randint(0, 4)
        mixed = FinSuppMeasure(
            [p, q] if p != q else [p],
            [Fraction(blend, 4), Fraction(4 - blend, 4)] if p != q else [Fraction(1)],
        )
        blended = tuple(
            Fraction(blend, 4) * a + Fraction(4 - blend, 4) * b
            for a, b in zip(p.weights, q.weights)
        )
        if mixture(mixed).weights != blended:
            failures.append(f"case {i}: mixture is not the pointwise blend")
    return failures


def _pointwise_min(a: Predicate, b: Predicate) -> Predicate:
    return Predicate(a.space, tuple(min(x, y) for x, y in zip(a.values, b.values)))


def _suite_predicate_order(rng: random.Random, cases: int) -> list[str]:
    failures = []
    for i in range(cases):
        space = rand_space(rng, "A")
        a = rand_predicate(rng, space)
        b = rand_predicate(rng, space)
        c = rand_predicate(rng, space)
        low = _pointwise_min(a, b)
        lower = _pointwise_min(low, c)
        if not entails(a, a):
            failures.append(f"case {i}: order is not reflexive")
        if entails(a, b) and entails(b, a) and a != b:
            failures.append(f"case {i}: order is not antisymmetric")
        if not (entails(lower, low) and entails(low, a) and entails(lower, a)):
            failures.append(f"case {i}: order is not transitive on a chain")
        # substitution preserves the order of lifted predicates
        sy = rand_space(rng, "B")
        f = rand_kernel(rng, sy, space)
        if not entails(
            substitute(LiftedPredicate(low), f), substitute(LiftedPredicate(a), f)
        ):
            failures.append(f"case {i}: substitution is not monotone")
        # expectation is affine in the measure
        spread = rand_finsupp_over_dists(rng, space)
        direct = expectation(a, mixture(spread))
        averaged = sum((w * expectation(a, d) for d, w in spread), ZERO)
        if direct != averaged:
            failures.append(f"case {i}: expectation is not affine")
        lifted_value = LiftedPredicate(a)(rand_dist(rng, space))
        if lifted_value < 0 or lifted_value > 1:
            failures.append(f"case {i}: lifted value escaped the unit interval")
    return failures


def _suite_quantifier_order(rng: random.Random, cases: int) -> list[str]:
    failures = []
    for i in range(cases):
        sx = rand_space(rng, "A", max_size=4)
        sy = rand_space(rng, "B", max_size=4)
        f = rand_kernel(rng, sx, sy)
        g = rand_predicate(rng, sx)
        smaller = _pointwise_min(g, rand_predicate(rng, sx))
        queries = [f.row(x) for x in sx.points] + [rand_dist(rng, sy)]
        for regime in (Regime.COUNTABLE, Regime.LP):
            for q in queries:
                exi = exists_at(f, g, q, regime)
                uni = forall_at(f, g, q, regime)
                if exi.feasible and uni.value > exi.value:
                    failures.append(
                        f"case {i} ({regime.value}): universal exceeds existential"
                    )
                if exists_at(f, smaller, q, regime).value > exi.value:
                    failures.append(
                        f"case {i} ({regime.value}): existential is not monotone"
                    )
                if forall_at(f, smaller, q, regime).value > uni.value:
                    failures.append(
                        f"case {i} ({regime.value}): universal is not monotone"
                    )
        # regimes agree at point-mass queries of an embedded function
        fn = rand_point_function(rng, sx, sy)
        embedded = deterministic_kernel(fn)
        for y in sy.points:
            q = Dist.dirac(sy, y)
            if (
                exists_fiber(embedded, g, q).value
                != exists_lifted(embedded, g, q).value
                or forall_fiber(embedded, g, q).value
                != forall_lifted(embedded, g, q).value
            ):
                failures.append(f"case {i}: regimes disagree at point mass {y}")
        # universal and existential are exchanged by complementing
        flipped = Predicate(sx, tuple(1 - v for v in g.values))
        q = rand_dist(rng, sy)
        if forall_lifted(f, g, q).value != 1 - exists_lifted(f, flipped, q).value:
            failures.append(f"case {i}: complement duality broken")
    return failures


def _suite_lift_linearity(rng: random.Random, cases: int) -> list[str]:
    failures = []
    for i in range(cases):
        sx = rand_space(rng, "A")
        sy = rand_space(rng, "B")
        f = rand_kernel(rng, sx, sy)
        apply_f = lift(f)
        p = rand_dist(rng, sx)
        if apply_f(p) != mixture(image_measure(f, p)):
            failures.append(f"case {i}: lift disagrees with spread-then-mix")
        spread = rand_finsupp_over_dists(rng, sx)
        if apply_f(mixture(spread)) != mixture(spread.map(apply_f)):
            failures.append(f"case {i}: lift is not linear over mixtures")
    return failures


SUITES: dict[str, Callable[[random.Random, int], list[str]]] = {
    "monad_laws": _suite_monad_laws,
    "determinism": _suite_determinism,
    "adjunction": _suite_adjunction,
    "galois": _suite_galois,
    "composites": _suite_composites,
    "continuity": _suite_continuity,
    "lp_oracle": _suite_lp_oracle,
    "metric_axioms": _suite_metric_axioms,
    "predicate_order": _suite_predicate_order,
    "quantifier_order": _suite_quantifier_order,
    "lift_linearity": _suite_lift_linearity,
}


def run_suite(name: str, seed: int = 0, cases: int = DEFAULT_CASES) -> LawReport:
    """Run one named suite with a seed-derived generator."""
    if name not in SUITES:
        raise KeyError(f"unknown law suite: {name!r}")
    failures = SUITES[name](_rng_for(seed, name), cases)
    return LawReport(name=name, cases=cases, failures=failures)


def run_suites(
    names: Optional[Sequence[str]] = None, seed: int = 0, cases: int = DEFAULT_CASES
) -> list[LawReport]:
    """Run the named suites (all of them by default), in registry order."""
    selected = list(SUITES) if names is None else list(names)
    return [run_suite(name, seed=seed, cases=cases) for name in selected]
