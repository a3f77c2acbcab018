"""Probabilistic existential and universal quantifiers along a kernel.

Both quantifiers optimize a predicate over the fiber of a query
distribution, in opposite directions.  One core, :func:`quantify`, serves
both, keyed by the LP sense:

========  =====  ===================================  =================
quantity  sense  a candidate replaces the best if it  empty-fiber value
========  =====  ===================================  =================
exists    MAX    is strictly larger (ties: first)     0
forall    MIN    is strictly smaller (ties: first)    1
========  =====  ===================================  =================

The regime picks the fiber:

* COUNTABLE scans the source points whose row equals the query exactly;
  the witness is a point label.  The query is looked up once in the
  kernel's row -> class dict, and the scan reads the class of each point
  (:attr:`~giryq.kernels.Kernel.row_partition`), in declaration order;
* LP quantifies along the lifted kernel, whose fibers are polytopes, so
  the optimum is an exact linear program; the witness is a distribution,
  and it is certified exactly (it maps onto the query and its expectation
  is the value) before it is returned.

The LP regime's programs over one fiber differ only in sense and
predicate, and simplex phase 1 reads neither.  The fiber's constraints
(:class:`~giryq.lp.Constraints`) are kept for the last 32 distinct
``(kernel, query)`` pairs, so both quantifiers over one fiber, for any
predicate, solve phase 1 once and share it.  Each answer is the one a
fresh solve gives, pivot count included.

Both COUNTABLE optima, over one fiber and along a composite, are decided
on the predicate's integer numerators (``Predicate._form``), which share
one positive denominator and so order and tie as its values do.  One
routine, :func:`_best_per_key`, scans ``(numerator, point index)``
candidates for both; the winning index is read back as its value and
label once, at the end.

The named ``exists_*``/``forall_*`` functions are one-line entries into
the core.  ``exists_composite``/``forall_composite`` call
:func:`_composite`, which nests through row classes, image measures and
mixtures, merging with the same routine and empty-fiber values.
:func:`check_composite`, which the CLI and the ``composites`` suite call,
checks a staged answer against the quantifier along ``compose(outer,
inner)``.  One memo, :func:`_pair`, keeps for the last 4 ``(inner,
outer)`` pairs both parts that read neither predicate nor sense: stages 2
and 3 of the chain and the composed kernel, neither built from the other.
Kernels keep their hashes, so a memo lookup hashes no row.

Read as a function of the query, a quantifier is a predicate on the
simplex over the kernel's target, :class:`QuantifiedPredicate`, and its
laws are the adjunction with :func:`~giryq.predicates.substitute`:
``check_adjunction_bounds`` checks the unit ``p <= substitute(exists p,
K)`` and the counit ``substitute(forall p, K) <= p``, and
``check_galois`` both Galois equivalences over a probe set.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count
from operator import gt, lt
from typing import Hashable, Iterable, Optional, Sequence, Union

from .errors import CertificateError, ProbeSetIncompleteError
from .kernels import Kernel, compose, image_measure, lift, mixture
from .lp import Constraints, LinearProgram, LpStatus, Sense, lp_solve
from .measures import ONE, ZERO, Dist, FinSuppMeasure, FiniteSpace, _same_space
from .predicates import Predicate, SimplexPredicate, entails, expectation, substitute


class Regime(enum.Enum):
    COUNTABLE = "COUNTABLE"
    LP = "LP"


@dataclass(frozen=True)
class QuantifierResult:
    """Value of a quantifier at one query distribution.

    ``witness`` is the fiber element achieving the value: a source point
    label in the fiber regime, a distribution over source points in the
    lifted regime, or None when the query is unreachable and the extension
    convention supplied the value (``feasible`` False).
    """

    value: Fraction
    witness: Union[str, Dist, None]
    regime: Regime
    feasible: bool


# value over an empty fiber: an existential over nothing is 0, a universal 1
_EMPTY_VALUE = {Sense.MAX: ZERO, Sense.MIN: ONE}


def _result(best: Optional[tuple], sense: Sense, regime: Regime) -> QuantifierResult:
    """The optimum ``(value, witness)``, or the extension value if the fiber is empty."""
    if best is None:
        return QuantifierResult(_EMPTY_VALUE[sense], None, regime, False)
    return QuantifierResult(*best, regime, True)


def _best_per_key(
    sense: Sense, entries: Iterable[tuple[Hashable, tuple[int, int]]]
) -> dict[Hashable, tuple[int, int]]:
    """Keep, per key, the best ``(numerator, index)`` in ``sense``; ties keep the first.

    The numerators are a predicate's, over its one positive denominator
    (``Predicate._form``), so they order and tie as its values do.
    """
    better = gt if sense is Sense.MAX else lt
    table: dict[Hashable, tuple[int, int]] = {}
    for key, best in entries:
        if key not in table or better(best[0], table[key][0]):
            table[key] = best
    return table


def _read_back(
    best: Optional[tuple[int, int]], pred: Predicate, kernel: Kernel
) -> Optional[tuple[Fraction, str]]:
    """The winning ``(numerator, index)`` as ``(value, point label)``."""
    return None if best is None else (pred.values[best[1]], kernel.source.points[best[1]])


@lru_cache(maxsize=32)
def _lifted_constraints(kernel: Kernel, query: Dist) -> Constraints:
    """The fiber of ``query`` as constraints: one equality per target point,
    the mixture of rows must hit the query.  Total mass 1 is implied
    because every matrix column sums to 1.

    Kept for the last 32 ``(kernel, query)`` pairs, so programs over one
    fiber, in either sense and for any predicate, share their phase 1.
    """
    matrix = tuple(
        tuple(row.weights[j] for row in kernel.rows) for j in range(len(kernel.target))
    )
    return Constraints(len(kernel.source), matrix, query.weights)


def _lifted_program(kernel: Kernel, pred: Predicate, query: Dist, sense: Sense) -> LinearProgram:
    constraints = _lifted_constraints(kernel, query)
    return LinearProgram(
        objective=tuple(pred.values),
        matrix=constraints.matrix,
        rhs=constraints.rhs,
        sense=sense,
        constraints=constraints,
    )


def quantify(
    kernel: Kernel, pred: Predicate, query: Dist, sense: Sense, regime: Regime
) -> QuantifierResult:
    """The quantifier core: optimize the predicate over the fiber of ``query``.

    ``sense`` MAX is the existential, MIN the universal.  The COUNTABLE
    regime scans the source points whose row equals the query, ties going
    to the first in declaration order; the LP regime solves over the fiber
    polytope and checks the certificate exactly.  An empty fiber yields
    the sense's extension value with ``feasible`` False.
    """
    _same_space("predicate lives on", pred.space, "the kernel starts at", kernel.source)
    _same_space("query lives on", query.space, "the kernel lands in", kernel.target)
    if regime is Regime.COUNTABLE:
        best = None
        c = kernel._class_of.get(query)
        if c is not None:
            numerators = pred._form[0]
            fiber = compress(count(), map(c.__eq__, kernel.row_partition[0]))
            best = _best_per_key(sense, ((c, (numerators[i], i)) for i in fiber))[c]
        return _result(_read_back(best, pred, kernel), sense, regime)
    solution = lp_solve(_lifted_program(kernel, pred, query, sense))
    if solution.status is LpStatus.INFEASIBLE:
        return _result(None, sense, regime)
    # the feasible set sits inside the probability simplex, so the program
    # can never be unbounded
    if solution.status is not LpStatus.OPTIMAL:
        raise CertificateError(f"fiber program reported {solution.status.value}")
    witness = Dist(kernel.source, solution.point)
    if lift(kernel)(witness) != query:
        raise CertificateError(f"witness {witness} does not map onto the query {query}")
    if expectation(pred, witness) != solution.value:
        raise CertificateError(f"value {solution.value} is not the expectation at {witness}")
    return _result((solution.value, witness), sense, regime)


def exists_fiber(kernel: Kernel, pred: Predicate, query: Dist) -> QuantifierResult:
    """Existential over the exact fiber: the largest predicate value among
    source points whose row equals the query.

    An empty fiber yields 0 with ``feasible`` False.  Ties go to the first
    maximizing point in declaration order.
    """
    return quantify(kernel, pred, query, Sense.MAX, Regime.COUNTABLE)


def forall_fiber(kernel: Kernel, pred: Predicate, query: Dist) -> QuantifierResult:
    """Universal over the exact fiber; an empty fiber yields 1."""
    return quantify(kernel, pred, query, Sense.MIN, Regime.COUNTABLE)


def exists_lifted(kernel: Kernel, pred: Predicate, query: Dist) -> QuantifierResult:
    """Existential along the lifted kernel: the maximum expectation of the
    predicate over all source distributions that the kernel maps onto the
    query.  Unreachable queries yield 0 with ``feasible`` False.
    """
    return quantify(kernel, pred, query, Sense.MAX, Regime.LP)


def forall_lifted(kernel: Kernel, pred: Predicate, query: Dist) -> QuantifierResult:
    """Universal along the lifted kernel: the minimum expectation over the
    same fiber polytope.  Unreachable queries yield 1.
    """
    return quantify(kernel, pred, query, Sense.MIN, Regime.LP)


def exists_at(
    kernel: Kernel, pred: Predicate, query: Dist, regime: Regime
) -> QuantifierResult:
    return quantify(kernel, pred, query, Sense.MAX, regime)


def forall_at(
    kernel: Kernel, pred: Predicate, query: Dist, regime: Regime
) -> QuantifierResult:
    return quantify(kernel, pred, query, Sense.MIN, regime)


@dataclass(frozen=True)
class QuantifiedPredicate:
    """A quantifier along ``kernel`` as a predicate on the simplex over its target.

    Evaluated at a distribution ``q`` it is ``quantify(kernel, pred, q,
    sense, regime).value``: the existential for MAX, the universal for MIN,
    and the extension value at a ``q`` outside the image.
    """

    kernel: Kernel
    pred: Predicate
    sense: Sense
    regime: Regime

    @property
    def space(self) -> FiniteSpace:
        return self.kernel.target

    def __call__(self, query: Dist) -> Fraction:
        return quantify(self.kernel, self.pred, query, self.sense, self.regime).value


def check_adjunction_bounds(kernel: Kernel, pred: Predicate, regime: Regime) -> list[str]:
    """Check the unit ``pred <= substitute(exists pred, kernel)`` and the
    counit ``substitute(forall pred, kernel) <= pred`` pointwise.

    Returns one line per violated bound, the unit's first at each point;
    an empty list means both laws hold.
    """
    upper = substitute(QuantifiedPredicate(kernel, pred, Sense.MAX, regime), kernel)
    lower = substitute(QuantifiedPredicate(kernel, pred, Sense.MIN, regime), kernel)
    failures = []
    for x, p, e, a in zip(kernel.source.points, pred.values, upper.values, lower.values):
        if p > e:
            failures.append(f"{x}: predicate {p} exceeds existential bound {e}")
        if a > p:
            failures.append(f"{x}: universal bound {a} exceeds predicate {p}")
    return failures


@dataclass(frozen=True)
class GaloisReport:
    """Both Galois equivalences over a probe set.

    The existential direction compares ``pred <= pullback of h`` with
    ``existential <= h`` at every probe; the universal direction compares
    ``pullback of h <= pred`` with ``h <= universal`` at every probe.
    Each side of each equivalence is reported so a failure is attributable.
    """

    exists_premise: bool
    exists_conclusion: bool
    forall_premise: bool
    forall_conclusion: bool

    @property
    def ok(self) -> bool:
        return (self.exists_premise == self.exists_conclusion
                and self.forall_premise == self.forall_conclusion)


def check_galois(
    kernel: Kernel,
    pred: Predicate,
    h: SimplexPredicate,
    probes: Sequence[Dist],
) -> GaloisReport:
    """Check both adjunction equivalences over a finite probe set.

    The probe set must contain every row of the kernel (its image);
    off-image probes are harmless because the extension conventions make
    the existential 0 and the universal 1 there.
    """
    probes = list(probes)
    for x, row in zip(kernel.source.points, kernel.rows):
        if row not in probes:
            raise ProbeSetIncompleteError(f"probe set misses the image of {x!r}: {row}")
    pullback = substitute(h, kernel)
    exists = QuantifiedPredicate(kernel, pred, Sense.MAX, Regime.COUNTABLE)
    forall = QuantifiedPredicate(kernel, pred, Sense.MIN, Regime.COUNTABLE)
    return GaloisReport(
        exists_premise=entails(pred, pullback),
        exists_conclusion=all(exists(q) <= h(q) for q in probes),
        forall_premise=entails(pullback, pred),
        forall_conclusion=all(h(q) <= forall(q) for q in probes),
    )


@lru_cache(maxsize=4)
def _pair(inner: Kernel, outer: Kernel) -> tuple[tuple[tuple[FinSuppMeasure, Dist], ...], Kernel]:
    """``(stages, compose(outer, inner))``, kept for the last 4 pairs.

    ``stages`` holds, per row class of ``inner`` in class order, the
    :func:`image_measure` of its representative along ``outer`` and that
    measure's :func:`mixture`.  Neither part reads a predicate or a sense,
    nor is built from the other.  All three functions are looked up at
    call time, so a rebound one is called.
    """
    stages = tuple(
        (spread, mixture(spread))
        for spread in (image_measure(outer, rep) for rep in inner.row_partition[1])
    )
    return stages, compose(outer, inner)


def _composite(
    inner: Kernel, outer: Kernel, pred: Predicate, query: Dist, sense: Sense
) -> QuantifierResult:
    """Nest a quantifier through the chain point -> row -> spread -> mixture.

    Each stage rekeys the table before it and keeps the best ``(numerator,
    index)`` per new key (:func:`_best_per_key`): 1. the fiber table, each
    row class of ``inner`` (:attr:`Kernel.row_partition`) with the best of
    its points by the predicate's numerator, computed per call; 2.
    :func:`image_measure` of the class's row along ``outer``, a finitely
    supported measure over distributions; 3. its :func:`mixture`, a row of
    the composed kernel.  Stages 2 and 3 read neither ``pred`` nor
    ``sense``; their keys come from :func:`_pair`, kept per pair.
    The winner at the query is read back as its value and point label.
    Unreachable intermediate values never arise: off-image points carry the
    extension constant, which can never beat an occupied fiber in the
    direction being optimized, so only reachable intermediates matter.
    """
    _same_space("predicate lives on", pred.space, "the chain starts at", inner.source)
    _same_space("query lives on", query.space, "the chain lands in", outer.target)
    _same_space("inner lands in", inner.target, "outer starts at", outer.source)
    fibers = _best_per_key(sense, zip(inner.row_partition[0], zip(pred._form[0], count())))
    stages = _pair(inner, outer)[0]
    spreads = _best_per_key(sense, ((stages[c], b) for c, b in fibers.items()))
    mixtures = _best_per_key(sense, ((row, b) for (_, row), b in spreads.items()))
    return _result(_read_back(mixtures.get(query), pred, inner), sense, Regime.COUNTABLE)


def exists_composite(
    inner: Kernel, outer: Kernel, pred: Predicate, query: Dist
) -> QuantifierResult:
    """Existential along a two-kernel chain, evaluated by staged nesting.

    Agrees exactly with :func:`exists_fiber` along the composed kernel;
    the staged route exercises the intermediate finitely supported
    measures rather than composing first.
    """
    return _composite(inner, outer, pred, query, Sense.MAX)


def forall_composite(
    inner: Kernel, outer: Kernel, pred: Predicate, query: Dist
) -> QuantifierResult:
    """Universal along a two-kernel chain by the same staged nesting."""
    return _composite(inner, outer, pred, query, Sense.MIN)


def check_composite(
    inner: Kernel, outer: Kernel, pred: Predicate, query: Dist, sense: Sense
) -> tuple[QuantifierResult, Optional[str]]:
    """The staged quantifier, checked against the same one along ``compose(outer, inner)``.

    Returns the staged result and ``None``, or the reason: ``"disagrees with
    direct evaluation"`` (value or feasibility) or ``"witness is not a fiber
    optimizer"``.  Witnesses may differ on ties, so the staged one is tested
    as an optimizer: its composed row is the query and it carries the value.
    """
    staged_fn = exists_composite if sense is Sense.MAX else forall_composite
    direct_fn = exists_fiber if sense is Sense.MAX else forall_fiber
    staged = staged_fn(inner, outer, pred, query)
    composed = _pair(inner, outer)[1]
    direct = direct_fn(composed, pred, query)
    if staged.value != direct.value or staged.feasible != direct.feasible:
        return staged, "disagrees with direct evaluation"
    w = staged.witness
    if staged.feasible and (composed.row(w) != query or pred.value_at(w) != staged.value):
        return staged, "witness is not a fiber optimizer"
    return staged, None
