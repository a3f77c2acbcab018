"""Probabilistic predicates, entailment, and predicates on the simplex.

A predicate assigns a truth value in [0, 1] to each point of a finite
space.  Entailment is the pointwise order.  Predicates on the simplex of
distributions come in three kinds.  Two have a document form: the
expectation lift of a base predicate, and a finite probe table with an
explicit default.  The third is a quantifier along a kernel,
:class:`~giryq.quantifiers.QuantifiedPredicate`, which has none and lives
with the quantifiers.  :func:`substitute` takes any of the three: it reads
only ``.space`` and evaluation at a distribution.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING, Union

from .errors import DuplicateAtomError, ValueOutOfRangeError
from .kernels import Kernel
from .measures import (
    Dist, FiniteSpace, _as_fractions, _cleared, _per_point, _quoted, _same_space,
)

if TYPE_CHECKING:  # quantifiers imports this module
    from .quantifiers import QuantifiedPredicate


def _check_unit_interval(value: Fraction, what: str, *args: object) -> None:
    """Refuse a value outside [0, 1]; ``what.format(*args)`` names it, built only on failure."""
    if value < 0 or value > 1:
        raise ValueOutOfRangeError(f"{what.format(*args)} lies outside [0, 1]: {value}")


@dataclass(frozen=True)
class Predicate:
    """A [0, 1]-valued map on a finite space, one rational per point.

    ``_form`` is the values' integer form ``(numerators, d)`` (see
    :mod:`giryq.measures`), built with the predicate; a value lies in
    [0, 1] exactly when its numerator lies in ``[0, d]``.
    """

    space: FiniteSpace
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _per_point(self.values, self.space, "values"))
        numerators, d = _cleared(self.values)
        for label, n, v in zip(self.space.points, numerators, self.values):
            if not 0 <= n <= d:
                raise ValueOutOfRangeError(f"value at {_quoted(label)} lies outside [0, 1]: {v}")
        object.__setattr__(self, "_form", (tuple(numerators), d))

    @classmethod
    def constant(cls, space: FiniteSpace, value: Fraction | int) -> "Predicate":
        return cls(space, (value,) * len(space))

    def value_at(self, label: str) -> Fraction:
        return self.values[self.space.index(label)]


def entails(lower: Predicate, upper: Predicate) -> bool:
    """Pointwise order: ``lower(x) <= upper(x)`` at every point.

    Read as "``upper`` is at least as true as ``lower``".
    """
    _same_space("lower predicate lives on", lower.space, "the upper lives on", upper.space)
    return all(a <= b for a, b in zip(lower.values, upper.values))


def expectation(pred: Predicate, dist: Dist) -> Fraction:
    """Expected truth value of a predicate under a distribution.

    One integer sum of the two integer forms' products, divided once by
    the product of their denominators.
    """
    _same_space("predicate lives on", pred.space, "the distribution lives on", dist.space)
    (v, d), (w, e) = pred._form, dist._form
    return Fraction(sum(map(mul, v, w)), d * e)


@dataclass(frozen=True)
class LiftedPredicate:
    """The expectation lift of a base predicate to the simplex.

    Evaluation at a distribution is the expectation of the base predicate,
    so values stay in [0, 1] by convexity.
    """

    base: Predicate

    @property
    def space(self) -> FiniteSpace:
        return self.base.space

    def __call__(self, dist: Dist) -> Fraction:
        return expectation(self.base, dist)


@dataclass(frozen=True)
class TableSimplexPredicate:
    """A simplex predicate given by a finite probe table plus a default.

    Evaluation looks the query distribution up among the probes (exact
    equality) and falls back to the explicit default elsewhere.  The
    default is mandatory: which constant extension is appropriate depends
    on the use, so it is never implied.
    """

    space: FiniteSpace
    entries: tuple[tuple[Dist, Fraction], ...]
    default: Fraction

    def __post_init__(self) -> None:
        probes = [d for d, _ in self.entries]
        values = _as_fractions(v for _, v in self.entries)
        object.__setattr__(self, "entries", tuple(zip(probes, values)))
        (default,) = _as_fractions((self.default,))
        object.__setattr__(self, "default", default)
        if len(set(probes)) != len(probes):
            raise DuplicateAtomError("probe table lists a distribution twice")
        for d, v in self.entries:
            if d.space != self.space:  # the probe is formatted only on failure
                _same_space(f"probe {d} lives on", d.space, "the table lives on", self.space)
            _check_unit_interval(v, "table value at {}", d)
        _check_unit_interval(self.default, "table default")

    def __call__(self, dist: Dist) -> Fraction:
        for probe, value in self.entries:
            if probe == dist:
                return value
        return self.default


# the simplex predicates a scenario document can write down
SimplexPredicate = Union[LiftedPredicate, TableSimplexPredicate]


def substitute(h: SimplexPredicate | QuantifiedPredicate, kernel: Kernel) -> Predicate:
    """Pull a simplex predicate back along a kernel.

    The result evaluates ``h`` at each row distribution of the kernel:
    ``x -> h(kernel(x))``.  For a
    :class:`~giryq.quantifiers.QuantifiedPredicate` along ``kernel`` that
    is the quantifier at each row image, the bound that the unit and
    counit laws compare with the predicate.
    """
    _same_space("simplex predicate lives on", h.space, "the kernel lands in", kernel.target)
    return Predicate(kernel.source, tuple(h(row) for row in kernel.rows))
