"""Finite measurable spaces, exact distributions, and the total-variation metric.

Every type with one entry per point (distributions, signed measures,
predicates, kernels, point functions) checks its length in
:func:`_per_point`.  The one typing rule of the Kleisli category, "these
two spaces agree", is checked in :func:`_same_space`: the kernels, the
predicates, the quantifiers, the law oracles and the scenario parser all
call it, and every refusal reads like ``inner lands in 'Y' but outer
starts at 'Z'``.  The probability axioms (every weight >= 0, total
exactly 1) are checked in :func:`_probability`, for :class:`Dist` and
:class:`FinSuppMeasure` alike, and on the integer form: every numerator
is >= 0 and they add up to the common denominator.  A constructor takes
the form from :func:`_cleared` (the one home of the scaling to the lcm of
the denominators, which the LP certificate and the metric oracle also
use); an integer builder has it already.  Only a refusal builds the
``Fraction`` that its message prints.

Numbers cross into exact arithmetic once, in :func:`_as_fractions`: a
``Fraction`` is kept as it is, an ``int`` becomes one, and a string is read
by :func:`parse_rational`.  Anything else, a ``float`` say, is refused with
:class:`RationalFormatError`, as is ``"0.5"``: a float's exact value is a
number the caller never wrote.
:class:`Dist`, :class:`SignedMeasure`, :class:`FinSuppMeasure`, the
predicates and :class:`~giryq.lp.LinearProgram` all store what it
returns.  A :class:`FinSuppMeasure` is a finitely supported measure over
any atoms, such as the rows in a kernel's image measure.

Every number here is exact.  A :class:`Dist`, a :class:`FinSuppMeasure`
and a :class:`~giryq.predicates.Predicate` keep their entries as a tuple
of ``Fraction`` and, beside it, one integer form ``(numerators, d)``: ``d``
is the lcm of the reduced denominators and ``numerators`` are the entries
times ``d``.  The form is not a dataclass field, so ``repr`` and the
document form never show it.  Equal vectors have equal forms, so a
:class:`Dist` compares on it (equality also compares the space) and keeps
``hash(_form)``, computed once when it is built; a
:class:`~giryq.kernels.Kernel` keeps its hash the same way, so a memo
lookup never rehashes rows.  :func:`tv_metric` and
:func:`~giryq.predicates.expectation` sum integers over one common
denominator and divide once.  Mixtures and image measures sum integer
numerators too, and are built from them by the two integer builders,
:func:`_integer_dist` and :func:`_image`: the sums over their
denominator, divided by their gcd with it (:func:`_lowest`), are the
result's form, never derived again from the weights.  A builder keeps that
form alone: the ``weights`` tuple, one ``Fraction(n, d)`` per entry, is
built on its first read (:func:`_weights_on_first_read`) and kept, so a
composition that only keys, hashes and compares its rows builds none.  The
builders run :func:`_probability` on that form, the check the constructors
run.
:func:`combine_rows`, the weighted row sum shared by the kernels and the
LP, takes ``int``, ``Fraction`` or ``float`` entries: integers for the
mixtures and the LP certificate, floats for the LP's guide.

A value never changes after construction: its constructor or builder
fills every derived attribute (a form, a kept hash, a kernel's row
partition), except that a builder's value fills ``weights`` on their first
read.  Every read, from any thread, gives equal weights, since each is
built from the one kept form; two threads that read first may each build
them, and either tuple is kept.  So values are safe to share between
threads.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Any, Callable, Collection, Hashable, Iterable, Sequence

from .errors import (
    DimensionMismatchError,
    DuplicateAtomError,
    MassNotOneError,
    NegativeWeightError,
    RationalFormatError,
    SpaceMismatchError,
)

ZERO = Fraction(0)
ONE = Fraction(1)

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")

# an error message quotes a rejected string, or any other value's repr, up
# to this length, and past it gives only the length, so a huge input cannot
# flood the terminal
_QUOTE_LIMIT = 64


def _quoted(value: Any) -> str:
    """``repr(value)``, or only the length of a string past ``_QUOTE_LIMIT``
    characters, or of another value's ``repr`` past it."""
    if isinstance(value, str):
        if len(value) > _QUOTE_LIMIT:
            return f"one {len(value)} characters long"
        return repr(value)
    text = repr(value)
    if len(text) > _QUOTE_LIMIT:
        return f"a {type(value).__name__} whose repr is {len(text)} characters long"
    return text


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal of the form ``"n"`` or ``"n/d"``.

    Decimal notation is rejected: file formats carry exact rationals only.
    """
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise RationalFormatError(
            f"not a rational literal (expected 'n' or 'n/d'): {_quoted(text)}"
        )
    text = text.strip()
    num, _, den = text.partition("/")
    try:
        n, d = int(num), int(den or "1")
    except ValueError:
        # int() refuses literals longer than sys.get_int_max_str_digits()
        raise RationalFormatError(
            f"rational literal too long ({len(text)} characters)"
        ) from None
    if d == 0:
        raise RationalFormatError(f"zero denominator: {_quoted(text)}")
    return Fraction(n, d)


def format_rational(value: Fraction) -> str:
    """Render a rational as ``"n"`` or ``"n/d"`` (inverse of :func:`parse_rational`).

    A ``Fraction`` is printed as it is; any other rational (an ``int``, say)
    is converted first.
    """
    return str(value if isinstance(value, Fraction) else Fraction(value))


def combine_rows(start: Sequence, pairs: Iterable[tuple[Any, Sequence]]) -> list:
    """``list(start)`` plus the sum of ``w * row`` over the ``(w, row)`` pairs.

    This is the one vector-times-matrix routine: kernel composition, the
    lift, the simplex tableau and the LP certificates all call it.  Zero
    weights and zero row entries are skipped, so a sparse row costs only
    its support.  Entries may be ``int``, ``Fraction`` or ``float``: each
    entry is summed in pair order, so float rounding matches a dense loop
    over the same pairs.  ``start`` is never changed.
    """
    out = list(start)
    for w, row in pairs:
        if w:
            for j, v in enumerate(row):
                if v:
                    out[j] += w * v
    return out


@dataclass(frozen=True)
class FiniteSpace:
    """A named finite measurable space with the power-set sigma-algebra.

    The declaration order of ``points`` is canonical: it fixes matrix layout
    for kernels and tie-breaking for quantifier witnesses.
    """

    name: str
    points: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        if len(set(self.points)) != len(self.points):
            raise DuplicateAtomError(
                f"space {_quoted(self.name)} has repeated point labels"
            )

    def __len__(self) -> int:
        return len(self.points)

    def index(self, label: str) -> int:
        """Position of a point label in declaration order."""
        try:
            return self.points.index(label)
        except ValueError:
            raise KeyError(
                f"{_quoted(label)} is not a point of space {_quoted(self.name)}"
            ) from None

    def __repr__(self) -> str:
        return f"FiniteSpace({self.name!r}, {self.points!r})"


def _as_fractions(values: Iterable[Fraction | int | str]) -> tuple[Fraction, ...]:
    """The one conversion into exact numbers; a ``Fraction`` is kept as it is."""
    return tuple(
        v if isinstance(v, Fraction) else Fraction(v) if isinstance(v, int) else parse_rational(v)
        for v in values
    )


def _same_space(lives: str, got: FiniteSpace, other: str, want: FiniteSpace) -> None:
    """Refuse ``got`` unless it is ``want``, as ``{lives} 'A' but {other} 'B'``."""
    if got is not want and got != want:  # one space object is the common case
        raise SpaceMismatchError(
            f"{lives} {_quoted(got.name)} but {other} {_quoted(want.name)}"
        )


def _cleared(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """``(d * values, d)`` for ``d`` the lcm of the denominators."""
    dens = [v.denominator for v in values]
    d = lcm(*dens)
    return [v.numerator * (d // e) for v, e in zip(values, dens)], d


def _probability(
    labels: Iterable, form: tuple[Sequence[int], int], noun: str, space: FiniteSpace | None = None
) -> None:
    """The weights of integer form ``(numerators, d)`` are >= 0 and sum to
    exactly 1; a failure names the first negative ``noun`` by its label,
    or the ``space`` if one is given."""
    numerators, d = form
    for label, n in zip(labels, numerators):
        if n < 0:
            raise NegativeWeightError(
                f"weight of {noun} {_quoted(label)} is negative: {Fraction(n, d)}"
            )
    total = sum(numerators)
    if total != d:
        on = "" if space is None else f" on space {_quoted(space.name)}"
        raise MassNotOneError(f"weights{on} sum to {Fraction(total, d)}, expected 1")


def _lowest(numerators: Collection[int], d: int) -> tuple[tuple[int, ...], int]:
    """``(numerators, d)`` divided by ``gcd(d, *numerators)``: for ``d > 0``
    this is :func:`_cleared` of the weights ``n / d``, since the lcm of
    their reduced denominators is ``d`` over that gcd."""
    g = gcd(d, *numerators)
    return tuple(n // g for n in numerators), d // g


def _per_point(
    values: Iterable, space: FiniteSpace, noun: str, convert: Callable = _as_fractions
) -> tuple:
    """``convert(values)``, which must hold exactly one entry per point of ``space``."""
    out = convert(values)
    if len(out) != len(space):
        raise DimensionMismatchError(
            f"{len(out)} {noun} for the {len(space)} points of space {_quoted(space.name)}"
        )
    return out


def _weights_on_first_read(self, name: str) -> tuple[Fraction, ...]:
    """``__getattr__`` of :class:`Dist` and :class:`FinSuppMeasure`: a value
    from an integer builder has no ``weights`` until they are first read;
    that read builds them from ``_form``, one ``Fraction(n, d)`` each, and
    keeps them."""
    if name != "weights":
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
    numerators, d = self._form
    weights = tuple(Fraction(n, d) if n else ZERO for n in numerators)
    object.__setattr__(self, "weights", weights)
    return weights


@dataclass(frozen=True)
class Dist:
    """A probability distribution on a :class:`FiniteSpace`.

    Weights are one exact rational per point, each >= 0, summing to exactly 1.
    Two distributions are equal iff they live on the same space and have
    componentwise-equal weights, that is equal integer forms ``_form``.
    ``_hash`` is ``hash(_form)``, kept when the distribution is built.  A
    distribution from :func:`_integer_dist` builds ``weights`` on their
    first read.
    """

    space: FiniteSpace
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        weights = _per_point(self.weights, self.space, "weights")
        object.__setattr__(self, "weights", weights)
        scaled, d = _cleared(weights)
        self._keep((tuple(scaled), d))

    def _keep(self, form: tuple[tuple[int, ...], int]) -> None:
        """Check the weights' form ``(numerators, d)`` and keep the form
        and its hash."""
        _probability(self.space.points, form, "point", self.space)
        object.__setattr__(self, "_form", form)
        # integers alone, so the value does not depend on the process's
        # string-hash seed; equality still compares the space
        object.__setattr__(self, "_hash", hash(form))

    __getattr__ = _weights_on_first_read

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._form == other._form and self.space == other.space

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def dirac(cls, space: FiniteSpace, label: str) -> "Dist":
        """The point mass at ``label``."""
        i = space.index(label)
        return cls(space, tuple(ONE if j == i else ZERO for j in range(len(space))))

    def __sub__(self, other: "Dist") -> "SignedMeasure":
        _same_space("left operand lives on", self.space, "the right lives on", other.space)
        return SignedMeasure(
            self.space,
            tuple(a - b for a, b in zip(self.weights, other.weights)),
        )

    def __str__(self) -> str:
        return "(" + ", ".join(format_rational(w) for w in self.weights) + ")"


@dataclass(frozen=True)
class SignedMeasure:
    """A finite signed measure: one rational weight of any sign per point.

    The difference of two distributions on the same space has total mass 0.
    """

    space: FiniteSpace
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _per_point(self.weights, self.space, "weights"))


def tv_norm(m: SignedMeasure) -> Fraction:
    """Total variation of a signed measure: the sum of absolute weights."""
    return sum((abs(w) for w in m.weights), ZERO)


def tv_metric(r: Dist, q: Dist) -> Fraction:
    """Total-variation distance between two distributions on one space.

    This is the largest deviation ``|r(B) - q(B)|`` over all events ``B``.
    The maximum is attained at the set of points where ``r`` exceeds ``q``,
    so a single pass suffices; it also equals half of ``tv_norm(r - q)``.
    The pass is one integer sum over the common denominator of the two
    integer forms, divided once.
    """
    _same_space("first distribution lives on", r.space, "the second lives on", q.space)
    (a, d), (b, e) = r._form, q._form
    gaps = (m * e - n * d for m, n in zip(a, b))
    return Fraction(sum(g for g in gaps if g > 0), d * e)


class FinSuppMeasure:
    """A finitely supported probability measure over arbitrary hashable atoms.

    Atoms may be point labels or whole :class:`Dist` values (a measure over
    distributions).  Zero-weight atoms are pruned on construction so that
    support equality is well-defined; equality disregards atom order.
    ``_form`` is the weights' integer form, from the mass check.  Equality
    and the hash read ``_pairs``: the set of ``(atom, numerator)`` pairs of
    the form, and its ``d``.  A measure from :func:`_image` builds
    ``weights`` on their first read.
    """

    __slots__ = ("atoms", "weights", "_pairs", "_form")

    atoms: tuple[Hashable, ...]
    weights: tuple[Fraction, ...]

    def __init__(
        self,
        atoms: Sequence[Hashable],
        weights: Sequence[Fraction | int],
    ) -> None:
        atoms = tuple(atoms)
        fw = _as_fractions(weights)
        if len(atoms) != len(fw):
            raise DimensionMismatchError(
                f"{len(atoms)} atoms but {len(fw)} weights"
            )
        if len(set(atoms)) != len(atoms):
            raise DuplicateAtomError("atoms are not pairwise distinct")
        scaled, d = _cleared(fw)
        kept = [i for i, n in enumerate(scaled) if n]
        self.weights = tuple(fw[i] for i in kept)
        # a zero weight has denominator 1, so pruning leaves d the lcm
        self._keep(tuple(atoms[i] for i in kept), (tuple(scaled[i] for i in kept), d))

    def _keep(self, atoms: tuple[Hashable, ...], form: tuple[tuple[int, ...], int]) -> None:
        """Check the weights' form ``(numerators, d)`` and keep the atoms,
        the form and the pairs."""
        _probability(atoms, form, "atom")
        self.atoms = atoms
        self._pairs = (frozenset(zip(atoms, form[0])), form[1])
        self._form = form

    __getattr__ = _weights_on_first_read

    def map(self, fn: Callable[[Hashable], Hashable]) -> "FinSuppMeasure":
        """Image measure under ``fn``; atoms with equal images merge."""
        numerators, d = self._form
        return _image(zip((fn(a) for a in self.atoms), numerators), d)

    def __iter__(self):
        return iter(zip(self.atoms, self.weights))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinSuppMeasure):
            return NotImplemented
        return self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{a!r}: {format_rational(w)}" for a, w in zip(self.atoms, self.weights)
        )
        return f"FinSuppMeasure({{{inner}}})"


def _integer_dist(space: FiniteSpace, numerators: Collection[int], d: int) -> Dist:
    """The distribution with weight ``n / d`` at each point, built from the
    integers: its form is ``(numerators, d)`` in lowest terms
    (:func:`_lowest`), and the mass check runs on it as in :class:`Dist`."""
    dist = object.__new__(Dist)
    object.__setattr__(dist, "space", space)
    dist._keep(_lowest(numerators, d))
    return dist


def _image(pairs: Iterable[tuple[Hashable, int]], d: int) -> FinSuppMeasure:
    """The measure with weight ``n / d`` per ``(image, n)`` pair, the ``n``
    summed per image.  Images keep the order in which they first come with
    a nonzero ``n``; a zero ``n`` adds nothing.  It is built from the
    integers, like :func:`_integer_dist`."""
    merged: dict[Hashable, int] = {}
    for image, n in pairs:
        if n:
            merged[image] = merged.get(image, 0) + n
    measure = object.__new__(FinSuppMeasure)
    measure._keep(tuple(merged), _lowest(merged.values(), d))
    return measure
