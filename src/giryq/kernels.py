"""Markov kernels between finite spaces: the Kleisli category of the Giry monad.

A kernel ``X -> Y`` assigns one distribution on ``Y`` to each point of ``X``
(a row-stochastic rational matrix, rows in declaration point order).
The Giry monad's operations, and the functions built from them:

* point mass (the unit), :meth:`Dist.dirac`: a :func:`deterministic_kernel`
  sends each point to the point mass at its image under a point function
  (:func:`extract_point_function` inverts it); :func:`identity_kernel` is
  the one of the identity function;
* image measure: :func:`image_measure` pushes a distribution along the row
  map, a finitely supported measure over distributions on the target;
* mixture (the multiplication): :func:`mixture` collapses such a measure;
* lift (the Kleisli extension): ``lift(kernel)(P)`` is
  ``mixture(image_measure(kernel, P))``; :func:`pushforward` lifts a
  deterministic kernel;
* composition (Kleisli): row ``x`` of ``compose(outer, inner)`` is
  ``lift(outer)`` at row ``x`` of ``inner``.

The lift, composition and the mixture are one weighted sum of rows each,
:func:`measures.combine_rows`, with no intermediate measure.  The sum runs
in integers: the weights' integer form times the rows' integer forms,
scaled to one common denominator (see :mod:`giryq.measures`).  The result
is built from those sums by ``measures._integer_dist``: they are reduced
by their gcd with the denominator, which gives its integer form, and that
form is all it keeps.  No entry is divided until something reads the
result's ``weights``; that read divides each entry once.

Equal rows form one atom of the image measure, so a kernel's rows are
partitioned by value (:attr:`Kernel.row_partition`) when it is built; the
kernel also keeps the row -> class dict behind it, which the fiber scan
of :mod:`giryq.quantifiers` looks a query up in, and its hash, so a memo
keyed by kernels hashes each one once.
:func:`image_measure` sums integer weights onto each class's first row,
through the routine of :meth:`FinSuppMeasure.map`.  Composition and the
composite stages mix once per row class: 64 rows of 8 values mix 8 rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Callable, Sequence

from .errors import NotDeterministicError
from .measures import (
    Dist, FinSuppMeasure, FiniteSpace, _image, _integer_dist, _per_point, _quoted,
    _same_space, combine_rows,
)


@dataclass(frozen=True)
class Kernel:
    """A Markov kernel: one row distribution on ``target`` per source point.

    ``row_partition`` is the rows up to equality, ``(classes,
    representatives)``: ``classes[i]`` is the class of the i-th source
    point's row, and ``representatives[c]`` is the first row of class
    ``c``; classes are numbered in order of first appearance.  ``_class_of``
    maps each distinct row to its class, and ``_hash`` is ``hash((source,
    target, rows))``.  All three are built with the kernel and are not
    fields, so equality and ``repr`` ignore them.
    """

    source: FiniteSpace
    target: FiniteSpace
    rows: tuple[Dist, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", _per_point(self.rows, self.source, "rows", tuple))
        for label, row in zip(self.source.points, self.rows):
            if row.space != self.target:  # the label is formatted only on failure
                _same_space(f"row of {_quoted(label)} lives on", row.space,
                            "the kernel lands in", self.target)
        ids: dict[Dist, int] = {}
        classes = tuple(ids.setdefault(row, len(ids)) for row in self.rows)
        object.__setattr__(self, "row_partition", (classes, tuple(ids)))
        object.__setattr__(self, "_class_of", ids)
        object.__setattr__(self, "_hash", hash((self.source, self.target, self.rows)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # rebuilt on load, so the kept hash follows the loading process's
        # string-hash seed
        return self.__class__, (self.source, self.target, self.rows)

    def row(self, label: str) -> Dist:
        """The distribution this kernel assigns to a source point."""
        return self.rows[self.source.index(label)]


@dataclass(frozen=True)
class PointFunction:
    """A total function between the points of two finite spaces.

    ``assignment[i]`` is the target label of the i-th source point.
    """

    source: FiniteSpace
    target: FiniteSpace
    assignment: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "assignment", _per_point(self.assignment, self.source, "assignments", tuple)
        )
        for y in self.assignment:
            self.target.index(y)


def identity_kernel(space: FiniteSpace) -> Kernel:
    """The identity kernel: each point goes to its own point mass."""
    return deterministic_kernel(PointFunction(space, space, space.points))


def deterministic_kernel(fn: PointFunction) -> Kernel:
    """Embed a point function as the kernel sending ``x`` to the point mass at ``fn(x)``."""
    return Kernel(
        fn.source,
        fn.target,
        tuple(Dist.dirac(fn.target, y) for y in fn.assignment),
    )


def _mix(space: FiniteSpace, form: tuple[Sequence[int], int], rows: Sequence[Dist]) -> Dist:
    """The sum of ``rows`` on ``space`` weighted by ``form``, the integer
    form of one weight per row."""
    weights, scale = form
    weighted = [(m, row._form) for m, row in zip(weights, rows) if m]
    d = lcm(*(e for _, (_, e) in weighted))
    total = combine_rows([0] * len(space), ((m * (d // e), n) for m, (n, e) in weighted))
    return _integer_dist(space, total, d * scale)


def compose(outer: Kernel, inner: Kernel) -> Kernel:
    """Kernel composition ``outer . inner`` (first ``inner``, then ``outer``).

    The row at ``x`` averages the rows of ``outer`` with the weights of
    ``inner``'s row at ``x``; for finite spaces this is the stochastic
    matrix product.  Equal rows of ``inner`` are mixed once and share the
    result.
    """
    _same_space("inner lands in", inner.target, "outer starts at", outer.source)
    classes, representatives = inner.row_partition
    mixed = [_mix(outer.target, r._form, outer.rows) for r in representatives]
    return Kernel(inner.source, outer.target, tuple(mixed[c] for c in classes))


def is_deterministic(kernel: Kernel) -> bool:
    """True iff every row entry is 0 or 1.

    On a finite space this is equivalent to every event probability being
    0 or 1 under every row.  A row is a point mass exactly when the
    denominator of its integer form is 1: its entries are then non-negative
    integers that sum to 1.
    """
    return all(row._form[1] == 1 for row in kernel.rows)


def extract_point_function(kernel: Kernel) -> PointFunction:
    """Recover the unique point function underlying a deterministic kernel.

    Raises :class:`NotDeterministicError` if some row has a fractional entry.
    """
    if not is_deterministic(kernel):
        raise NotDeterministicError(
            "kernel has a fractional entry; no underlying point function"
        )
    assignment = []
    for row in kernel.rows:
        # deterministic + mass one forces exactly one unit entry per row;
        # its form's d is 1, so the numerators are the weights
        assignment.append(row.space.points[row._form[0].index(1)])
    return PointFunction(kernel.source, kernel.target, tuple(assignment))


def pushforward(fn: PointFunction, dist: Dist) -> Dist:
    """Image of a distribution under a point function: the lift of its
    deterministic kernel.

    The weight at a target point is the summed weight of its preimage.
    """
    return lift(deterministic_kernel(fn))(dist)


def image_measure(kernel: Kernel, dist: Dist) -> FinSuppMeasure:
    """Image of ``dist`` under the row map ``x -> kernel.row(x)``.

    The result is a finitely supported measure over distributions on the
    kernel's target: each row carries the summed weight of the source
    points that have it.  Zero-weight points are left out, and rows keep
    the order in which they first appear.  Its :func:`mixture` is
    ``lift(kernel)(dist)``.
    """
    _same_space("distribution lives on", dist.space, "the kernel starts at", kernel.source)
    classes, representatives = kernel.row_partition
    numerators, d = dist._form
    return _image(((representatives[c], n) for c, n in zip(classes, numerators)), d)


def mixture(measure: FinSuppMeasure) -> Dist:
    """Collapse a finitely supported measure over distributions to its mixture.

    All atoms must be distributions on one common space; the weight at a
    point is the measure-weighted average of the atoms' weights there.
    """
    first = measure.atoms[0]
    for atom in measure.atoms:
        if not isinstance(atom, Dist):
            raise TypeError(f"atom {atom!r} is not a distribution")
        _same_space("atom lives on", atom.space, "the first atom lives on", first.space)
    return _mix(first.space, measure._form, measure.atoms)


def lift(kernel: Kernel) -> Callable[[Dist], Dist]:
    """Lift a kernel to a map between distributions.

    The lifted map sends ``P`` to the mixture of the kernel's rows weighted
    by ``P`` (a vector-matrix product); point masses go to their rows.
    """

    def apply(dist: Dist) -> Dist:
        _same_space("distribution lives on", dist.space, "the kernel starts at", kernel.source)
        return _mix(kernel.target, dist._form, kernel.rows)

    return apply
