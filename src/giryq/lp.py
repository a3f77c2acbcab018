"""Exact-rational linear programming via two-phase simplex with Bland's rule.

Programs are in equality form: optimize ``c . x`` subject to ``A x = b`` and
``x >= 0``.  Every tableau entry is a :class:`fractions.Fraction`, so the
optimum and the returned vertex are exact.  Bland's pivot rule (smallest
eligible index enters; ratio ties leave by smallest basic index) guarantees
termination even on degenerate instances, and makes the returned vertex
deterministic.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import CertificateError, DimensionMismatchError
from .measures import ZERO


class Sense(enum.Enum):
    MIN = "MIN"
    MAX = "MAX"


class LpStatus(enum.Enum):
    OPTIMAL = "OPTIMAL"
    INFEASIBLE = "INFEASIBLE"
    UNBOUNDED = "UNBOUNDED"


@dataclass(frozen=True)
class LinearProgram:
    """An equality-form program: optimize ``objective . x`` with ``A x = rhs``, ``x >= 0``."""

    objective: tuple[Fraction, ...]
    matrix: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]
    sense: Sense = Sense.MIN

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "objective", tuple(Fraction(c) for c in self.objective)
        )
        object.__setattr__(
            self,
            "matrix",
            tuple(tuple(Fraction(a) for a in row) for row in self.matrix),
        )
        object.__setattr__(self, "rhs", tuple(Fraction(b) for b in self.rhs))
        n = len(self.objective)
        if len(self.matrix) != len(self.rhs):
            raise DimensionMismatchError(
                f"{len(self.matrix)} constraint rows but {len(self.rhs)} right-hand sides"
            )
        for i, row in enumerate(self.matrix):
            if len(row) != n:
                raise DimensionMismatchError(
                    f"constraint row {i} has {len(row)} coefficients, expected {n}"
                )


@dataclass(frozen=True)
class LpSolution:
    """Outcome of a solve.

    When OPTIMAL, ``point`` is a basic feasible solution achieving ``value``
    exactly.  When UNBOUNDED, ``ray`` is an improving recession direction:
    ``A ray = 0``, ``ray >= 0``, and the objective strictly improves along
    it.  ``pivots`` counts simplex pivots across both phases.
    """

    status: LpStatus
    value: Optional[Fraction] = None
    point: Optional[tuple[Fraction, ...]] = None
    ray: Optional[tuple[Fraction, ...]] = None
    pivots: int = 0


def _pivot(
    rows: list[list[Fraction]],
    rhs: list[Fraction],
    basis: list[int],
    r: int,
    e: int,
) -> None:
    """Make column ``e`` basic in row ``r`` by Gaussian elimination."""
    piv = rows[r][e]
    rows[r] = [a / piv for a in rows[r]]
    rhs[r] /= piv
    for i in range(len(rows)):
        if i == r:
            continue
        factor = rows[i][e]
        if factor == 0:
            continue
        rows[i] = [a - factor * p for a, p in zip(rows[i], rows[r])]
        rhs[i] -= factor * rhs[r]
    basis[r] = e


def _reduced_costs(
    cost: Sequence[Fraction],
    rows: list[list[Fraction]],
    basis: list[int],
) -> list[Fraction]:
    ncols = len(cost)
    reduced = list(cost)
    for i, b in enumerate(basis):
        cb = cost[b]
        if cb == 0:
            continue
        row = rows[i]
        for j in range(ncols):
            if row[j] != 0:
                reduced[j] -= cb * row[j]
    return reduced


def _bland_iterate(
    cost: list[Fraction],
    rows: list[list[Fraction]],
    rhs: list[Fraction],
    basis: list[int],
) -> tuple[int, Optional[int]]:
    """Run simplex pivots until optimal or unbounded.

    Returns ``(pivot_count, unbounded_column)`` where the column is the
    entering index that admitted no ratio test (None when optimal).
    """
    pivots = 0
    while True:
        reduced = _reduced_costs(cost, rows, basis)
        entering = next((j for j, c in enumerate(reduced) if c < 0), None)
        if entering is None:
            return pivots, None
        leaving = None
        best_key = None
        for i, row in enumerate(rows):
            if row[entering] > 0:
                key = (rhs[i] / row[entering], basis[i])
                if best_key is None or key < best_key:
                    best_key = key
                    leaving = i
        if leaving is None:
            return pivots, entering
        _pivot(rows, rhs, basis, leaving, entering)
        pivots += 1


def lp_solve(lp: LinearProgram) -> LpSolution:
    """Solve an equality-form program exactly.

    Phase 1 minimizes the total artificial mass to decide feasibility;
    phase 2 optimizes the true objective from the feasible basis found.
    The returned vertex is the first optimal basic solution under Bland's
    ordering.
    """
    n = len(lp.objective)
    m = len(lp.rhs)
    cost = (
        list(lp.objective)
        if lp.sense is Sense.MIN
        else [-c for c in lp.objective]
    )

    rows = [list(r) for r in lp.matrix]
    rhs = list(lp.rhs)
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-a for a in rows[i]]
            rhs[i] = -rhs[i]

    # phase 1: artificial columns n..n+m-1 with unit cost form the start basis
    for i in range(m):
        rows[i] = rows[i] + [
            Fraction(1) if j == i else ZERO for j in range(m)
        ]
    basis = list(range(n, n + m))
    phase1_cost = [ZERO] * n + [Fraction(1)] * m
    pivots, stuck = _bland_iterate(phase1_cost, rows, rhs, basis)
    if stuck is not None:
        raise CertificateError("phase-1 objective is bounded below by zero")
    artificial_mass = sum(
        (rhs[i] for i in range(len(basis)) if basis[i] >= n), ZERO
    )
    if artificial_mass > 0:
        return LpSolution(status=LpStatus.INFEASIBLE, pivots=pivots)

    # drive leftover artificials (necessarily at value 0) out of the basis;
    # a row with no real coefficient left is redundant and is dropped
    for r in reversed(range(len(basis))):
        if basis[r] < n:
            continue
        entering = next((j for j in range(n) if rows[r][j] != 0), None)
        if entering is None:
            del rows[r], rhs[r], basis[r]
        else:
            _pivot(rows, rhs, basis, r, entering)
            pivots += 1
    rows = [row[:n] for row in rows]

    # phase 2 on the real objective
    extra, stuck = _bland_iterate(cost, rows, rhs, basis)
    pivots += extra
    if stuck is not None:
        ray = [ZERO] * n
        ray[stuck] = Fraction(1)
        for i, b in enumerate(basis):
            ray[b] = -rows[i][stuck]
        return LpSolution(status=LpStatus.UNBOUNDED, ray=tuple(ray), pivots=pivots)

    point = [ZERO] * n
    for i, b in enumerate(basis):
        point[b] = rhs[i]
    value = sum((c * x for c, x in zip(lp.objective, point)), ZERO)

    # the solution must satisfy the original system exactly
    for i, (row, b) in enumerate(zip(lp.matrix, lp.rhs)):
        if sum((a * x for a, x in zip(row, point)), ZERO) != b:
            raise CertificateError(f"vertex violates constraint row {i}")
    if not all(x >= 0 for x in point):
        raise CertificateError("vertex has a negative coordinate")
    return LpSolution(
        status=LpStatus.OPTIMAL,
        value=value,
        point=tuple(point),
        pivots=pivots,
    )
