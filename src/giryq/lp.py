"""Exact-rational linear programming via two-phase simplex with Bland's rule.

Programs are in equality form: optimize ``c . x`` subject to ``A x = b`` and
``x >= 0``.  Bland's pivot rule (smallest eligible index enters; ratio ties
leave by smallest basic index) guarantees termination even on degenerate
instances, and makes the returned vertex deterministic.

One simplex body serves two number types.  :func:`lp_solve` first runs it
in ``float`` (the guide) to propose a basis, then certifies that basis in
exact ``Fraction`` arithmetic from one rational factorization of the basis
matrix (the approach of QSopt_ex; Applegate, Cook, Dash and Espinoza,
"Exact solutions to linear programming problems", 2007):

* OPTIMAL is accepted only when ``B x_B = b`` gives ``x_B >= 0`` and
  ``B^T y = c_B`` gives a strictly positive reduced cost on every nonbasic
  column.  The optimum is then unique, so it is the vertex Bland's rule
  reaches in exact arithmetic.
* INFEASIBLE is accepted only with a Farkas certificate taken from the
  phase-1 basis: ``y^T A <= 0`` and ``y^T b > 0``.

Any other outcome (an entry past the float range, the pivot cap, an
artificial column left in the basis, a singular or rejected basis, an
unbounded program) reruns the simplex with every tableau entry a
``Fraction``.  That exact path is the reference the tests compare against.
Either way the optimum and the returned vertex are exact.

Every weighted row sum here, in floats and in ``Fraction`` alike, is one
call to :func:`measures.combine_rows`: the elimination step of a pivot,
the reduced costs of the tableau, and ``y^T A`` in both certificates.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .errors import CertificateError, DimensionMismatchError
from .measures import ZERO, _as_fractions, combine_rows


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
        object.__setattr__(self, "objective", _as_fractions(self.objective))
        object.__setattr__(self, "matrix", tuple(map(_as_fractions, self.matrix)))
        object.__setattr__(self, "rhs", _as_fractions(self.rhs))
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
    it.  ``guided`` is True when the float guide's basis passed the exact
    certificate.  ``pivots`` counts the simplex pivots behind the answer:
    the guide's, plus the exact path's when the certificate failed.
    """

    status: LpStatus
    value: Optional[Fraction] = None
    point: Optional[tuple[Fraction, ...]] = None
    ray: Optional[tuple[Fraction, ...]] = None
    pivots: int = 0
    guided: bool = False


# the guide counts float entries within this distance of zero as zero
_TOL = 1e-9


class _PivotCapReached(Exception):
    """The float guide made its last allowed pivot."""

    def __init__(self, pivots: int) -> None:
        super().__init__(pivots)
        self.pivots = pivots


def _guide_cap(m: int, n: int) -> int:
    # Bland's rule in exact arithmetic cannot cycle, but rounding can make
    # the float guide revisit a basis; its pivots scale with the tableau size
    return 4 * (m + n)


def _pivot(rows: list[list], rhs: list, basis: list[int], r: int, e: int) -> None:
    """Make column ``e`` basic in row ``r`` by Gaussian elimination."""
    piv = rows[r][e]
    rows[r] = [a / piv for a in rows[r]]
    rhs[r] /= piv
    for i in range(len(rows)):
        factor = rows[i][e]
        if i != r and factor:
            rows[i] = combine_rows(rows[i], [(-factor, rows[r])])
            rhs[i] -= factor * rhs[r]
    basis[r] = e


def _reduced_costs(cost: Sequence, rows: list[list], basis: list[int]) -> list:
    """``cost - c_B^T rows``: the objective row of the tableau."""
    return combine_rows(cost, ((-cost[b], row) for b, row in zip(basis, rows)))


def _bland_iterate(
    cost: list,
    rows: list[list],
    rhs: list,
    basis: list[int],
    tol: float = 0,
    pivots: int = 0,
    cap: Optional[int] = None,
) -> tuple[int, Optional[int]]:
    """Run simplex pivots until optimal or unbounded.

    Entries within ``tol`` of zero count as zero.  ``pivots`` is the count
    made so far; reaching ``cap`` raises :class:`_PivotCapReached`.
    Returns ``(pivot_count, unbounded_column)`` where the column is the
    entering index that admitted no ratio test (None when optimal).
    """
    while True:
        reduced = _reduced_costs(cost, rows, basis)
        entering = next((j for j, c in enumerate(reduced) if c < -tol), None)
        if entering is None:
            return pivots, None
        leaving = None
        best_key = None
        for i, row in enumerate(rows):
            if row[entering] > tol:
                key = (rhs[i] / row[entering], basis[i])
                if best_key is None or key < best_key:
                    best_key = key
                    leaving = i
        if leaving is None:
            return pivots, entering
        if cap is not None and pivots >= cap:
            raise _PivotCapReached(pivots)
        _pivot(rows, rhs, basis, leaving, entering)
        pivots += 1


def _two_phase(
    cost: list,
    rows: list[list],
    rhs: list,
    one,
    tol: float = 0,
    cap: Optional[int] = None,
) -> tuple[Optional[LpStatus], list[int], int, Optional[int]]:
    """Bland's two-phase simplex on ``rows x = rhs`` (every rhs >= 0), in place.

    ``one`` fixes the number type: ``Fraction(1)`` with ``tol`` 0 makes
    every sign test exact; ``1.0`` with a positive ``tol`` is the guide.
    Phase 1 minimizes the total artificial mass to decide feasibility;
    phase 2 optimizes ``cost`` from the feasible basis found.  Returns
    ``(status, basis, pivots, column)``.  INFEASIBLE leaves the phase-1
    basis, whose artificial columns are ``n..n+m-1``.  OPTIMAL and UNBOUNDED
    leave ``rows``/``rhs`` as the final tableau over the ``n`` real columns,
    less any redundant row; ``column`` is the unbounded entering column.
    The status is None when phase 1 found no descent step to take, which
    exact arithmetic rules out.
    """
    n, m = len(cost), len(rows)
    zero = one - one
    # phase 1: artificial columns n..n+m-1 with unit cost form the start basis
    for i in range(m):
        rows[i] = rows[i] + [one if j == i else zero for j in range(m)]
    basis = list(range(n, n + m))
    phase1_cost = [zero] * n + [one] * m
    pivots, stuck = _bland_iterate(phase1_cost, rows, rhs, basis, tol, 0, cap)
    if stuck is not None:
        return None, basis, pivots, None
    artificial_mass = sum((rhs[i] for i in range(m) if basis[i] >= n), zero)
    if artificial_mass > tol:
        return LpStatus.INFEASIBLE, basis, pivots, None

    # drive leftover artificials (value zero) out of the basis; a row with
    # no real coefficient left is redundant and is dropped
    for r in reversed(range(m)):
        if basis[r] < n:
            continue
        entering = next((j for j in range(n) if abs(rows[r][j]) > tol), None)
        if entering is None:
            del rows[r], rhs[r], basis[r]
        else:
            _pivot(rows, rhs, basis, r, entering)
            pivots += 1
    rows[:] = [row[:n] for row in rows]

    pivots, stuck = _bland_iterate(cost, rows, rhs, basis, tol, pivots, cap)
    if stuck is not None:
        return LpStatus.UNBOUNDED, basis, pivots, stuck
    return LpStatus.OPTIMAL, basis, pivots, None


def _standard_form(lp: LinearProgram, num) -> tuple[list, list[list], list]:
    """The program as ``min cost . x`` over rows with ``rhs >= 0``, each
    entry converted by ``num``.  Rows are flipped on the exact sign of ``b``.
    """
    cost = [num(c) if lp.sense is Sense.MIN else num(-c) for c in lp.objective]
    rows, rhs = [], []
    for row, b in zip(lp.matrix, lp.rhs):
        if b < 0:
            row, b = [-a for a in row], -b
        rows.append([num(a) for a in row])
        rhs.append(num(b))
    return cost, rows, rhs


def _propose(lp: LinearProgram) -> tuple[Optional[LpStatus], list[int], int]:
    """The float guide: ``(status, basis, pivots)`` from the simplex run in
    floats, with status None when it gave up.
    """
    try:
        cost, rows, rhs = _standard_form(lp, float)
    except OverflowError:  # an entry beyond the float range
        return None, [], 0
    try:
        status, basis, pivots, _ = _two_phase(
            cost, rows, rhs, 1.0, _TOL, _guide_cap(len(rows), len(cost))
        )
    except _PivotCapReached as reached:
        return None, [], reached.pivots
    return status, basis, pivots


def _factor(matrix: list[list[Fraction]]) -> Optional[tuple[list[list[Fraction]], list[int]]]:
    """Factor a square rational matrix as ``P B = L U``, or None if singular.

    Returns ``(lu, perm)``: ``lu`` holds ``U`` on and above the diagonal and
    the unit lower factor ``L`` below it; row ``k`` of ``P B`` is row
    ``perm[k]`` of ``B``.
    """
    lu = [list(row) for row in matrix]
    m = len(lu)
    perm = list(range(m))
    for k in range(m):
        p = next((i for i in range(k, m) if lu[i][k] != 0), None)
        if p is None:
            return None
        lu[k], lu[p] = lu[p], lu[k]
        perm[k], perm[p] = perm[p], perm[k]
        top = lu[k]
        for row in lu[k + 1:]:
            if row[k] == 0:
                continue
            f = row[k] / top[k]
            row[k] = f
            for j in range(k + 1, m):
                row[j] -= f * top[j]
    return lu, perm


def _solve(lu: list[list[Fraction]], perm: list[int], b: Sequence[Fraction]) -> list[Fraction]:
    """``x`` with ``B x = b`` from the factors of ``B``."""
    m = len(lu)
    x = [b[p] for p in perm]
    for i in range(m):
        x[i] -= sum((lu[i][j] * x[j] for j in range(i)), ZERO)
    for i in reversed(range(m)):
        x[i] = (x[i] - sum((lu[i][j] * x[j] for j in range(i + 1, m)), ZERO)) / lu[i][i]
    return x


def _solve_transposed(
    lu: list[list[Fraction]], perm: list[int], c: Sequence[Fraction]
) -> list[Fraction]:
    """``y`` with ``B^T y = c`` from the factors of ``B`` (``B^T = U^T L^T P``)."""
    m = len(lu)
    w = list(c)
    for i in range(m):
        w[i] = (w[i] - sum((lu[j][i] * w[j] for j in range(i)), ZERO)) / lu[i][i]
    for i in reversed(range(m)):
        w[i] -= sum((lu[j][i] * w[j] for j in range(i + 1, m)), ZERO)
    y = [ZERO] * m
    for k, p in enumerate(perm):
        y[p] = w[k]
    return y


def _column(lp: LinearProgram, j: int) -> list[Fraction]:
    """Column ``j`` of the phase-1 system in the program's own row signs:
    a real column of ``A``, or the artificial of row ``j - n``, which is
    the unit vector signed like that row's ``b``.
    """
    n = len(lp.objective)
    if j < n:
        return [row[j] for row in lp.matrix]
    return [Fraction(-1 if b < 0 else 1) if i == j - n else ZERO for i, b in enumerate(lp.rhs)]


def _basis_factors(lp: LinearProgram, basis: list[int]):
    """The factors of the basis matrix, whose columns are ``basis`` (see
    :func:`_column`), or None if it is singular."""
    columns = [_column(lp, j) for j in basis]
    return _factor([list(row) for row in zip(*columns)])


def _certified_vertex(lp: LinearProgram, basis: list[int]) -> Optional[list[Fraction]]:
    """The basic solution of ``basis`` if it is the program's only optimum."""
    m, n = len(lp.rhs), len(lp.objective)
    if len(basis) != m:  # a redundant row was dropped
        return None
    factors = _basis_factors(lp, basis)
    if factors is None:
        return None
    x_b = _solve(*factors, lp.rhs)
    if any(x < 0 for x in x_b):
        return None
    cost = lp.objective if lp.sense is Sense.MIN else [-c for c in lp.objective]
    y = _solve_transposed(*factors, [cost[j] for j in basis])
    reduced = combine_rows(cost, zip([-yi for yi in y], lp.matrix))
    basic = set(basis)
    if any(c <= 0 for j, c in enumerate(reduced) if j not in basic):
        return None
    point = [ZERO] * n
    for j, x in zip(basis, x_b):
        point[j] = x
    return point


def _certified_infeasible(lp: LinearProgram, basis: list[int]) -> bool:
    """Whether the phase-1 ``basis`` yields a Farkas certificate ``y``:
    ``y^T A <= 0`` and ``y^T b > 0``, so no ``x >= 0`` has ``A x = b``.
    """
    factors = _basis_factors(lp, basis)
    if factors is None:
        return False
    n = len(lp.objective)
    y = _solve_transposed(*factors, [Fraction(j >= n) for j in basis])
    if sum((yi * b for yi, b in zip(y, lp.rhs)), ZERO) <= 0:
        return False
    return all(v <= 0 for v in combine_rows([ZERO] * n, zip(y, lp.matrix)))


def _optimal(lp: LinearProgram, point: list[Fraction], pivots: int, guided: bool) -> LpSolution:
    # the solution must satisfy the original system exactly; a vertex is
    # mostly zeros, and zero coordinates add nothing to a row
    support = [j for j, x in enumerate(point) if x]
    for i, (row, b) in enumerate(zip(lp.matrix, lp.rhs)):
        if sum((row[j] * point[j] for j in support), ZERO) != b:
            raise CertificateError(f"vertex violates constraint row {i}")
    if not all(x >= 0 for x in point):
        raise CertificateError("vertex has a negative coordinate")
    value = sum((lp.objective[j] * point[j] for j in support), ZERO)
    return LpSolution(
        status=LpStatus.OPTIMAL,
        value=value,
        point=tuple(point),
        pivots=pivots,
        guided=guided,
    )


def _exact(lp: LinearProgram) -> LpSolution:
    """Solve with every tableau entry a Fraction: the fallback and the
    reference.  The returned vertex is the first optimal basic solution
    under Bland's ordering.
    """
    n = len(lp.objective)
    cost, rows, rhs = _standard_form(lp, Fraction)
    status, basis, pivots, stuck = _two_phase(cost, rows, rhs, Fraction(1))
    if status is None:
        raise CertificateError("phase-1 objective is bounded below by zero")
    if status is LpStatus.INFEASIBLE:
        return LpSolution(status=LpStatus.INFEASIBLE, pivots=pivots)
    if status is LpStatus.UNBOUNDED:
        ray = [ZERO] * n
        ray[stuck] = Fraction(1)
        for i, b in enumerate(basis):
            ray[b] = -rows[i][stuck]
        return LpSolution(status=LpStatus.UNBOUNDED, ray=tuple(ray), pivots=pivots)
    point = [ZERO] * n
    for i, b in enumerate(basis):
        point[b] = rhs[i]
    return _optimal(lp, point, pivots, guided=False)


def lp_solve(lp: LinearProgram) -> LpSolution:
    """Solve an equality-form program exactly.

    The float guide proposes a basis and the exact certificate accepts or
    rejects it; on rejection the exact path answers.  Both give the same
    status, value and vertex: the first optimal basic solution under
    Bland's ordering.
    """
    # under a zero objective every reduced cost is zero, so the certificate
    # would refuse any basis that leaves a column out: skip the guide
    status, basis, pivots = _propose(lp) if any(lp.objective) else (None, [], 0)
    if status is LpStatus.OPTIMAL:
        point = _certified_vertex(lp, basis)
        if point is not None:
            return _optimal(lp, point, pivots, guided=True)
    elif status is LpStatus.INFEASIBLE and _certified_infeasible(lp, basis):
        return LpSolution(status=LpStatus.INFEASIBLE, pivots=pivots, guided=True)
    exact = _exact(lp)
    return replace(exact, pivots=pivots + exact.pivots)
