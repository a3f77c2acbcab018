"""Exact-rational linear programming: a float simplex guide, an integer
certificate of its basis, and an exact Bland simplex behind them.

Programs are in equality form: optimize ``c . x`` subject to ``A x = b`` and
``x >= 0``.  One two-phase simplex body serves two number types; the leaving
row has the least ratio, ties going to the smallest basic index.  Phase 1
prices by Bland's rule, the first negative reduced cost.  :func:`lp_solve`
runs it first in ``float`` (the guide), with phase 2 under Dantzig's rule:
the most negative reduced cost enters, or Bland's after ``_STALL_LIMIT``
pivots in a row that leave the objective where it was.  It then certifies
the guide's basis exactly (the approach of QSopt_ex; Applegate, Cook, Dash
and Espinoza, 2007) in integers: each column of ``A`` is scaled by the lcm
of its denominators, and ``B`` and ``B^T`` are solved by fraction-free
(Bareiss) elimination.  As phase 1 is Bland's in both paths, a
zero-objective solve, exact with no guide, repeats a guided phase 1 up
to rounding; the benchmark's traced phase split relies on that.

* OPTIMAL is accepted only when ``B x_B = b`` gives ``x_B >= 0`` and
  ``B^T y = c_B`` gives a strictly positive reduced cost on every nonbasic
  column.  The optimum is then unique, so it is the vertex Bland's rule
  reaches in exact arithmetic, whatever rule the guide priced by.
* INFEASIBLE is accepted only with a Farkas certificate taken from the
  phase-1 basis: ``y^T A <= 0`` and ``y^T b > 0``.

Any other outcome (an entry past the float range, the pivot cap, an
artificial column left in the basis, a singular or rejected basis, an
unbounded program) reruns the simplex under Bland's rule, which cannot
cycle, with every tableau entry a ``Fraction``.  That exact path is the
reference the tests compare against.  Either way the optimum and the
returned vertex are exact.

Every weighted row sum here, in floats, integers and ``Fraction`` alike, is
one call to :func:`measures.combine_rows`: the elimination step of a pivot,
the reduced costs of the tableau, and ``y^T A`` in both certificates.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm
from typing import Callable, Optional, Sequence

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
    the guide's (phase 2 under Dantzig's rule, Bland's while it stalls),
    plus the exact Bland path's when the certificate failed.
    """

    status: LpStatus
    value: Optional[Fraction] = None
    point: Optional[tuple[Fraction, ...]] = None
    ray: Optional[tuple[Fraction, ...]] = None
    pivots: int = 0
    guided: bool = False


# the guide counts float entries within this distance of zero as zero
_TOL = 1e-9

# after this many pivots in a row that leave the objective where it was,
# the guide prices by Bland's rule, which cannot cycle, until one moves it
_STALL_LIMIT = 100


class _PivotCapReached(Exception):
    """The float guide made its last allowed pivot."""

    def __init__(self, pivots: int) -> None:
        super().__init__(pivots)
        self.pivots = pivots


def _guide_cap(m: int, n: int) -> int:
    # the guide's hard stop: rounding can keep it circling a degenerate vertex
    # under any pricing rule; its pivots scale with the tableau size
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


def _bland(reduced: list, tol: float) -> Optional[int]:
    """Bland's entering column: the first with a negative reduced cost."""
    return next((j for j, c in enumerate(reduced) if c < -tol), None)


def _dantzig(reduced: list, tol: float) -> Optional[int]:
    """Dantzig's entering column: the first most negative reduced cost."""
    best = min(reduced, default=0)
    return reduced.index(best) if best < -tol else None


def _iterate(
    cost: list,
    rows: list[list],
    rhs: list,
    basis: list[int],
    rule: Callable[[list, float], Optional[int]],
    tol: float = 0,
    pivots: int = 0,
    cap: Optional[int] = None,
) -> tuple[int, Optional[int]]:
    """Run simplex pivots until optimal or unbounded.

    ``rule`` picks the entering column from the reduced costs, and Bland's
    rule after ``_STALL_LIMIT`` zero-step pivots in a row, until one moves.
    Entries within ``tol`` of zero count as zero.  ``pivots`` is the count
    made so far; reaching ``cap`` raises :class:`_PivotCapReached`.  Returns
    ``(pivot_count, unbounded_column)`` where the column is the entering
    index that admitted no ratio test (None when optimal).
    """
    stalled = 0
    while True:
        reduced = _reduced_costs(cost, rows, basis)
        entering = (rule if stalled < _STALL_LIMIT else _bland)(reduced, tol)
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
        stalled = stalled + 1 if rhs[leaving] <= tol else 0
        _pivot(rows, rhs, basis, leaving, entering)
        pivots += 1


def _two_phase(
    cost: list,
    rows: list[list],
    rhs: list,
    one,
    rule: Callable[[list, float], Optional[int]],
    tol: float = 0,
    cap: Optional[int] = None,
) -> tuple[Optional[LpStatus], list[int], int, Optional[int]]:
    """The two-phase simplex on ``rows x = rhs`` (rhs >= 0), in place: phase 1
    enters by Bland's rule, phase 2 by ``rule``.

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
    pivots, stuck = _iterate(phase1_cost, rows, rhs, basis, _bland, tol, 0, cap)
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

    pivots, stuck = _iterate(cost, rows, rhs, basis, rule, tol, pivots, cap)
    if stuck is not None:
        return LpStatus.UNBOUNDED, basis, pivots, stuck
    return LpStatus.OPTIMAL, basis, pivots, None


def _standard_form(lp: LinearProgram, num) -> tuple[list, list[list], list]:
    """The program as ``min cost . x`` over rows with ``rhs >= 0``, each
    entry converted by ``num`` and then negated where it must be.  Rows are
    flipped on the exact sign of ``b``.
    """
    cost = [num(c) for c in lp.objective]
    if lp.sense is Sense.MAX:
        cost = [-c for c in cost]
    rows, rhs = [], []
    for row, b in zip(lp.matrix, lp.rhs):
        row, nb = [num(a) for a in row], num(b)
        if b < 0:
            row, nb = [-a for a in row], -nb
        rows.append(row)
        rhs.append(nb)
    return cost, rows, rhs


def _as_float(a: Fraction) -> float:
    """``float(a)``, the same rounding and the same ``OverflowError`` past
    the float range, without the dispatch of ``numbers.Rational.__float__``.
    """
    return a.numerator / a.denominator


def _propose(lp: LinearProgram) -> tuple[Optional[LpStatus], list[int], int]:
    """The float guide: ``(status, basis, pivots)`` from the simplex run in
    floats, phase 2 under Dantzig's rule, with status None when it gave up.
    """
    try:
        cost, rows, rhs = _standard_form(lp, _as_float)
    except OverflowError:  # an entry beyond the float range
        return None, [], 0
    try:
        status, basis, pivots, _ = _two_phase(
            cost, rows, rhs, 1.0, _dantzig, _TOL, _guide_cap(len(rows), len(cost))
        )
    except _PivotCapReached as reached:
        return None, [], reached.pivots
    return status, basis, pivots


def _integer_solve(matrix: Sequence, rhs: Sequence[int]) -> Optional[tuple[int, list[int]]]:
    """``(det, z)`` with ``matrix (z / det) = rhs`` exactly, or None when the
    square integer ``matrix`` is singular.

    Fraction-free (Bareiss) elimination: after step ``k`` each entry is a
    minor of order ``k + 1`` of the row-permuted matrix, so each division is
    exact and entries stay within the Hadamard bound.  ``det``, the last
    pivot, is the determinant up to sign, and ``z = det x`` is integral by
    Cramer's rule, so the back substitution divides exactly too.
    """
    m = len(matrix)
    rows = [[*row, b] for row, b in zip(matrix, rhs)]
    det = 1
    for k in range(m):
        p = next((i for i in range(k, m) if rows[i][k]), None)
        if p is None:
            return None
        rows[k], rows[p] = rows[p], rows[k]
        top = rows[k]
        pivot = top[k]
        for row in rows[k + 1:]:
            f = row[k]
            row[k + 1:] = [(pivot * a - f * t) // det for a, t in zip(row[k + 1:], top[k + 1:])]
        det = pivot
    z = [0] * m
    for i in reversed(range(m)):
        row = rows[i]
        z[i] = (det * row[m] - sum(row[j] * z[j] for j in range(i + 1, m))) // row[i]
    return det, z


def _cleared(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """``(d * values, d)`` for ``d`` the lcm of the denominators."""
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def _integer_basis(lp: LinearProgram, basis: list[int]) -> tuple[list, list, list[int]]:
    """``(B, A, d)`` in integers, signs kept: ``A`` has column ``j`` times
    ``d[j]``, the lcm of its denominators, and ``B`` the columns ``basis``;
    an artificial ``j >= n`` is row ``j - n``'s unit vector signed like its
    ``b``, scale 1.  Rows stay unscaled: a lifted program's row mixes every
    kernel row's denominators, while its column has one."""
    n, m = len(lp.objective), len(lp.rhs)
    # both counted out, so a program with no rows or no columns keeps the other
    cleared = [_cleared([row[j] for row in lp.matrix]) for j in range(n)]
    d = [dj for _, dj in cleared]
    rows = [[column[i] for column, _ in cleared] for i in range(m)]
    matrix = [
        [row[j] if j < n else (j - n == i) * (-1 if b < 0 else 1) for j in basis]
        for i, (row, b) in enumerate(zip(rows, lp.rhs))
    ]
    return matrix, rows, d


def _certified_vertex(lp: LinearProgram, basis: list[int]) -> Optional[list[Fraction]]:
    """The basic solution of ``basis`` if it is the program's only optimum."""
    if len(basis) != len(lp.rhs):  # a redundant row was dropped
        return None
    matrix, rows, d = _integer_basis(lp, basis)
    b, d_b = _cleared(lp.rhs)
    primal = _integer_solve(matrix, b)
    if primal is None:
        return None
    det, z = primal
    if any(zk * det < 0 for zk in z):  # x_B = d_B z / (det d_b) must be >= 0
        return None
    # with the cost times its lcm d_c, B^T y = c_B gives yz = det_y d_c y; the
    # reduced cost c_j - A_j^T y has the sign of (c_j d_c d_j det_y - d_j A_j^T yz) det_y
    cost = [c if lp.sense is Sense.MIN else -c for c in _cleared(lp.objective)[0]]
    det_y, yz = _integer_solve(list(zip(*matrix)), [cost[j] * d[j] for j in basis])
    reduced = combine_rows([c * dj * det_y for c, dj in zip(cost, d)], zip([-y for y in yz], rows))
    basic = set(basis)
    if any(c * det_y <= 0 for j, c in enumerate(reduced) if j not in basic):
        return None
    point = [ZERO] * len(lp.objective)
    for j, zk in zip(basis, z):
        point[j] = Fraction(d[j] * zk, det * d_b)
    return point


def _certified_infeasible(lp: LinearProgram, basis: list[int]) -> bool:
    """Whether the phase-1 ``basis`` yields a Farkas certificate ``y``:
    ``y^T A <= 0`` and ``y^T b > 0``, so no ``x >= 0`` has ``A x = b``.
    """
    n = len(lp.objective)
    matrix, rows, _ = _integer_basis(lp, basis)
    # B^T y = the phase-1 cost of the basis gives yz = det y
    dual = _integer_solve(list(zip(*matrix)), [int(j >= n) for j in basis])
    if dual is None:
        return False
    det, yz = dual
    b, _ = _cleared(lp.rhs)
    if sum(y * v for y, v in zip(yz, b)) * det <= 0:
        return False
    return all(v * det <= 0 for v in combine_rows([0] * n, zip(yz, rows)))


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
    return LpSolution(LpStatus.OPTIMAL, value, tuple(point), pivots=pivots, guided=guided)


def _exact(lp: LinearProgram) -> LpSolution:
    """Solve with every tableau entry a Fraction: the fallback and the
    reference.  The returned vertex is the first optimal basic solution
    under Bland's ordering.
    """
    n = len(lp.objective)
    cost, rows, rhs = _standard_form(lp, Fraction)
    status, basis, pivots, stuck = _two_phase(cost, rows, rhs, Fraction(1), _bland)
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
