"""Exact-rational linear programming: a float simplex guide, an integer
certificate of its basis, and an exact Bland simplex behind them.

Programs are in equality form: optimize ``c . x`` subject to ``A x = b`` and
``x >= 0``.  One simplex body serves two number types; the leaving row has
the least ratio, ties going to the smallest basic index, and the objective
row of the tableau is carried through each pivot as one more row.  Phase 1
prices by Bland's rule, the first negative reduced cost.  :func:`lp_solve`
runs it first in ``float`` (the guide), with phase 2 under Dantzig's rule,
the most negative reduced cost; a pivot cap stops a guide that rounding or
a degenerate cycle keeps from ending.  It then certifies the guide's basis
exactly in integers (the approach of QSopt_ex; Applegate, Cook, Dash and
Espinoza, 2007): each column of ``A`` is scaled by the lcm of its
denominators, ``B`` is eliminated once, fraction-free (Bareiss), and ``B^T``
is solved from the multipliers it keeps.  As phase 1 is Bland's in both
paths, a zero-objective solve, exact with no guide, repeats a guided phase
1 up to rounding; the benchmark's traced phase split relies on that.

* OPTIMAL is accepted only when ``B x_B = b`` gives ``x_B >= 0`` and
  ``B^T y = c_B`` gives a strictly positive reduced cost on every nonbasic
  column.  The optimum is then unique, so it is the vertex Bland's rule
  reaches in exact arithmetic, whatever rule the guide priced by.
* INFEASIBLE is accepted only with a Farkas certificate taken from the
  phase-1 basis: ``y^T A <= 0`` and ``y^T b > 0``.

Any other outcome reruns the simplex under Bland's rule, which cannot
cycle, with every tableau entry a ``Fraction``: the guide giving up (a zero
objective, an entry past the float range, the pivot cap), which every
simplex stage reports as the status None of its :class:`_Tableau`; a row
that phase 1 dropped as redundant; a singular or rejected basis; or an
unbounded program.  That exact path is the reference the tests compare
against.  Either way the optimum and the returned vertex are exact, and one
last check apart from the certificate, :func:`_optimal`, tests ``A x = b``
and ``x >= 0`` in integers for every OPTIMAL answer, guided or exact; in
a certificate, :func:`_dual` checks ``B^T y = c_B`` before ``y`` is read.

A :class:`LinearProgram` converts and checks ``A`` and ``b`` once, when it
is built.  Phase 1 reads only them, never the objective or the sense, so
all that is derived from them alone is computed once per system and kept
in the :class:`Constraints` each program carries.  Its one exact form is
the integer form: each row whose ``b`` is negative negated, then each
column of ``A``, and ``b``, cleared of denominators (a lifted program
passes it ready made).  Both phase-1 starts read it, in floats for the
guide and in ``Fraction`` for the exact path (built only on a fallback),
as do the certificate and the re-check.  With every ``b >= 0`` the
artificial basis is the identity and stays implicit: tableaux hold only
the real columns.  Phase 2 works on a copy of a start.  Programs built
with the same ``Constraints`` share all of it; :mod:`giryq.quantifiers`
keeps one per fiber for the last 32 fibers.

Every weighted row sum here, in floats, integers and ``Fraction`` alike, is
one call to :func:`measures.combine_rows`: the elimination step of a pivot,
the objective row of the tableau, and the reduced costs of the one dual
solve that both certificates share.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from operator import truediv
from typing import Callable, Iterable, Optional, Sequence

from .errors import CertificateError, DimensionMismatchError
from .measures import ZERO, _as_fractions, _cleared, _quoted, combine_rows


class Sense(enum.Enum):
    MIN = "MIN"
    MAX = "MAX"


class LpStatus(enum.Enum):
    OPTIMAL = "OPTIMAL"
    INFEASIBLE = "INFEASIBLE"
    UNBOUNDED = "UNBOUNDED"


@dataclass(frozen=True)
class LinearProgram:
    """An equality-form program: optimize ``objective . x`` with ``A x = rhs``, ``x >= 0``.

    ``constraints`` holds ``A`` and ``rhs``, converted and checked, and what
    a solve derives from them alone; programs built with one share that work
    and its tuples.  It must describe the ``matrix`` and ``rhs`` given.  A
    program built without one gets a fresh one.  Equality and ``repr`` ignore it.
    """

    objective: tuple[Fraction, ...]
    matrix: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]
    sense: Sense = Sense.MIN
    constraints: Optional[Constraints] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.sense, Sense):  # a string would compare unequal to MIN
            raise TypeError(f"sense must be Sense.MIN or Sense.MAX, not {_quoted(self.sense)}")
        object.__setattr__(self, "objective", _as_fractions(self.objective))
        n = len(self.objective)
        if self.constraints is None:
            matrix, rhs = tuple(map(_as_fractions, self.matrix)), _as_fractions(self.rhs)
            if len(matrix) != len(rhs):
                raise DimensionMismatchError(
                    f"{len(matrix)} constraint rows but {len(rhs)} right-hand sides"
                )
            for i, row in enumerate(matrix):
                if len(row) != n:
                    raise DimensionMismatchError(
                        f"constraint row {i} has {len(row)} coefficients, expected {n}"
                    )
            object.__setattr__(self, "constraints", Constraints(n, matrix, rhs))
        elif (self.constraints.n, self.constraints.matrix, self.constraints.rhs) != (
            n, tuple(map(tuple, self.matrix)), tuple(self.rhs)
        ):
            raise ValueError("the constraints describe another system A x = b")
        object.__setattr__(self, "matrix", self.constraints.matrix)
        object.__setattr__(self, "rhs", self.constraints.rhs)

    @cached_property
    def integer_objective(self) -> tuple[list[int], int]:
        """``(c, d_c)``: the objective times ``d_c``, the lcm of its denominators."""
        return _cleared(self.objective)


@dataclass(frozen=True)
class LpSolution:
    """Outcome of a solve.

    When OPTIMAL, ``point`` is a basic feasible solution achieving ``value``
    exactly.  When UNBOUNDED, ``ray`` is an improving recession direction:
    ``A ray = 0``, ``ray >= 0``, and the objective strictly improves along
    it.  ``guided`` is True when the float guide's basis passed the exact
    certificate.  ``pivots`` counts the simplex pivots behind the answer:
    the guide's (phase 2 under Dantzig's rule), plus the exact Bland path's
    when the certificate failed.  Each count includes its path's phase-1
    pivots, each entering a real column, even when that phase 1 was solved
    once and shared with other programs over the same constraints, so the
    count does not depend on what was solved before.
    """

    status: LpStatus
    value: Optional[Fraction] = None
    point: Optional[tuple[Fraction, ...]] = None
    ray: Optional[tuple[Fraction, ...]] = None
    pivots: int = 0
    guided: bool = False


# the guide counts float entries within this distance of zero as zero
_TOL = 1e-9


def _guide_cap(m: int, n: int) -> int:
    # the guide's hard stop: rounding can keep it circling a degenerate vertex
    # under any pricing rule; its pivots scale with the tableau size
    return 4 * (m + n)


def _pivot(rows: list[Sequence], rhs: list, basis: list[int], r: int, e: int) -> None:
    """Make column ``e`` basic in row ``r`` by Gaussian elimination.

    Each changed row is replaced by a new list, never written in place.
    """
    piv = rows[r][e]
    rows[r] = [a / piv for a in rows[r]]
    rhs[r] /= piv
    for i in range(len(rows)):
        factor = rows[i][e]
        if i != r and factor:
            rows[i] = combine_rows(rows[i], [(-factor, rows[r])])
            rhs[i] -= factor * rhs[r]
    basis[r] = e


def _bland(reduced: list, tol: float) -> Optional[int]:
    """Bland's entering column: the first with a negative reduced cost."""
    return next((j for j, c in enumerate(reduced) if c < -tol), None)


def _dantzig(reduced: list, tol: float) -> Optional[int]:
    """Dantzig's entering column: the first most negative reduced cost."""
    best = min(reduced, default=0)
    return reduced.index(best) if best < -tol else None


def _iterate(
    cost: Sequence,
    rows: list[Sequence],
    rhs: list,
    basis: list[int],
    rule: Callable[[list, float], Optional[int]],
    tol: float = 0,
    pivots: int = 0,
    cap: Optional[int] = None,
) -> tuple[Optional[LpStatus], int, Optional[int]]:
    """Run simplex pivots until optimal or unbounded, or until ``cap``.

    The objective row ``cost - c_B^T rows`` is computed once and then
    updated with each pivot; ``rule`` picks the entering column from it.
    Entries within ``tol`` of zero count as zero.  ``pivots`` is the count
    made so far.  Returns ``(status, pivots, column)``: OPTIMAL; UNBOUNDED,
    with the entering column that admitted no ratio test; or None when the
    next pivot would pass ``cap``.
    """
    reduced = combine_rows(cost, ((-cost[b], row) for b, row in zip(basis, rows)))
    while True:
        entering = rule(reduced, tol)
        if entering is None:
            return LpStatus.OPTIMAL, pivots, None
        leaving = None
        best_key = None
        for i, row in enumerate(rows):
            if row[entering] > tol:
                key = (rhs[i] / row[entering], basis[i])
                if best_key is None or key < best_key:
                    best_key = key
                    leaving = i
        if leaving is None:
            return LpStatus.UNBOUNDED, pivots, entering
        if cap is not None and pivots >= cap:
            return None, pivots, None
        _pivot(rows, rhs, basis, leaving, entering)
        reduced = combine_rows(reduced, [(-reduced[entering], rows[leaving])])
        pivots += 1


@dataclass(frozen=True)
class _Tableau:
    """The outcome of a simplex stage: read, never written.

    ``status`` None means the stage gave up, and then only ``pivots`` is
    read.  ``rows`` hold the ``n`` real columns only.  After phase 1,
    OPTIMAL means ``rows``, ``rhs`` and ``basis`` are a feasible tableau,
    leftover artificials driven out and redundant rows dropped; INFEASIBLE
    means the artificial mass stays positive, and ``basis`` is the phase-1
    basis, whose implicit artificials are ``n..n+m-1``.  After phase 2
    they are the final tableau, and ``column`` is the entering column that
    admitted no ratio test when UNBOUNDED.  ``pivots`` counts every pivot
    from the start of phase 1, the drive-out included.
    """

    status: Optional[LpStatus]
    rows: tuple[Sequence, ...] = ()
    rhs: tuple = ()
    basis: Sequence[int] = ()
    pivots: int = 0
    column: Optional[int] = None


def _phase1(
    rows: list[Sequence], rhs: list, n: int, one, tol: float = 0, cap: Optional[int] = None
) -> _Tableau:
    """Phase 1 on ``rows x = rhs`` (rhs >= 0) over ``n`` columns, in place:
    minimize the total artificial mass under Bland's rule.

    The artificial start basis ``n..n+m-1`` is never stored, so an
    artificial keeps its unit reduced cost and, once it leaves, never
    re-enters; phase 1 ends where no real column prices negative.  ``one``
    fixes the number type: ``Fraction(1)`` with ``tol`` 0 makes every sign
    test exact; ``1.0`` with a positive ``tol`` is the guide.  It gives up
    at ``cap``, and on a step with no ratio test, which exact arithmetic
    rules out.
    """
    m = len(rows)
    zero = one - one
    basis = list(range(n, n + m))
    phase1_cost = [zero] * n + [one] * m
    status, pivots, _ = _iterate(phase1_cost, rows, rhs, basis, _bland, tol, 0, cap)
    if status is not LpStatus.OPTIMAL:
        return _Tableau(None, pivots=pivots)
    artificial_mass = sum((rhs[i] for i in range(m) if basis[i] >= n), zero)
    if artificial_mass > tol:
        return _Tableau(LpStatus.INFEASIBLE, basis=tuple(basis), pivots=pivots)

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
    return _Tableau(LpStatus.OPTIMAL, tuple(map(tuple, rows)), tuple(rhs), tuple(basis), pivots)


def _phase2(
    start: _Tableau,
    cost: Sequence,
    rule: Callable[[list, float], Optional[int]],
    tol: float = 0,
    cap: Optional[int] = None,
) -> _Tableau:
    """Phase 2 from a feasible ``start``: minimize ``cost``, entering by ``rule``.

    It pivots a copy of the start's tableau; ``start`` itself is never
    changed, so one start serves any number of objectives.  Pivots are
    counted from the start's.
    """
    # _pivot replaces a row it changes and never writes into one, so the
    # start's row tuples can be shared by the copy
    rows, rhs, basis = list(start.rows), list(start.rhs), list(start.basis)
    status, pivots, column = _iterate(cost, rows, rhs, basis, rule, tol, start.pivots, cap)
    return _Tableau(status, tuple(rows), tuple(rhs), tuple(basis), pivots, column)


def _min_cost(lp: LinearProgram, objective: Iterable) -> list:
    """The program's ``objective``, in any number type, as a cost to minimize."""
    return list(objective) if lp.sense is Sense.MIN else [-c for c in objective]


class Constraints:
    """The system ``A x = b`` of a program and what solving derives from it alone.

    ``n`` is the number of columns, and ``matrix`` and ``rhs`` are ``A`` and
    ``b`` as tuples of ``Fraction``, kept as handed in: a
    :class:`LinearProgram` converts and checks its system once.
    :attr:`integer_form` is the one exact form that both phase-1 starts, the
    certificate and the re-check read; one passed in is kept as given.  The
    other parts are computed on first use and kept; all are immutable, so
    programs of any sense and objective share them.
    """

    def __init__(
        self, n: int, matrix: tuple, rhs: tuple, integer_form: Optional[tuple] = None
    ) -> None:
        self.n, self.matrix, self.rhs = n, matrix, rhs
        if integer_form is not None:
            self.integer_form = integer_form

    def _start(self, number: Callable, one, tol: float = 0, cap: Optional[int] = None) -> _Tableau:
        """Phase 1 on :attr:`integer_form`, each entry ``a`` over ``d`` as ``number(a, d)``."""
        rows, d, b, d_b = self.integer_form
        rows = [[number(a, dj) for a, dj in zip(row, d)] for row in rows]
        return _phase1(rows, [number(v, d_b) for v in b], self.n, one, tol, cap)

    @cached_property
    def guide_start(self) -> _Tableau:
        """Phase 1 in floats, within the guide's pivot cap; each ``a / d``
        rounds, and overflows, as ``float`` of the ``Fraction``."""
        try:
            return self._start(truediv, 1.0, _TOL, _guide_cap(len(self.rhs), self.n))
        except OverflowError:  # an entry beyond the float range
            return _Tableau(None)

    @cached_property
    def exact_start(self) -> _Tableau:
        """Phase 1 with every entry a ``Fraction``."""
        return self._start(Fraction, Fraction(1))

    @cached_property
    def integer_form(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple, int]:
        """``(rows, d, b, d_b)``: ``A x = b`` with each row whose ``b`` is
        negative negated, column ``j`` of ``A`` times ``d[j]`` and ``b`` times
        ``d_b``, each the lcm of its denominators.  Negating a row flips the
        sign of its dual value and nothing else, so the certificate decides
        as it would on ``A``.  Rows stay unscaled: a lifted program's row
        mixes every kernel row's denominators, while its column has one.
        """
        matrix = [[-a for a in row] if v < 0 else row for row, v in zip(self.matrix, self.rhs)]
        # both counted out, so a program with no rows or no columns keeps the other
        cleared = [_cleared([row[j] for row in matrix]) for j in range(self.n)]
        rows = tuple(tuple(column[i] for column, _ in cleared) for i in range(len(matrix)))
        b, d_b = _cleared([abs(v) for v in self.rhs])
        return rows, tuple(dj for _, dj in cleared), tuple(b), d_b


def _propose(lp: LinearProgram) -> _Tableau:
    """The float guide: the last tableau of the simplex run in floats, phase
    2 under Dantzig's rule; its status is None wherever the guide declines.
    """
    # under a zero objective every reduced cost is zero, so the certificate
    # would refuse any basis that leaves a column out: skip the guide
    if not any(lp.objective):
        return _Tableau(None)
    c, d_c = lp.integer_objective
    try:
        cost = [v / d_c for v in _min_cost(lp, c)]
    except OverflowError:  # an entry beyond the float range
        return _Tableau(None)
    start = lp.constraints.guide_start
    if start.status is not LpStatus.OPTIMAL:
        return start
    return _phase2(start, cost, _dantzig, _TOL, _guide_cap(len(lp.rhs), len(cost)))


def _eliminate(matrix: Sequence, rhs: Optional[Sequence[int]] = None) -> Optional[tuple]:
    """``(det, rows, order)`` from fraction-free (Bareiss) elimination of
    ``[matrix | rhs]``, or of ``matrix`` alone when no ``rhs`` is given, or
    None when the square integer ``matrix`` is singular.

    After step ``k`` each entry is a minor of order ``k + 1`` of the
    row-permuted matrix, so each division is exact and entries stay within
    the Hadamard bound.  ``det``, the last pivot, is the determinant up to
    sign.  No step writes its own column, so ``rows``, row ``k`` from input
    row ``order[k]``, keep ``L`` below the diagonal and ``U`` on and above it.
    """
    m = len(matrix)
    rows = [list(row) for row in matrix]
    for row, b in zip(rows, rhs or ()):
        row.append(b)
    order, det = list(range(m)), 1
    for k in range(m):
        p = next((i for i in range(k, m) if rows[i][k]), None)
        if p is None:
            return None
        rows[k], rows[p], order[k], order[p] = rows[p], rows[k], order[p], order[k]
        top = rows[k]
        pivot = top[k]
        for row in rows[k + 1:]:
            f = row[k]
            row[k + 1:] = [(pivot * a - f * t) // det for a, t in zip(row[k + 1:], top[k + 1:])]
        det = pivot
    return det, rows, order


def _back_substitute(eliminated: tuple) -> list[int]:
    """``z = det x`` with ``matrix x = rhs`` from :func:`_eliminate`, integral by Cramer's rule."""
    det, rows, _ = eliminated
    m = len(rows)
    z = [0] * m
    for i in reversed(range(m)):
        row = rows[i]
        z[i] = (det * row[m] - sum(row[j] * z[j] for j in range(i + 1, m))) // row[i]
    return z


def _transposed_solve(eliminated: tuple, c: Sequence[int]) -> tuple[int, list[int]]:
    """``(det, w)`` with ``B^T (w / det) = c``, from :func:`_eliminate` of ``B``:
    Bareiss on ``[A^T | c]``, ``A`` the row-permuted ``B``, divides exactly by
    ``A``'s own pivots; its steps read the kept ``U``, its back substitution
    ``L^T``, and entry ``k`` of its solution is ``w[order[k]]``."""
    det, rows, order = eliminated
    g, previous, w = list(c), 1, [0] * len(c)
    for k, top in enumerate(rows):
        g[k + 1:] = [(top[k] * a - u * g[k]) // previous for a, u in zip(g[k + 1:], top[k + 1:])]
        previous = top[k]
    for i in reversed(range(len(g))):
        v = det * g[i]
        for j in range(i + 1, len(g)):
            v -= rows[j][i] * g[j]
        g[i] = w[order[i]] = v // rows[i][i]
    return det, w


def _integer_basis(lp: LinearProgram, basis: Sequence[int]) -> list[list[int]]:
    """``B`` in integers: the columns ``basis`` of :attr:`Constraints.integer_form`,
    where an artificial ``j >= n`` is row ``j - n``'s unit vector."""
    n = len(lp.objective)
    rows, *_ = lp.constraints.integer_form
    return [[row[j] if j < n else int(j - n == i) for j in basis] for i, row in enumerate(rows)]


def _dual(
    lp: LinearProgram, eliminated: tuple, basis: Sequence[int], cost: Sequence[int]
) -> tuple[int, list[int], list[int]]:
    """Solve ``B^T y = c_B`` from ``eliminated``, :func:`_eliminate` of ``B``
    (:func:`_integer_basis`), check it, and price every real column.

    ``cost`` is ``d_c > 0`` times the cost of each real column, then of each
    artificial one.  Returns ``(det, yz, reduced)``, ``yz = det d_c y`` and
    ``reduced[j] = d_c d_j det (c_j - A_j^T y)``; a basic column whose
    reduced cost is not exactly zero raises :class:`CertificateError`.
    """
    rows, d, *_ = lp.constraints.integer_form
    n = len(d)
    det, yz = _transposed_solve(eliminated, [cost[j] * (d[j] if j < n else 1) for j in basis])
    reduced = combine_rows([c * dj * det for c, dj in zip(cost, d)], zip([-y for y in yz], rows))
    if any(reduced[j] if j < n else yz[j - n] - det * cost[j] for j in basis):
        raise CertificateError("dual solution misses a basic column")
    return det, yz, reduced


def _certified_vertex(lp: LinearProgram, basis: Sequence[int]) -> Optional[tuple[int, list[int]]]:
    """``(det, z)`` with ``B (z / det) = b`` over :attr:`Constraints.integer_form`,
    if the basic solution of ``basis`` is the program's only optimum; ``B``
    is eliminated once, for the vertex and its dual."""
    if len(basis) != len(lp.rhs):  # a redundant row was dropped
        return None
    eliminated = _eliminate(_integer_basis(lp, basis), lp.constraints.integer_form[2])
    if eliminated is None:
        return None
    det, z = eliminated[0], _back_substitute(eliminated)
    if any(zk * det < 0 for zk in z):  # x_B = d_B z / (det d_b) must be >= 0
        return None
    _, _, reduced = _dual(lp, eliminated, basis, _min_cost(lp, lp.integer_objective[0]))
    basic = set(basis)
    if any(c * det <= 0 for j, c in enumerate(reduced) if j not in basic):
        return None
    return det, z


def _certified_infeasible(lp: LinearProgram, basis: Sequence[int]) -> bool:
    """Whether the phase-1 ``basis`` yields a Farkas certificate: a phase-1
    dual ``y`` with every real column's reduced cost ``>= 0`` (``y^T A <= 0``)
    and ``y^T b > 0``, so that no ``x >= 0`` has ``A x = b``.  ``B`` is
    eliminated once, without ``b``, and only ``B^T`` is solved."""
    *_, b, _ = lp.constraints.integer_form
    eliminated = _eliminate(_integer_basis(lp, basis))
    if eliminated is None:
        return False
    det, yz, reduced = _dual(lp, eliminated, basis, [0] * len(lp.objective) + [1] * len(b))
    if sum(y * v for y, v in zip(yz, b)) * det <= 0:
        return False
    return all(c * det >= 0 for c in reduced)


def _optimal(
    lp: LinearProgram, basis: Sequence[int], det: int, z: list[int], pivots: int, *, guided: bool
) -> LpSolution:
    """The answer at the vertex ``x_j = d_j z_k / (det d_b)``, ``j = basis[k]``,
    checked in integers: it meets every row of :attr:`Constraints.integer_form`,
    a row that phase 1 dropped as redundant included, and ``x >= 0``."""
    rows, d, b, d_b = lp.constraints.integer_form
    for i, (row, bi) in enumerate(zip(rows, b)):
        if sum(row[j] * zk for j, zk in zip(basis, z)) != det * bi:
            raise CertificateError(f"vertex violates constraint row {i}")
    if any(zk * det < 0 for zk in z):
        raise CertificateError("vertex has a negative coordinate")
    c, d_c = lp.integer_objective
    point = [ZERO] * len(d)
    for j, zk in zip(basis, z):
        point[j] = Fraction(d[j] * zk, det * d_b)
    value = Fraction(sum(c[j] * d[j] * zk for j, zk in zip(basis, z)), d_c * det * d_b)
    return LpSolution(LpStatus.OPTIMAL, value, tuple(point), pivots=pivots, guided=guided)


def _exact(lp: LinearProgram) -> LpSolution:
    """Solve with every tableau entry a Fraction: the fallback and the
    reference.  The returned vertex is the first optimal basic solution
    under Bland's ordering; its basic values are cleared to the
    certificate's ``(det, z)`` form for the one re-check, :func:`_optimal`.
    """
    n = len(lp.objective)
    start = lp.constraints.exact_start
    if start.status is None:
        raise CertificateError("phase-1 objective is bounded below by zero")
    if start.status is LpStatus.INFEASIBLE:
        return LpSolution(status=LpStatus.INFEASIBLE, pivots=start.pivots)
    final = _phase2(start, _min_cost(lp, lp.objective), _bland)
    if final.status is LpStatus.UNBOUNDED:
        ray = [ZERO] * n
        ray[final.column] = Fraction(1)
        for row, b in zip(final.rows, final.basis):
            ray[b] = -row[final.column]
        return LpSolution(status=LpStatus.UNBOUNDED, ray=tuple(ray), pivots=final.pivots)
    _, d, _, d_b = lp.constraints.integer_form
    z, det = _cleared([x * d_b / d[j] for j, x in zip(final.basis, final.rhs)])
    return _optimal(lp, final.basis, det, z, final.pivots, guided=False)


def lp_solve(lp: LinearProgram) -> LpSolution:
    """Solve an equality-form program exactly.

    The float guide proposes a basis and the exact certificate accepts or
    rejects it; on rejection the exact path answers.  Both give the same
    status, value and vertex: the first optimal basic solution under
    Bland's ordering.  Phase 1 of either path is shared through
    ``lp.constraints`` with every program built over the same ones.
    """
    guide = _propose(lp)
    if guide.status is LpStatus.OPTIMAL:
        vertex = _certified_vertex(lp, guide.basis)
        if vertex is not None:
            return _optimal(lp, guide.basis, *vertex, guide.pivots, guided=True)
    elif guide.status is LpStatus.INFEASIBLE and _certified_infeasible(lp, guide.basis):
        return LpSolution(status=LpStatus.INFEASIBLE, pivots=guide.pivots, guided=True)
    exact = _exact(lp)
    return replace(exact, pivots=guide.pivots + exact.pivots)
