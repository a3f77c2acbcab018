import hashlib
import json
import random
import textwrap
from fractions import Fraction as F
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from giryq import (
    Dist,
    DimensionMismatchError,
    FiniteSpace,
    Kernel,
    LinearProgram,
    LpStatus,
    Predicate,
    Sense,
    lift,
    lp_solve,
)
from giryq import laws, quantifiers
from giryq import lp as lp_module
from giryq.laws import (
    SUITES,
    _check_lp_against_oracle,
    enumerate_basic_points,
    lp_oracle,
    rand_dist,
    rand_kernel,
    rand_lp,
    rand_predicate,
    rand_space,
    run_suite,
)
from giryq.lp import _Tableau
from giryq.quantifiers import _lifted_program

from strategies import dists, kernels, predicates, spaces


def blend_program(sense):
    """Two blending equalities over three nonnegative shares."""
    return LinearProgram(
        objective=(F(1, 2), F(3, 5), F(9, 10)),
        matrix=(
            (F(1), F(1, 2), F(3, 10)),
            (F(0), F(1, 2), F(7, 10)),
        ),
        rhs=(F(7, 10), F(3, 10)),
        sense=sense,
    )


def test_blend_minimum():
    solution = lp_solve(blend_program(Sense.MIN))
    assert solution.status is LpStatus.OPTIMAL
    assert solution.value == F(14, 25)
    assert solution.point == (F(2, 5), F(3, 5), F(0))


def test_blend_maximum():
    solution = lp_solve(blend_program(Sense.MAX))
    assert solution.status is LpStatus.OPTIMAL
    assert solution.value == F(47, 70)
    assert solution.point == (F(4, 7), F(0), F(3, 7))


def test_contradictory_equalities_are_infeasible():
    lp = LinearProgram(
        objective=(F(1),),
        matrix=((F(1),), (F(1),)),
        rhs=(F(2), F(3)),
        sense=Sense.MIN,
    )
    assert lp_solve(lp).status is LpStatus.INFEASIBLE


def test_identity_system_forces_the_point():
    rhs = (F(1, 3), F(0), F(2, 3))
    lp = LinearProgram(
        objective=(F(5), F(-2), F(1, 7)),
        matrix=((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))),
        rhs=rhs,
        sense=Sense.MIN,
    )
    solution = lp_solve(lp)
    assert solution.status is LpStatus.OPTIMAL
    assert solution.point == rhs
    assert solution.value == sum(c * x for c, x in zip(lp.objective, rhs))


def test_unbounded_program_returns_an_improving_ray():
    # x1 - x2 = 0 admits the ray (1, 1), along which -x1 decreases forever
    lp = LinearProgram(
        objective=(F(-1), F(0)),
        matrix=((F(1), F(-1)),),
        rhs=(F(0),),
        sense=Sense.MIN,
    )
    solution = lp_solve(lp)
    assert solution.status is LpStatus.UNBOUNDED
    ray = solution.ray
    assert all(r >= 0 for r in ray) and any(r > 0 for r in ray)
    assert sum(a * r for a, r in zip(lp.matrix[0], ray)) == 0
    assert sum(c * r for c, r in zip(lp.objective, ray)) < 0


def test_dimension_validation():
    with pytest.raises(DimensionMismatchError):
        LinearProgram(objective=(F(1),), matrix=((F(1), F(2)),), rhs=(F(1),))
    with pytest.raises(DimensionMismatchError):
        LinearProgram(objective=(F(1),), matrix=((F(1),),), rhs=(F(1), F(2)))


@pytest.mark.parametrize("sense", ["MIN", "MAX", None])
def test_a_sense_that_is_not_a_sense_member_is_refused(sense):
    # "MIN" is not Sense.MIN: a string sense would be maximized
    with pytest.raises(TypeError, match=f"not {sense!r}"):
        LinearProgram(objective=(F(1), F(2)), matrix=((F(1), F(1)),), rhs=(F(1),), sense=sense)
    lp = LinearProgram(objective=(F(1), F(2)), matrix=((F(1), F(1)),), rhs=(F(1),), sense=Sense.MIN)
    solution = lp_solve(lp)
    assert (solution.value, solution.point) == (F(1), (F(1), F(0)))


def test_degenerate_ties_terminate():
    # every vertex of this system is degenerate; ties hit the pivot rule
    lp = LinearProgram(
        objective=(F(1), F(0), F(0)),
        matrix=(
            (F(1), F(1), F(0)),
            (F(0), F(1), F(1)),
            (F(1), F(0), F(1)),
        ),
        rhs=(F(1), F(1), F(1)),
        sense=Sense.MIN,
    )
    solution = lp_solve(lp)
    assert solution.status is LpStatus.OPTIMAL
    assert solution.value == F(1, 2)
    assert solution.point == (F(1, 2), F(1, 2), F(1, 2))
    assert solution.pivots <= comb(6, 3) + comb(3, 3) + 3


# a textbook degenerate instance on which Dantzig's rule cycles from the
# slack basis (columns 4-6); slacks included so the equality form matches
# the original bounds
CLASSIC_CYCLING = LinearProgram(
    objective=(F(-3, 4), F(150), F(-1, 50), F(6), F(0), F(0), F(0)),
    matrix=(
        (F(1, 4), F(-60), F(-1, 25), F(9), F(1), F(0), F(0)),
        (F(1, 2), F(-90), F(-1, 50), F(3), F(0), F(1), F(0)),
        (F(0), F(0), F(1), F(0), F(0), F(0), F(1)),
    ),
    rhs=(F(0), F(0), F(1)),
    sense=Sense.MIN,
)


def test_classic_cycling_instance_terminates():
    lp = CLASSIC_CYCLING
    solution = lp_solve(lp)
    assert solution.status is LpStatus.OPTIMAL
    assert solution.pivots <= comb(10, 3) + comb(7, 3) + 3
    feasible, best = lp_oracle(lp)
    assert feasible and solution.value == best


def test_redundant_constraints_are_harmless():
    # the second row repeats the first; the artificial basis must drain
    lp = LinearProgram(
        objective=(F(1), F(2)),
        matrix=((F(1), F(1)), (F(2), F(2))),
        rhs=(F(1), F(2)),
        sense=Sense.MIN,
    )
    solution = lp_solve(lp)
    assert solution.status is LpStatus.OPTIMAL
    assert solution.value == 1
    assert solution.point == (F(1), F(0))


def test_zero_rows_with_zero_rhs_are_dropped():
    lp = LinearProgram(
        objective=(F(1),),
        matrix=((F(0),), (F(1),)),
        rhs=(F(0), F(2)),
        sense=Sense.MAX,
    )
    solution = lp_solve(lp)
    assert solution.status is LpStatus.OPTIMAL
    assert solution.point == (F(2),)


@pytest.mark.parametrize(
    "lp, guided",
    [
        (LinearProgram(objective=(F(1), F(2)), matrix=(), rhs=()), True),
        (LinearProgram(objective=(F(1), F(-2)), matrix=(), rhs=()), False),
        # a zero reduced cost: the origin is optimal but not the only optimum
        (LinearProgram(objective=(F(1), F(0)), matrix=(), rhs=()), False),
        # no columns means a zero objective, which skips the guide
        (LinearProgram(objective=(), matrix=((),), rhs=(F(0),)), False),
        (LinearProgram(objective=(), matrix=((),), rhs=(F(1),)), False),
    ],
    ids=[
        "no_rows_bounded", "no_rows_unbounded", "no_rows_tied",
        "no_columns_rhs_0", "no_columns_rhs_1",
    ],
)
def test_empty_shapes_match_the_exact_path(lp, guided):
    solution = lp_solve(lp)
    assert answer(solution) == answer(lp_module._exact(lp))
    assert solution.guided is guided


def test_no_columns_and_rhs_1_has_a_farkas_certificate():
    # no x has 0 = 1: the artificial basis gives y = 1, and no column to check
    lp = LinearProgram(objective=(), matrix=((),), rhs=(F(1),))
    assert lp_module._certified_infeasible(lp, [0])


def test_enumeration_oracle_sees_the_blend_vertices():
    points = enumerate_basic_points(blend_program(Sense.MIN))
    assert (F(2, 5), F(3, 5), F(0)) in points
    assert (F(4, 7), F(0), F(3, 7)) in points
    assert len(points) == 2  # the third basis pair is infeasible


def test_random_programs_match_the_enumeration_oracle():
    rng = random.Random("lp-unit")
    for i in range(120):
        lp = rand_lp(rng)
        failures = _check_lp_against_oracle(lp, lp_solve(lp), f"case {i}")
        assert not failures, failures


def test_min_equals_negated_max():
    rng = random.Random("lp-minmax")
    for _ in range(60):
        lp = rand_lp(rng)
        flipped = LinearProgram(
            objective=tuple(-c for c in lp.objective),
            matrix=lp.matrix,
            rhs=lp.rhs,
            sense=Sense.MAX if lp.sense is Sense.MIN else Sense.MIN,
        )
        a, b = lp_solve(lp), lp_solve(flipped)
        assert a.status == b.status
        if a.status is LpStatus.OPTIMAL:
            assert a.value == -b.value


# ---------------------------------------------------------------------------
# the float guide against the exact Bland path, its reference
# ---------------------------------------------------------------------------


def answer(solution):
    return solution.status, solution.value, solution.point, solution.ray


@st.composite
def lifted_programs(draw):
    source = draw(spaces("X", max_size=7))
    target = draw(spaces("Y", max_size=4))
    kernel = draw(kernels(source, target))
    reachable = draw(st.booleans())
    query = lift(kernel)(draw(dists(source))) if reachable else draw(dists(target))
    sense = draw(st.sampled_from(Sense))
    return _lifted_program(kernel, draw(predicates(source)), query, sense)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        lifted_programs(),
        st.integers(min_value=0, max_value=10**6).map(lambda s: rand_lp(random.Random(s))),
    )
)
def test_guided_solve_matches_the_exact_path(lp):
    assert answer(lp_solve(lp)) == answer(lp_module._exact(lp))


def channel_with_twin(sense):
    # x2 and x3 share a row and a predicate value, so the optimum is not
    # unique: the certificate must refuse and leave the answer to Bland
    x = FiniteSpace("X", ("x1", "x2", "x3"))
    y = FiniteSpace("Y", ("y1", "y2"))
    rows = (Dist(y, (F(1), F(0))), Dist(y, (F(0), F(1))), Dist(y, (F(0), F(1))))
    pred = Predicate(x, (F(1, 2), F(1, 3), F(1, 3)))
    return _lifted_program(Kernel(x, y, rows), pred, Dist(y, (F(1, 2), F(1, 2))), sense)


@pytest.mark.parametrize("sense", list(Sense))
def test_dual_degenerate_fiber_falls_back_to_blands_vertex(sense):
    lp = channel_with_twin(sense)
    solution = lp_solve(lp)
    exact = lp_module._exact(lp)
    assert not solution.guided
    assert answer(solution) == answer(exact)
    assert solution.point == (F(1, 2), F(1, 2), F(0))
    # the pivots behind a fallback are the guide's plus the exact path's
    assert solution.pivots == lp_module._propose(lp).pivots + exact.pivots


def test_unreachable_query_is_certified_infeasible(channel, gain, two_points):
    # every row puts at least 3/10 on y1, so no mixture of them is (0, 1)
    lp = _lifted_program(channel, gain, Dist(two_points, (F(0), F(1))), Sense.MAX)
    solution = lp_solve(lp)
    assert solution.status is LpStatus.INFEASIBLE
    assert solution.guided


def generic_32x12_program():
    rng = random.Random("guided-32x12")
    source = rand_space(rng, "X", 32, 32)
    target = rand_space(rng, "Y", 12, 12)
    kernel = rand_kernel(rng, source, target)
    query = lift(kernel)(rand_dist(rng, source))
    return _lifted_program(kernel, rand_predicate(rng, source), query, Sense.MAX)


def test_infeasible_row_with_negative_rhs_is_certified():
    # no x >= 0 has x = -2; the standard form flips the row to -x = 2
    lp = LinearProgram(objective=(F(1),), matrix=((F(1),),), rhs=(F(-2),))
    solution = lp_solve(lp)
    assert solution.status is LpStatus.INFEASIBLE
    assert solution.guided


def test_optimal_row_with_negative_rhs_is_certified():
    # the standard form flips the row, so B and B^T are (1); the dual of the
    # flipped row has the opposite sign, and the reduced costs are unchanged
    lp = LinearProgram(objective=(F(1), F(2)), matrix=((F(-1), F(-1)),), rhs=(F(-2),))
    solution = lp_solve(lp)
    assert solution.point == (F(2), F(0))
    assert solution.guided


def test_generic_32x12_fiber_is_certified_optimal():
    lp = generic_32x12_program()
    solution = lp_solve(lp)
    assert solution.status is LpStatus.OPTIMAL
    assert solution.guided
    assert answer(solution) == answer(lp_module._exact(lp))


def test_guide_prices_phase_1_by_blands_rule():
    # phase 1 is Bland's in the guide as in the exact path, so on a program
    # that phase 1 alone solves, one with a zero objective, both pivot alike
    lp = generic_32x12_program()
    zero = LinearProgram((F(0),) * len(lp.objective), lp.matrix, lp.rhs, lp.sense)
    guide = zero.constraints.guide_start
    exact = lp_module._exact(zero)
    assert guide.status is LpStatus.OPTIMAL
    assert guide.pivots == exact.pivots
    assert sorted(guide.basis) == sorted(j for j, x in enumerate(exact.point) if x)


def test_bland_priced_phase_2_keeps_the_answer_and_the_certificate(monkeypatch):
    lp = generic_32x12_program()
    expected = answer(lp_solve(lp))
    monkeypatch.setattr(lp_module, "_dantzig", lp_module._bland)
    solution = lp_solve(lp)
    assert solution.guided
    assert answer(solution) == expected


def test_dantzig_cycle_reaches_the_cap_and_blands_vertex_stands():
    # Dantzig's rule started by hand at the slack basis cycles until the
    # guide's cap; lp_solve's guide starts from phase 1 and is certified at
    # the vertex of the exact Bland path
    lp = CLASSIC_CYCLING  # no b < 0, so no row to flip
    rows, rhs = [[float(a) for a in row] for row in lp.matrix], [float(b) for b in lp.rhs]
    cost = lp_module._min_cost(lp, map(float, lp.objective))
    basis, cap = [4, 5, 6], lp_module._guide_cap(3, 7)
    assert lp_module._iterate(
        cost, rows, rhs, basis, lp_module._dantzig, lp_module._TOL, 0, cap
    ) == (None, cap, None)
    solution = lp_solve(lp)
    assert solution.guided
    assert answer(solution) == answer(lp_module._exact(lp))
    assert solution.point == (F(1, 25), F(0), F(1), F(0), F(3, 100), F(0), F(0))


def test_dantzig_guide_certifies_where_blands_rule_stalls():
    # a 64x16 fiber through a mixture of three rows: degenerate enough that
    # Bland's rule in floats uses up the guide's pivot cap
    rng = random.Random("bland-stall-16-7")
    source = rand_space(rng, "X", 64, 64)
    target = rand_space(rng, "Y", 16, 16)
    kernel = rand_kernel(rng, source, target)
    weights = rand_dist(rng, rand_space(rng, "S", 3, 3)).weights
    mixed = rng.sample(range(len(source)), 3)
    mixture = [weights[mixed.index(k)] if k in mixed else F(0) for k in range(len(source))]
    query = lift(kernel)(Dist(source, tuple(mixture)))
    lp = _lifted_program(kernel, rand_predicate(rng, source), query, Sense.MIN)
    start = lp.constraints.guide_start
    assert start.status is LpStatus.OPTIMAL
    cost = lp_module._min_cost(lp, map(float, lp.objective))
    cap = lp_module._guide_cap(len(lp.rhs), len(cost))
    final = lp_module._phase2(start, cost, lp_module._bland, lp_module._TOL, cap)
    assert (final.status, final.pivots) == (None, cap)
    solution = lp_solve(lp)
    assert solution.guided
    assert answer(solution) == answer(lp_module._exact(lp))


@pytest.mark.parametrize(
    "lp",
    [
        # float(10**400) overflows, so the guide cannot even start
        LinearProgram(objective=(F(10**400), F(1)), matrix=((F(1), F(1)),), rhs=(F(1),)),
        # 1/10**400 reads as 0.0, so the guide sees an unbounded column
        LinearProgram(
            objective=(F(1), F(0)),
            matrix=((F(1, 10**400), F(1)),),
            rhs=(F(1),),
            sense=Sense.MAX,
        ),
    ],
    ids=["objective_10e400", "matrix_1_over_10e400"],
)
def test_entries_beyond_float_range_take_the_exact_path(lp):
    solution = lp_solve(lp)
    assert not solution.guided
    assert answer(solution) == answer(lp_module._exact(lp))


def test_zero_objective_skips_the_guide():
    # every reduced cost is zero, so no basis could pass the certificate
    lp = LinearProgram(objective=(F(0),) * 3, matrix=blend_program(Sense.MIN).matrix,
                       rhs=blend_program(Sense.MIN).rhs)
    assert lp_module._propose(lp) == _Tableau(None)
    solution = lp_solve(lp)
    assert not solution.guided
    assert solution == lp_module._exact(lp)


def test_pivot_cap_hands_over_to_the_exact_path(monkeypatch):
    monkeypatch.setattr(lp_module, "_guide_cap", lambda m, n: 1)
    lp = blend_program(Sense.MAX)
    solution = lp_solve(lp)
    exact = lp_module._exact(lp)
    assert not solution.guided
    assert answer(solution) == answer(exact)
    assert solution.pivots == 1 + exact.pivots


# ---------------------------------------------------------------------------
# phase 1 over the real columns: an artificial that leaves never re-enters
# ---------------------------------------------------------------------------


def degenerate_program(seed):
    """A program of at most 3x4, its entries drawn from {0, 0, 1, 1, -1, 2}."""
    rng = random.Random(f"reentry-{seed}")
    m, n = rng.randint(1, 3), rng.randint(1, 4)
    entry = lambda: F(rng.choice((0, 0, 1, 1, -1, 2)))
    return LinearProgram(
        objective=tuple(entry() for _ in range(n)),
        matrix=tuple(tuple(entry() for _ in range(n)) for _ in range(m)),
        rhs=tuple(entry() for _ in range(m)),
        sense=rng.choice((Sense.MIN, Sense.MAX)),
    )


# the seeds below 20,000 whose programs let an artificial column re-enter the
# basis when phase 1 carried the artificial columns in its rows
REENTRY_SEEDS = (
    655, 1007, 1685, 1737, 2339, 3343, 3919, 3975, 4342, 4672, 6185, 6322, 6875,
    8063, 8560, 9059, 9133, 9591, 10339, 10373, 10777, 11198, 11274, 11759, 13638,
    14097, 14899, 14964, 15378, 15875, 16984, 17262, 17742, 18470, 18630, 19291, 19395,
)


def seeded_lifted_program(seed):
    rng = random.Random(f"real-columns-lifted-{seed}")
    source, target = rand_space(rng, "X", 1, 12), rand_space(rng, "Y", 1, 6)
    kernel = rand_kernel(rng, source, target)
    reachable = rng.random() < 0.7
    query = lift(kernel)(rand_dist(rng, source)) if reachable else rand_dist(rng, target)
    return _lifted_program(kernel, rand_predicate(rng, source), query, rng.choice(list(Sense)))


def test_phase_1_pivots_only_real_columns_in(monkeypatch):
    programs = [rand_lp(random.Random(f"real-columns-{i}")) for i in range(200)]
    programs += [seeded_lifted_program(i) for i in range(60)]
    programs += [degenerate_program(seed) for seed in REENTRY_SEEDS]
    pivot, entered = lp_module._pivot, []

    def recording_pivot(rows, rhs, basis, r, e):
        entered.append((e, {len(row) for row in rows}))
        pivot(rows, rhs, basis, r, e)

    monkeypatch.setattr(lp_module, "_pivot", recording_pivot)
    for lp in programs:
        n = len(lp.objective)
        entered.clear()
        starts = lp.constraints.guide_start, lp.constraints.exact_start
        assert all(e < n and widths == {n} for e, widths in entered), entered
        assert all(len(row) == n for start in starts for row in start.rows)


def test_programs_where_an_artificial_re_entered_match_the_oracle():
    statuses = set()
    for seed in REENTRY_SEEDS:
        lp = degenerate_program(seed)
        solution = lp_solve(lp)
        assert not _check_lp_against_oracle(lp, solution, f"seed {seed}")
        assert answer(solution) == answer(lp_module._exact(lp))
        statuses.add(solution.status)
    assert statuses == {LpStatus.OPTIMAL, LpStatus.INFEASIBLE}


def test_phase_1_that_re_entered_an_artificial_certifies_infeasibility():
    # rows 1 and 2 force x1 = x2 = 2/3, which misses row 3; phase 1 with the
    # artificial columns in its rows let the artificial of row 2 re-enter
    lp = LinearProgram(
        objective=(F(1), F(1)),
        matrix=((F(1), F(2)), (F(1), F(-1)), (F(-1), F(2))),
        rhs=(F(2), F(0), F(2)),
    )
    solution = lp_solve(lp)
    assert solution.status is LpStatus.INFEASIBLE
    assert solution.guided


def test_guide_certifies_a_64_point_fiber_where_its_phase_1_reached_the_cap():
    # a 64x56 fiber through a mixture of three rows; while phase 1 carried the
    # artificial columns, Bland's rule in floats used up the guide's pivot cap
    # here and the answer fell back to the exact path
    rng = random.Random("phase1-cap-56-4")
    source = rand_space(rng, "X", 64, 64)
    target = rand_space(rng, "Y", 56, 56)
    kernel = rand_kernel(rng, source, target)
    weights = rand_dist(rng, rand_space(rng, "S", 3, 3)).weights
    mixed = rng.sample(range(len(source)), 3)
    mixture = [weights[mixed.index(k)] if k in mixed else F(0) for k in range(len(source))]
    query = lift(kernel)(Dist(source, tuple(mixture)))
    lp = _lifted_program(kernel, rand_predicate(rng, source), query, Sense.MAX)
    start = lp.constraints.guide_start
    assert start.status is LpStatus.OPTIMAL
    assert start.pivots < lp_module._guide_cap(len(lp.rhs), len(lp.objective))
    solution = lp_solve(lp)
    assert solution.guided
    assert answer(solution) == answer(lp_module._exact(lp))


# ---------------------------------------------------------------------------
# one phase 1 per constraint system, shared by every program over it
# ---------------------------------------------------------------------------


def sharing(lp, objectives):
    """Programs over ``lp``'s constraints, one per objective and sense."""
    return [
        LinearProgram(c, lp.matrix, lp.rhs, sense, constraints=lp.constraints)
        for c in objectives
        for sense in (Sense.MAX, Sense.MIN, Sense.MAX)
    ]


def assert_shared_solves_match_fresh_ones(programs):
    for lp in programs:
        fresh = LinearProgram(lp.objective, lp.matrix, lp.rhs, lp.sense)
        assert lp_solve(lp) == lp_solve(fresh)
        assert answer(lp_solve(lp)) == answer(lp_module._exact(fresh))


def test_infeasible_start_is_reused(channel, gain, two_points):
    lp = _lifted_program(channel, gain, Dist(two_points, (F(0), F(1))), Sense.MAX)
    programs = sharing(lp, [lp.objective, (F(1), F(0), F(1, 3))])
    assert_shared_solves_match_fresh_ones(programs)
    assert lp.constraints.guide_start.status is LpStatus.INFEASIBLE
    assert all(lp_solve(p).guided for p in programs)


def test_start_that_reached_the_cap_is_reused(monkeypatch):
    monkeypatch.setattr(lp_module, "_guide_cap", lambda m, n: 1)
    lp = blend_program(Sense.MAX)
    programs = sharing(lp, [lp.objective, (F(1), F(0), F(2))])
    assert_shared_solves_match_fresh_ones(programs)
    start = lp.constraints.guide_start
    assert (start.status, start.pivots) == (None, 1)
    for p in programs:
        assert lp_solve(p).pivots == 1 + lp_module._exact(p).pivots


def test_start_past_the_float_range_is_reused():
    lp = LinearProgram(objective=(F(1), F(2)), matrix=((F(10**400), F(1)),), rhs=(F(1),))
    assert_shared_solves_match_fresh_ones(sharing(lp, [lp.objective, (F(3), F(-1))]))
    start = lp.constraints.guide_start
    assert (start.status, start.pivots) == (None, 0)
    assert "exact_start" in vars(lp.constraints)


def test_constraints_of_another_system_are_refused():
    lp = blend_program(Sense.MIN)
    with pytest.raises(ValueError, match="another system"):
        LinearProgram(lp.objective, lp.matrix, (F(1, 2), F(1, 2)), constraints=lp.constraints)


# float guide proposals that the exact certificate must refuse, each on a
# program whose exact answer is known
WRONG_PROPOSALS = {
    "feasible_not_optimal": (blend_program(Sense.MIN), _Tableau(LpStatus.OPTIMAL, basis=[0, 2])),
    # dual feasible (the one nonbasic reduced cost is 13/20) but x_B = (2, -1)
    "negative_vertex": (blend_program(Sense.MIN), _Tableau(LpStatus.OPTIMAL, basis=[1, 2])),
    "singular": (blend_program(Sense.MIN), _Tableau(LpStatus.OPTIMAL, basis=[0, 0])),
    "too_few_columns": (blend_program(Sense.MIN), _Tableau(LpStatus.OPTIMAL, basis=[0])),
    "feasible_called_infeasible": (
        blend_program(Sense.MIN),
        _Tableau(LpStatus.INFEASIBLE, basis=[3, 4]),
    ),
    "singular_called_infeasible": (
        blend_program(Sense.MIN),
        _Tableau(LpStatus.INFEASIBLE, basis=[0, 0]),
    ),
    # the phase-1 optimum of a feasible program: y = 0, so only y.b > 0 refuses it
    "phase1_optimum_called_infeasible": (
        blend_program(Sense.MIN),
        _Tableau(LpStatus.INFEASIBLE, basis=[0, 1]),
    ),
}


@pytest.mark.parametrize("name", sorted(WRONG_PROPOSALS))
def test_wrong_guide_basis_is_refused(monkeypatch, name):
    lp, proposal = WRONG_PROPOSALS[name]
    monkeypatch.setattr(lp_module, "_propose", lambda lp: proposal)
    solution = lp_solve(lp)
    assert not solution.guided
    assert answer(solution) == answer(lp_module._exact(lp))


def test_wrong_guide_basis_is_refused_under_python_O(run_python):
    code = textwrap.dedent(
        """
        from fractions import Fraction as F
        from giryq import LinearProgram, LpStatus, Sense, lp_solve
        from giryq import lp as lp_module

        blend = LinearProgram(
            objective=(F(1, 2), F(3, 5), F(9, 10)),
            matrix=((F(1), F(1, 2), F(3, 10)), (F(0), F(1, 2), F(7, 10))),
            rhs=(F(7, 10), F(3, 10)),
            sense=Sense.MIN,
        )
        for status, basis in ((LpStatus.OPTIMAL, [0, 2]), (LpStatus.INFEASIBLE, [3, 4])):
            proposal = lp_module._Tableau(status, basis=basis)
            lp_module._propose = lambda lp: proposal
            s = lp_solve(blend)
            print(s.status.value, s.value, s.point, s.guided)
        """
    )
    done = run_python("-O", "-c", code)
    assert done.returncode == 0, done.stderr.decode()
    expected = "OPTIMAL 14/25 (Fraction(2, 5), Fraction(3, 5), Fraction(0, 1)) False\n"
    assert done.stdout.decode() == 2 * expected


def test_corrupted_certificate_vertex_is_refused_under_python_O(run_python):
    # the integer re-check of a guided answer is independent of the
    # certificate: a vertex (det, z) altered after it fails the re-check
    code = textwrap.dedent(
        """
        from fractions import Fraction as F
        from giryq import CertificateError, LinearProgram, Sense, lp_solve
        from giryq import lp as lp_module

        blend = LinearProgram(
            objective=(F(1, 2), F(3, 5), F(9, 10)),
            matrix=((F(1), F(1, 2), F(3, 10)), (F(0), F(1, 2), F(7, 10))),
            rhs=(F(7, 10), F(3, 10)),
            sense=Sense.MIN,
        )
        print(lp_solve(blend).guided)
        certify = lp_module._certified_vertex
        for k in range(2):
            def corrupted(lp, basis, k=k):
                det, z = certify(lp, basis)
                return det, [zk + (i == k) for i, zk in enumerate(z)]
            lp_module._certified_vertex = corrupted
            try:
                print(lp_solve(blend))
            except CertificateError as refused:
                print(refused)
        """
    )
    done = run_python("-O", "-c", code)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode() == "True\n" + 2 * "vertex violates constraint row 0\n"


def test_corrupted_exact_vertex_is_refused_under_python_O(run_python):
    # the exact path's vertex goes through the same integer re-check: a
    # basic value altered after phase 2 fails it
    code = textwrap.dedent(
        """
        from dataclasses import replace
        from fractions import Fraction as F
        from giryq import CertificateError, LinearProgram, Sense, lp_solve
        from giryq import lp as lp_module

        blend = LinearProgram(
            objective=(F(1, 2), F(3, 5), F(9, 10)),
            matrix=((F(1), F(1, 2), F(3, 10)), (F(0), F(1, 2), F(7, 10))),
            rhs=(F(7, 10), F(3, 10)),
            sense=Sense.MIN,
        )
        lp_module._propose = lambda lp: lp_module._Tableau(None)
        print(lp_solve(blend).guided)
        phase2 = lp_module._phase2
        for k in range(2):
            def corrupted(start, cost, rule, *args, k=k):
                final = phase2(start, cost, rule, *args)
                return replace(final, rhs=tuple(x + (i == k) for i, x in enumerate(final.rhs)))
            lp_module._phase2 = corrupted
            try:
                print(lp_solve(blend))
            except CertificateError as refused:
                print(refused)
        """
    )
    done = run_python("-O", "-c", code)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode() == "False\n" + 2 * "vertex violates constraint row 0\n"


def test_a_dual_that_misses_a_basic_column_is_refused_under_python_O(run_python):
    # the dual solve is checked where it is priced: a y altered after the
    # transposed solve raises, on a guided OPTIMAL and a guided INFEASIBLE answer
    code = textwrap.dedent(
        """
        from fractions import Fraction as F
        from giryq import CertificateError, LinearProgram, Sense, lp_solve
        from giryq import lp as lp_module

        blend = LinearProgram(
            objective=(F(1, 2), F(3, 5), F(9, 10)),
            matrix=((F(1), F(1, 2), F(3, 10)), (F(0), F(1, 2), F(7, 10))),
            rhs=(F(7, 10), F(3, 10)),
            sense=Sense.MIN,
        )
        unreachable = LinearProgram(
            objective=(F(1), F(1)),
            matrix=((F(1), F(2)), (F(1), F(-1)), (F(-1), F(2))),
            rhs=(F(2), F(0), F(2)),
        )
        programs = (blend, unreachable)
        print(*((s.status.value, s.guided) for s in map(lp_solve, programs)))
        solve = lp_module._transposed_solve
        for lp in programs:
            for k in range(len(lp.rhs)):
                def corrupted(eliminated, c, k=k):
                    det, w = solve(eliminated, c)
                    return det, [wk + (i == k) for i, wk in enumerate(w)]
                lp_module._transposed_solve = corrupted
                try:
                    print(lp_solve(lp))
                except CertificateError as refused:
                    print(refused)
        """
    )
    done = run_python("-O", "-c", code)
    assert done.returncode == 0, done.stderr.decode()
    lines = done.stdout.decode().splitlines()
    assert lines[0] == "('OPTIMAL', True) ('INFEASIBLE', True)"
    assert lines[1:] == 5 * ["dual solution misses a basic column"]


def test_each_certificate_eliminates_its_basis_once(monkeypatch):
    # an OPTIMAL answer eliminates [B | b], whose b column its vertex reads;
    # an INFEASIBLE one eliminates B alone
    eliminate, calls = lp_module._eliminate, []

    def counted(matrix, *rhs):
        calls.append((len(matrix), bool(rhs)))
        return eliminate(matrix, *rhs)

    monkeypatch.setattr(lp_module, "_eliminate", counted)
    programs = benchmark_sized_lifted_programs()
    programs += [rand_lp(random.Random(f"one-elimination-{i}")) for i in range(300)]
    guided = {LpStatus.OPTIMAL: 0, LpStatus.INFEASIBLE: 0}
    for lp in programs:
        calls.clear()
        solution = lp_solve(lp)
        if solution.guided:
            assert calls == [(len(lp.rhs), solution.status is LpStatus.OPTIMAL)], (lp, calls)
            guided[solution.status] += 1
    assert min(guided.values()) >= 100, guided


def test_integer_recheck_reads_the_standard_form_of_flipped_rows():
    # a row with b < 0 is negated in the standard form, which the integer
    # form and so the re-check read: the certified vertex must pass it
    lp = LinearProgram(
        objective=(F(1, 2), F(3, 5), F(9, 10)),
        matrix=((F(1), F(1, 2), F(3, 10)), (F(0), F(-1, 2), F(-7, 10))),
        rhs=(F(7, 10), F(-3, 10)),
        sense=Sense.MIN,
    )
    assert lp.constraints.integer_form[2] == (7, 3)
    solution = lp_solve(lp)
    assert solution.guided
    assert (solution.value, solution.point) == (F(14, 25), (F(2, 5), F(3, 5), F(0)))
    # and on random programs with flipped rows, each guided optimum is the
    # exact path's
    rng = random.Random("flipped-recheck")
    guided = 0
    for _ in range(300):
        lp = rand_lp(rng)
        if any(b < 0 for b in lp.rhs):
            solution = lp_solve(lp)
            assert answer(solution) == answer(lp_module._exact(lp))
            guided += solution.guided and solution.status is LpStatus.OPTIMAL
    assert guided >= 20, guided


# ---------------------------------------------------------------------------
# the integer solve behind the certificate
# ---------------------------------------------------------------------------


def gauss_jordan(matrix, rhs):
    """``(det, x)`` with ``matrix x = rhs`` in Fraction arithmetic, or None
    when the matrix is singular: the reference for the integer solve."""
    rows = [[F(a) for a in row] + [F(b)] for row, b in zip(matrix, rhs)]
    m, det = len(rows), F(1)
    for k in range(m):
        p = next((i for i in range(k, m) if rows[i][k]), None)
        if p is None:
            return None
        if p != k:
            rows[k], rows[p], det = rows[p], rows[k], -det
        det *= rows[k][k]
        rows[k] = [a / rows[k][k] for a in rows[k]]
        for i in range(m):
            if i != k and rows[i][k]:
                rows[i] = [a - rows[i][k] * t for a, t in zip(rows[i], rows[k])]
    return det, [row[m] for row in rows]


def agrees_with_fraction_elimination(matrix, rhs):
    """Whether the integer solve, :func:`_back_substitute` of the kept
    elimination of ``[matrix | rhs]``, matches :func:`gauss_jordan`, None
    included."""
    reference = gauss_jordan(matrix, rhs)
    eliminated = lp_module._eliminate(matrix, rhs)
    if reference is None or eliminated is None:
        return reference is eliminated
    det, z = eliminated[0], lp_module._back_substitute(eliminated)
    return abs(det) == abs(reference[0]) and [F(zk, det) for zk in z] == reference[1]


def random_integer_system(rng):
    m = rng.randint(1, 6)
    entry = lambda: rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-10**6, 10**6)))
    return [[entry() for _ in range(m)] for _ in range(m)], [entry() for _ in range(m)]


def transposed_agrees_with_fraction_elimination(matrix, rhs, c):
    """Whether ``B^T y = c``, solved from the kept elimination of ``B``,
    matches :func:`gauss_jordan` of the transpose, None included, over the
    ``det`` that the primal solve of the same elimination divides by."""
    reference = gauss_jordan([list(column) for column in zip(*matrix)], c)
    eliminated = lp_module._eliminate(matrix, rhs)
    if reference is None or eliminated is None:
        return reference is eliminated
    det, w = lp_module._transposed_solve(eliminated, c)
    primal = [F(zk, det) for zk in lp_module._back_substitute(eliminated)]
    assert primal == gauss_jordan(matrix, rhs)[1]
    return abs(det) == abs(reference[0]) and [F(wk, det) for wk in w] == reference[1]


CRAFTED_SYSTEMS = pytest.mark.parametrize(
    "matrix, rhs",
    [
        ([[0, 1], [1, 0]], [2, 3]),  # a zero leading pivot: rows swap
        ([[1, 2], [3, 4]], [5, 6]),  # determinant -2 with no swap
        ([[0, 2, 1], [3, 0, 0], [1, 1, 0]], [1, -1, 4]),
        ([[1, 2], [2, 4]], [1, 2]),  # singular
        ([[0, 0], [0, 1]], [0, 1]),  # singular with a zero column
        ([], []),
    ],
    ids=["row_swap", "negative_det", "swap_3x3", "singular", "zero_column", "empty"],
)


@CRAFTED_SYSTEMS
def test_integer_solve_matches_fraction_elimination(matrix, rhs):
    assert agrees_with_fraction_elimination(matrix, rhs)


@CRAFTED_SYSTEMS
def test_transposed_solve_matches_fraction_elimination(matrix, rhs):
    assert transposed_agrees_with_fraction_elimination(matrix, rhs, rhs)
    assert transposed_agrees_with_fraction_elimination(matrix, rhs, rhs[::-1])


def test_integer_solve_matches_fraction_elimination_on_random_systems():
    rng = random.Random("bareiss")
    systems = [random_integer_system(rng) for _ in range(300)]
    assert all(agrees_with_fraction_elimination(*system) for system in systems)
    # the seeded draw includes singular systems, which must give None
    assert 0 < sum(gauss_jordan(*system) is None for system in systems) < 300


def test_transposed_solve_matches_fraction_elimination_on_random_systems():
    rng = random.Random("bareiss")
    systems = [random_integer_system(rng) for _ in range(300)]
    entry = lambda: rng.choice((0, rng.randint(-9, 9), rng.randint(-10**6, 10**6)))
    costs = [[entry() for _ in rhs] for _, rhs in systems]
    assert all(
        transposed_agrees_with_fraction_elimination(matrix, rhs, c)
        for (matrix, rhs), c in zip(systems, costs)
    )
    # rows swap in the kept elimination of some of the nonsingular systems
    swapped = [
        eliminated[2] != sorted(eliminated[2])
        for eliminated in (lp_module._eliminate(*system) for system in systems)
        if eliminated is not None
    ]
    assert 0 < sum(swapped) < len(swapped)


def test_eliminating_the_matrix_alone_leaves_out_only_the_rhs_column():
    # a Farkas certificate reads L, U, the order and det, never the rhs
    rng = random.Random("bareiss")
    for matrix, rhs in (random_integer_system(rng) for _ in range(300)):
        augmented = lp_module._eliminate(matrix, rhs)
        alone = lp_module._eliminate(matrix)
        if augmented is None:
            assert alone is None
        else:
            det, rows, order = augmented
            assert alone == (det, [row[:-1] for row in rows], order)


@pytest.mark.parametrize("sense", list(Sense))
def test_columns_with_coprime_denominators_are_certified(sense):
    # each column is one kernel row with its own prime denominator, so every
    # column of the program gets a different scale
    x = FiniteSpace("X", tuple(f"x{i}" for i in range(6)))
    y = FiniteSpace("Y", ("y1", "y2", "y3"))
    rows = [(1, 0, 1, 2), (1, 1, 1, 3), (2, 1, 2, 5), (1, 4, 2, 7), (5, 3, 3, 11), (6, 2, 5, 13)]
    kernel = Kernel(x, y, tuple(Dist(y, (F(a, p), F(b, p), F(c, p))) for a, b, c, p in rows))
    pred = Predicate(x, (F(1, 4), F(2, 9), F(3, 25), F(6, 49), F(10, 121), F(1, 169)))
    query = lift(kernel)(Dist(x, (F(1, 6),) * 6))
    lp = _lifted_program(kernel, pred, query, sense)
    solution = lp_solve(lp)
    assert solution.guided
    assert answer(solution) == answer(lp_module._exact(lp))


# ---------------------------------------------------------------------------
# both certificates against a Fraction reference over A's own rows
# ---------------------------------------------------------------------------


def reference_column(lp, j):
    """Column ``j`` of ``A``, or for ``j >= n`` the artificial column of row
    ``j - n``: its unit vector signed like its ``b``, so that the row's
    artificial starts at the value ``|b|``."""
    n = len(lp.objective)
    if j < n:
        return [row[j] for row in lp.matrix]
    return [F(-1 if b < 0 else 1) if i == j - n else F(0) for i, b in enumerate(lp.rhs)]


def reference_dual(lp, basis, cost):
    """``(y, reduced)``: ``B^T y = c_B`` by :func:`gauss_jordan`, and the
    reduced cost of every real column; None when ``B`` is singular."""
    solved = gauss_jordan([reference_column(lp, j) for j in basis], [cost[j] for j in basis])
    if solved is None:
        return None
    _, y = solved
    columns = (reference_column(lp, j) for j in range(len(lp.objective)))
    return y, [c - sum(a * v for a, v in zip(col, y)) for c, col in zip(cost, columns)]


def reference_vertex(lp, basis):
    """The basic solution of ``basis`` if ``x_B >= 0`` and every nonbasic
    reduced cost is strictly positive, else None."""
    solved = gauss_jordan([[row[j] for j in basis] for row in lp.matrix], lp.rhs)
    if solved is None or any(x < 0 for x in solved[1]):
        return None
    cost = [c if lp.sense is Sense.MIN else -c for c in lp.objective]
    _, reduced = reference_dual(lp, basis, cost)
    if any(r <= 0 for j, r in enumerate(reduced) if j not in basis):
        return None
    point = [F(0)] * len(lp.objective)
    for j, x in zip(basis, solved[1]):
        point[j] = x
    return tuple(point)


def reference_farkas(lp, basis):
    """Whether the phase-1 dual of ``basis`` has ``y^T A <= 0`` and ``y^T b > 0``."""
    dual = reference_dual(lp, basis, [F(0)] * len(lp.objective) + [F(1)] * len(lp.rhs))
    if dual is None:
        return False
    y, reduced = dual
    return sum(v * b for v, b in zip(y, lp.rhs)) > 0 and all(r >= 0 for r in reduced)


def test_certificates_accept_exactly_the_bases_the_reference_accepts():
    # every basis of m columns, in a shuffled order: phase-2 bases of real
    # columns and phase-1 bases holding artificial ones, on programs whose
    # rows often have b < 0
    rng = random.Random("one-dual")
    accepted = {"vertex": 0, "farkas": 0, "vertex_flipped": 0, "farkas_flipped": 0}
    for _ in range(60):
        lp = rand_lp(rng)
        n, m = len(lp.objective), len(lp.rhs)
        flipped = any(b < 0 for b in lp.rhs)
        exact = lp_module._exact(lp)
        for basis in combinations(range(n + m), m):
            basis = rng.sample(basis, m)
            if max(basis) < n:
                vertex = reference_vertex(lp, basis)
                certified = lp_module._certified_vertex(lp, basis)
                if certified is not None:
                    # the answer at (det, z), through the integer re-check
                    certified = lp_module._optimal(lp, basis, *certified, 0, guided=True)
                assert (None if certified is None else certified.point) == vertex, (lp, basis)
                if vertex is not None:
                    assert (exact.point, exact.value) == (vertex, certified.value)
                    accepted["vertex"] += 1
                    accepted["vertex_flipped"] += flipped
            farkas = reference_farkas(lp, basis)
            assert lp_module._certified_infeasible(lp, basis) is farkas, (lp, basis)
            accepted["farkas"] += farkas
            accepted["farkas_flipped"] += farkas and flipped
    assert all(accepted.values()), accepted


# ---------------------------------------------------------------------------
# pinned answers: status, value, point and ray of every solve
# ---------------------------------------------------------------------------

ANSWERS = Path(__file__).resolve().parent / "lp_answers_seed0_cases20.json"


def answers_digest(solutions):
    """A sha256 over each solution's status, value, point and ray; pivots
    and ``guided`` are left out, as a change of pricing or of the guide may
    move them while every answer stays."""
    text = lambda v: None if v is None else str(v)
    vector = lambda xs: None if xs is None else [str(x) for x in xs]
    h = hashlib.sha256()
    for s in solutions:
        line = [s.status.value, text(s.value), vector(s.point), vector(s.ray)]
        h.update(json.dumps(line).encode() + b"\n")
    return h.hexdigest()


def benchmark_sized_lifted_programs():
    """200 seeded lifted programs at the benchmark's grades, 8x4 to 32x12:
    per kernel, a reachable interior query and a random target distribution
    (most of them unreachable), each in both senses."""
    rng = random.Random("lp-answers-lifted")
    programs = []
    for nx, ny in ((8, 4), (12, 6), (16, 8), (24, 10), (32, 12)):
        source, target = rand_space(rng, "X", nx, nx), rand_space(rng, "Y", ny, ny)
        for _ in range(10):
            kernel, pred = rand_kernel(rng, source, target), rand_predicate(rng, source)
            for query in (lift(kernel)(rand_dist(rng, source)), rand_dist(rng, target)):
                programs += [_lifted_program(kernel, pred, query, sense) for sense in Sense]
    return programs


def lp_answer_digests(monkeypatch):
    """Every lp_solve answer of each law suite at seed 0, 20 cases, of
    lp_solve and the exact path on 2,000 seeded random programs, and of
    lp_solve on 200 lifted programs at the benchmark's sizes."""
    solved = []

    def recording_solve(lp):
        solved.append(lp_solve(lp))
        return solved[-1]

    for module in (laws, quantifiers):
        monkeypatch.setattr(module, "lp_solve", recording_solve)
    digests = {}
    for name in SUITES:  # run_suites(seed=0, cases=20), one suite at a time
        report = run_suite(name, seed=0, cases=20)
        assert report.passed, report.failures
        digests[name] = answers_digest(solved)
        solved.clear()
    rng = random.Random("lp-answers")
    programs = [rand_lp(rng) for _ in range(2000)]
    digests["rand_lp.lp_solve"] = answers_digest(map(lp_solve, programs))
    digests["rand_lp._exact"] = answers_digest(map(lp_module._exact, programs))
    digests["lifted.lp_solve"] = answers_digest(map(lp_solve, benchmark_sized_lifted_programs()))
    return digests


def test_lp_answers_are_pinned(monkeypatch):
    assert lp_answer_digests(monkeypatch) == json.loads(ANSWERS.read_text())
