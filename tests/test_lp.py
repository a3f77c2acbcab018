import random
import textwrap
from fractions import Fraction as F
from math import comb

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
from giryq import lp as lp_module
from giryq.laws import (
    _check_lp_against_oracle,
    enumerate_basic_points,
    lp_oracle,
    rand_dist,
    rand_kernel,
    rand_lp,
    rand_predicate,
    rand_space,
)
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


def test_classic_cycling_instance_terminates():
    # a textbook degenerate instance that cycles under naive pivoting;
    # slacks included so the equality form matches the original bounds
    lp = LinearProgram(
        objective=(F(-3, 4), F(150), F(-1, 50), F(6), F(0), F(0), F(0)),
        matrix=(
            (F(1, 4), F(-60), F(-1, 25), F(9), F(1), F(0), F(0)),
            (F(1, 2), F(-90), F(-1, 50), F(3), F(0), F(1), F(0)),
            (F(0), F(0), F(1), F(0), F(0), F(0), F(1)),
        ),
        rhs=(F(0), F(0), F(1)),
        sense=Sense.MIN,
    )
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
    assert solution.pivots == lp_module._propose(lp)[2] + exact.pivots


def test_unreachable_query_is_certified_infeasible(channel, gain, two_points):
    # every row puts at least 3/10 on y1, so no mixture of them is (0, 1)
    lp = _lifted_program(channel, gain, Dist(two_points, (F(0), F(1))), Sense.MAX)
    solution = lp_solve(lp)
    assert solution.status is LpStatus.INFEASIBLE
    assert solution.guided


def test_generic_32x12_fiber_is_certified_optimal():
    rng = random.Random("guided-32x12")
    source = rand_space(rng, "X", 32, 32)
    target = rand_space(rng, "Y", 12, 12)
    kernel = rand_kernel(rng, source, target)
    query = lift(kernel)(rand_dist(rng, source))
    lp = _lifted_program(kernel, rand_predicate(rng, source), query, Sense.MAX)
    solution = lp_solve(lp)
    assert solution.status is LpStatus.OPTIMAL
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


# float guide proposals that the exact certificate must refuse, each on a
# program whose exact answer is known
WRONG_PROPOSALS = {
    "feasible_not_optimal": (blend_program(Sense.MIN), (LpStatus.OPTIMAL, [0, 2], 0)),
    # dual feasible (the one nonbasic reduced cost is 13/20) but x_B = (2, -1)
    "negative_vertex": (blend_program(Sense.MIN), (LpStatus.OPTIMAL, [1, 2], 0)),
    "singular": (blend_program(Sense.MIN), (LpStatus.OPTIMAL, [0, 0], 0)),
    "too_few_columns": (blend_program(Sense.MIN), (LpStatus.OPTIMAL, [0], 0)),
    "feasible_called_infeasible": (blend_program(Sense.MIN), (LpStatus.INFEASIBLE, [3, 4], 0)),
    "singular_called_infeasible": (blend_program(Sense.MIN), (LpStatus.INFEASIBLE, [0, 0], 0)),
    # the phase-1 optimum of a feasible program: y = 0, so only y.b > 0 refuses it
    "phase1_optimum_called_infeasible": (
        blend_program(Sense.MIN),
        (LpStatus.INFEASIBLE, [0, 1], 0),
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
        for proposal in ((LpStatus.OPTIMAL, [0, 2], 0), (LpStatus.INFEASIBLE, [3, 4], 0)):
            lp_module._propose = lambda lp: proposal
            s = lp_solve(blend)
            print(s.status.value, s.value, s.point, s.guided)
        """
    )
    done = run_python("-O", "-c", code)
    assert done.returncode == 0, done.stderr.decode()
    expected = "OPTIMAL 14/25 (Fraction(2, 5), Fraction(3, 5), Fraction(0, 1)) False\n"
    assert done.stdout.decode() == 2 * expected
