from fractions import Fraction as F

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from giryq import (
    Dist,
    DuplicateAtomError,
    FinSuppMeasure,
    LiftedPredicate,
    Predicate,
    SpaceMismatchError,
    TableSimplexPredicate,
    ValueOutOfRangeError,
    entails,
    expectation,
    identity_kernel,
    mixture,
    substitute,
)

from strategies import dists, kernels, predicates, spaces


@st.composite
def substitution_instance(draw):
    """A kernel plus two predicates on its target space."""
    sa = draw(spaces("A", max_size=4))
    sb = draw(spaces("B", max_size=4))
    return draw(kernels(sa, sb)), draw(predicates(sb)), draw(predicates(sb))


class TestPredicateConstruction:
    def test_values_above_one_rejected(self, two_points, three_points):
        with pytest.raises(ValueOutOfRangeError):
            Predicate(two_points, (F(1), F(11, 10)))
        # the range is decided over the common denominator 3 * 999_983
        with pytest.raises(ValueOutOfRangeError) as caught:
            Predicate(three_points, (F(1, 3), F(999_984, 999_983), F(2)))
        assert str(caught.value) == "value at 'x2' lies outside [0, 1]: 999984/999983"

    def test_negative_values_rejected(self, two_points, three_points):
        with pytest.raises(ValueOutOfRangeError):
            Predicate(two_points, (F(1), F(-1, 10)))
        with pytest.raises(ValueOutOfRangeError) as caught:
            Predicate(three_points, (F(1), F(-1, 10), F(-1)))
        assert str(caught.value) == "value at 'x2' lies outside [0, 1]: -1/10"

    def test_constant(self, three_points):
        pred = Predicate.constant(three_points, F(1, 3))
        assert all(v == F(1, 3) for v in pred.values)


class TestEntailment:
    def test_reflexive(self, gain):
        assert entails(gain, gain)

    def test_constant_bounds(self, gain, three_points):
        assert entails(Predicate.constant(three_points, 0), gain)
        assert entails(gain, Predicate.constant(three_points, 1))

    def test_fails_on_one_point(self, gain, three_points):
        other = Predicate(three_points, (F(1, 2), F(1, 2), F(1)))
        assert not entails(gain, other)  # 3/5 > 1/2 at x2
        assert not entails(other, gain)  # 1 > 9/10 at x3

    def test_space_mismatch(self, gain, two_points):
        with pytest.raises(SpaceMismatchError):
            entails(gain, Predicate.constant(two_points, 0))

    @settings(max_examples=50, deadline=None)
    @given(spaces("A").flatmap(lambda s: st.tuples(predicates(s), predicates(s))))
    def test_partial_order(self, pair):
        a, b = pair
        low = Predicate(a.space, tuple(min(x, y) for x, y in zip(a.values, b.values)))
        assert entails(a, a)
        assert entails(low, a) and entails(low, b)
        if entails(a, b) and entails(b, a):
            assert a == b


class TestExpectation:
    def test_at_point_mass(self, gain, three_points):
        for x in three_points.points:
            assert expectation(gain, Dist.dirac(three_points, x)) == gain.value_at(x)

    def test_hand_computed_values(self, gain, three_points):
        assert expectation(gain, Dist(three_points, (F(2, 5), F(3, 5), F(0)))) == F(14, 25)
        assert expectation(gain, Dist(three_points, (F(4, 7), F(0), F(3, 7)))) == F(47, 70)

    def test_space_mismatch(self, gain, two_points):
        with pytest.raises(SpaceMismatchError):
            expectation(gain, Dist.dirac(two_points, "y1"))

    @settings(max_examples=50, deadline=None)
    @given(
        spaces("A").flatmap(
            lambda s: st.tuples(predicates(s), dists(s), dists(s))
        )
    )
    def test_affine_over_mixtures(self, data):
        pred, p1, p2 = data
        atoms = [p1] if p1 == p2 else [p1, p2]
        weights = [F(1)] if p1 == p2 else [F(1, 3), F(2, 3)]
        spread = FinSuppMeasure(atoms, weights)
        direct = expectation(pred, mixture(spread))
        averaged = sum(w * expectation(pred, d) for d, w in spread)
        assert direct == averaged


class TestLiftedPredicate:
    def test_recovered_along_identity_kernel(self, gain, three_points):
        assert substitute(LiftedPredicate(gain), identity_kernel(three_points)) == gain

    @settings(max_examples=50, deadline=None)
    @given(spaces("A").flatmap(lambda s: st.tuples(predicates(s), dists(s))))
    def test_values_stay_in_unit_interval(self, data):
        pred, p = data
        value = LiftedPredicate(pred)(p)
        assert 0 <= value <= 1


class TestSubstitution:
    def test_expectation_along_each_row(self, channel, two_points):
        base = Predicate(two_points, (F(1, 2), F(3, 5)))
        pulled = substitute(LiftedPredicate(base), channel)
        # row x2 is the even blend: 1/2 * 1/2 + 1/2 * 3/5
        assert pulled.value_at("x2") == F(11, 20)
        assert pulled.value_at("x1") == F(1, 2)

    def test_probe_table_lookup(self, channel, two_points):
        table = TableSimplexPredicate(
            two_points,
            ((Dist(two_points, (F(1), F(0))), F(1)),),
            F(0),
        )
        pulled = substitute(table, channel)
        assert pulled.value_at("x1") == 1
        assert pulled.value_at("x2") == 0
        assert pulled.value_at("x3") == 0

    def test_space_mismatch(self, gain, channel):
        with pytest.raises(SpaceMismatchError):
            substitute(LiftedPredicate(gain), channel)

    @settings(max_examples=40, deadline=None)
    @given(substitution_instance())
    def test_monotone_for_lifted_predicates(self, data):
        kernel, upper, other = data
        lower = Predicate(
            upper.space,
            tuple(min(x, y) for x, y in zip(upper.values, other.values)),
        )
        assert entails(
            substitute(LiftedPredicate(lower), kernel),
            substitute(LiftedPredicate(upper), kernel),
        )


class TestTablePredicate:
    def test_duplicate_probes_rejected(self, two_points):
        probe = Dist(two_points, (F(1), F(0)))
        with pytest.raises(DuplicateAtomError):
            TableSimplexPredicate(two_points, ((probe, F(1)), (probe, F(0))), F(0))

    def test_values_validated(self, two_points):
        probe = Dist(two_points, (F(1), F(0)))
        with pytest.raises(ValueOutOfRangeError) as info:
            TableSimplexPredicate(two_points, ((probe, F(2)),), F(0))
        # the message names the offending probe by its weights
        assert str(info.value) == "table value at (1, 0) lies outside [0, 1]: 2"
        with pytest.raises(ValueOutOfRangeError) as info:
            TableSimplexPredicate(two_points, ((probe, F(1)),), F(3, 2))
        assert str(info.value) == "table default lies outside [0, 1]: 3/2"

    def test_probes_must_live_on_the_space(self, two_points, three_points):
        probe = Dist.dirac(three_points, "x1")
        with pytest.raises(SpaceMismatchError):
            TableSimplexPredicate(two_points, ((probe, F(1)),), F(0))

    def test_default_applies_off_table(self, two_points):
        table = TableSimplexPredicate(
            two_points,
            ((Dist(two_points, (F(1), F(0))), F(1)),),
            F(1, 4),
        )
        assert table(Dist(two_points, (F(1, 2), F(1, 2)))) == F(1, 4)
