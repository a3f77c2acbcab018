import dataclasses
import random
import textwrap
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from giryq import quantifiers
from giryq import (
    CertificateError,
    Dist,
    FiniteSpace,
    Kernel,
    LiftedPredicate,
    LinearProgram,
    LpStatus,
    PointFunction,
    Predicate,
    ProbeSetIncompleteError,
    QuantifiedPredicate,
    Regime,
    SpaceMismatchError,
    check_adjunction_bounds,
    check_composite,
    check_galois,
    compose,
    deterministic_kernel,
    entails,
    exists_composite,
    exists_fiber,
    exists_lifted,
    expectation,
    forall_composite,
    forall_fiber,
    forall_lifted,
    identity_kernel,
    image_measure,
    lift,
    lp_solve,
    mixture,
    quantify,
    substitute,
)
from giryq import lp as lp_module
from giryq.laws import rand_dist, rand_kernel, rand_predicate, rand_space
from giryq.lp import Sense
from giryq.quantifiers import _lifted_constraints, _lifted_program

from strategies import PRIMES, any_dists, dists, predicates, spaces, wide_dists


class TestFiberRegime:
    def test_exists_picks_the_unique_matching_row(self, channel, gain, two_points):
        result = exists_fiber(channel, gain, Dist(two_points, (F(1, 2), F(1, 2))))
        assert result.value == F(3, 5)
        assert result.witness == "x2"
        assert result.feasible and result.regime is Regime.COUNTABLE

    def test_exists_empty_fiber_is_zero(self, channel, gain, two_points):
        result = exists_fiber(channel, gain, Dist(two_points, (F(9, 10), F(1, 10))))
        assert result.value == 0
        assert result.witness is None
        assert not result.feasible

    def test_forall_picks_the_unique_matching_row(self, channel, gain, two_points):
        result = forall_fiber(channel, gain, Dist(two_points, (F(1), F(0))))
        assert result.value == F(1, 2)
        assert result.witness == "x1"

    def test_forall_empty_fiber_is_one(self, channel, gain, two_points):
        result = forall_fiber(channel, gain, Dist(two_points, (F(9, 10), F(1, 10))))
        assert result.value == 1
        assert not result.feasible

    def test_shared_row_takes_fiber_extremes(self, two_points):
        source = FiniteSpace("S", ("s1", "s2"))
        row = Dist(two_points, (F(1, 3), F(2, 3)))
        kernel = Kernel(source, two_points, (row, row))
        pred = Predicate(source, (F(1, 4), F(3, 4)))
        assert exists_fiber(kernel, pred, row).value == F(3, 4)
        assert forall_fiber(kernel, pred, row).value == F(1, 4)
        # first maximizer in declaration order wins ties
        even = Predicate(source, (F(1, 2), F(1, 2)))
        assert exists_fiber(kernel, even, row).witness == "s1"

    def test_deterministic_kernel_specializes_to_classical_search(
        self, three_points, two_points
    ):
        fn = PointFunction(three_points, two_points, ("y1", "y1", "y2"))
        kernel = deterministic_kernel(fn)
        pred = Predicate(three_points, (F(1, 5), F(4, 5), F(1)))
        at_y1 = exists_fiber(kernel, pred, Dist.dirac(two_points, "y1"))
        assert at_y1.value == F(4, 5) and at_y1.witness == "x2"
        assert forall_fiber(kernel, pred, Dist.dirac(two_points, "y1")).value == F(1, 5)

    def test_space_mismatch(self, channel, gain, three_points):
        with pytest.raises(SpaceMismatchError):
            exists_fiber(channel, gain, Dist.dirac(three_points, "x1"))


def _fiber_reference(kernel, pred, query, sense):
    """``(value, witness, feasible)`` of the fiber scan by its definition:
    every point whose row equals the query, ties to the first."""
    best = None
    for x, row, value in zip(kernel.source.points, kernel.rows, pred.values):
        if row == query and (
            best is None or (value > best[0] if sense is Sense.MAX else value < best[0])
        ):
            best = (value, x)
    if best is None:
        return (F(0) if sense is Sense.MAX else F(1)), None, False
    return (*best, True)


@st.composite
def pooled_kernels(draw, source, target):
    """A kernel whose rows come from a pool of one to three distributions,
    each repeat a separate object, so row classes hold several points."""
    pool = draw(st.lists(dists(target), min_size=1, max_size=3))
    picks = draw(st.lists(st.sampled_from(pool), min_size=len(source), max_size=len(source)))
    return Kernel(source, target, tuple(Dist(target, row.weights) for row in picks))


@st.composite
def tied_fibers(draw):
    """A kernel whose rows repeat (each repeat a separate object), a
    predicate with tied values, and a query on an equal but distinct
    target space: a pooled row or any distribution."""
    source = draw(spaces("S", min_size=2, max_size=7))
    target = draw(spaces("T", max_size=3))
    kernel = draw(pooled_kernels(source, target))
    values = st.sampled_from((F(0), F(1, 2), F(1)))
    pred = Predicate(source, tuple(draw(values) for _ in source.points))
    twin = FiniteSpace(target.name, target.points)
    query = draw(st.one_of(st.sampled_from(kernel.rows), dists(target)))
    return kernel, pred, Dist(twin, query.weights)


class TestClassIndexedFiber:
    """The fiber scan looks the query up among the row classes; it answers
    as the loop over rows that compares each with the query."""

    @pytest.mark.parametrize("sense", [Sense.MAX, Sense.MIN], ids=["exists", "forall"])
    @settings(max_examples=150, deadline=None)
    @given(data=tied_fibers())
    def test_agrees_with_the_row_loop(self, sense, data):
        kernel, pred, query = data
        assert query.space is not kernel.target
        result = quantify(kernel, pred, query, sense, Regime.COUNTABLE)
        expected = _fiber_reference(kernel, pred, query, sense)
        assert (result.value, result.witness, result.feasible) == expected

    @pytest.mark.parametrize(
        "sense, answer", [(Sense.MAX, (F(1), "s3")), (Sense.MIN, (F(1, 4), "s2"))],
        ids=["exists", "forall"],
    )
    def test_ties_and_an_equal_space_object(self, two_points, sense, answer):
        source = FiniteSpace("S", ("s1", "s2", "s3", "s4", "s5"))
        a, b = (F(1, 3), F(2, 3)), (F(1), F(0))
        kernel = Kernel(source, two_points, tuple(Dist(two_points, w) for w in (b, a, a, b, a)))
        pred = Predicate(source, (F(1), F(1, 4), F(1), F(1), F(1, 4)))
        query = Dist(FiniteSpace("Y", ("y1", "y2")), a)
        result = quantify(kernel, pred, query, sense, Regime.COUNTABLE)
        assert (result.value, result.witness, result.feasible) == (*answer, True)
        assert (result.value, result.witness, result.feasible) == _fiber_reference(
            kernel, pred, query, sense
        )


def _near_tie(p, q):
    """``(a/p, b/q)`` in [0, 1], ``1/(p*q)`` apart, for coprime ``p`` and ``q``."""
    a = pow(q, -1, p)  # a*q - 1 is b*p, so a/p - b/q is 1/(p*q)
    return F(a, p), F((a * q - 1) // p, q)


@st.composite
def close_predicates(draw, space):
    """Values over wide coprime denominators (``PRIMES``), two of them
    ``1/(p*q)`` apart and some exactly tied."""
    values = list(draw(predicates(space, dens=st.sampled_from(PRIMES))).values)
    p, q = draw(st.lists(st.sampled_from(PRIMES), min_size=2, max_size=2, unique=True))
    index = st.integers(min_value=0, max_value=len(values) - 1)
    for value in _near_tie(p, q):
        values[draw(index)] = value
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        values[draw(index)] = values[draw(index)]
    return Predicate(space, tuple(values))


@st.composite
def close_fibers(draw):
    """A kernel with repeated rows, a close predicate and a query: one of
    the rows or any distribution."""
    source = draw(spaces("S", min_size=2, max_size=7))
    kernel = draw(pooled_kernels(source, draw(spaces("T", max_size=3))))
    query = draw(st.one_of(st.sampled_from(kernel.rows), dists(kernel.target)))
    return kernel, draw(close_predicates(source)), query


@st.composite
def close_chains(draw):
    """Two kernels with repeated rows, so row classes, spreads and mixtures
    merge; a close predicate; and a query: a composed row or any
    distribution."""
    sx = draw(spaces("X", min_size=2, max_size=7))
    sy = draw(spaces("Y", max_size=3))
    sz = draw(spaces("Z", max_size=3))
    inner = draw(pooled_kernels(sx, sy))
    outer = draw(pooled_kernels(sy, sz))
    query = draw(st.one_of(st.sampled_from(compose(outer, inner).rows), dists(sz)))
    return inner, outer, draw(close_predicates(sx)), query


def _staged_reference(inner, outer, pred, query, sense):
    """``(value, witness, feasible)`` of the staged nesting by its
    definition, every choice a ``Fraction`` comparison: the best point per
    row of ``inner``, per image measure along ``outer``, per mixture, ties
    to the first."""

    def keep(entries):
        table = {}
        for key, (value, x) in entries:
            if key not in table or (
                value > table[key][0] if sense is Sense.MAX else value < table[key][0]
            ):
                table[key] = (value, x)
        return table

    rows = keep(zip(inner.rows, zip(pred.values, inner.source.points)))
    spreads = keep((image_measure(outer, row), b) for row, b in rows.items())
    best = keep((mixture(spread), b) for spread, b in spreads.items()).get(query)
    if best is None:
        return (F(0) if sense is Sense.MAX else F(1)), None, False
    return (*best, True)


class TestNumeratorOptima:
    """Optima are decided on the predicate's integer numerators; over wide
    coprime denominators, near-ties and exact ties they choose as
    ``Fraction`` comparisons do."""

    @pytest.mark.parametrize("sense", [Sense.MAX, Sense.MIN], ids=["exists", "forall"])
    @settings(max_examples=150, deadline=None)
    @given(data=close_fibers())
    def test_the_fiber_scan_agrees_with_the_fraction_loop(self, sense, data):
        kernel, pred, query = data
        result = quantify(kernel, pred, query, sense, Regime.COUNTABLE)
        expected = _fiber_reference(kernel, pred, query, sense)
        assert (result.value, result.witness, result.feasible) == expected

    @pytest.mark.parametrize("sense", [Sense.MAX, Sense.MIN], ids=["exists", "forall"])
    @settings(max_examples=150, deadline=None)
    @given(data=close_chains())
    def test_the_staged_composite_agrees_with_the_fraction_loop(self, sense, data):
        inner, outer, pred, query = data
        result, failure = check_composite(inner, outer, pred, query, sense)
        expected = _staged_reference(inner, outer, pred, query, sense)
        assert (result.value, result.witness, result.feasible) == expected
        assert failure is None

    def test_a_near_tie_is_decided(self, two_points):
        source = FiniteSpace("S", ("s1", "s2", "s3"))
        high, low = _near_tie(PRIMES[0], PRIMES[1])
        assert high - low == F(1, PRIMES[0] * PRIMES[1])
        row = Dist(two_points, (F(1, 2), F(1, 2)))
        kernel = Kernel(source, two_points, (row,) * 3)
        pred = Predicate(source, (low, high, low))
        assert exists_fiber(kernel, pred, row).witness == "s2"
        assert forall_fiber(kernel, pred, row).witness == "s1"


class TestLiftedRegime:
    def test_blend_minimum_and_maximum(self, channel, gain, two_points):
        query = Dist(two_points, (F(7, 10), F(3, 10)))
        lo = forall_lifted(channel, gain, query)
        hi = exists_lifted(channel, gain, query)
        assert lo.value == F(14, 25)
        assert hi.value == F(47, 70)
        assert lo.witness == Dist(channel.source, (F(2, 5), F(3, 5), F(0)))
        assert hi.witness == Dist(channel.source, (F(4, 7), F(0), F(3, 7)))

    def test_witnesses_are_exact_preimages(self, channel, gain, two_points):
        query = Dist(two_points, (F(7, 10), F(3, 10)))
        apply_f = lift(channel)
        for result in (
            forall_lifted(channel, gain, query),
            exists_lifted(channel, gain, query),
        ):
            assert result.feasible and result.regime is Regime.LP
            assert apply_f(result.witness) == query
            assert expectation(gain, result.witness) == result.value

    def test_identity_kernel_reduces_to_expectation(self, gain, three_points):
        query = Dist(three_points, (F(1, 6), F(1, 3), F(1, 2)))
        expected = expectation(gain, query)
        assert exists_lifted(identity_kernel(three_points), gain, query).value == expected
        assert forall_lifted(identity_kernel(three_points), gain, query).value == expected

    def test_invertible_square_kernel_has_singleton_fibers(self, two_points):
        source = FiniteSpace("S", ("s1", "s2"))
        kernel = Kernel(
            source,
            two_points,
            (
                Dist(two_points, (F(1, 2), F(1, 2))),
                Dist(two_points, (F(1, 4), F(3, 4))),
            ),
        )
        pred = Predicate(source, (F(1, 3), F(5, 6)))
        # the unique preimage of (1/3, 2/3) is (1/3, 2/3) itself:
        # 1/3 * (1/2, 1/2) + 2/3 * (1/4, 3/4) = (1/3, 2/3)
        query = Dist(two_points, (F(1, 3), F(2, 3)))
        preimage = Dist(source, (F(1, 3), F(2, 3)))
        assert lift(kernel)(preimage) == query
        value = expectation(pred, preimage)
        assert exists_lifted(kernel, pred, query).value == value
        assert forall_lifted(kernel, pred, query).value == value

    def test_unreachable_query_falls_back_to_constants(self, channel, gain, two_points):
        # every row puts at least 3/10 on y1, so (0, 1) is outside the image
        outside = Dist(two_points, (F(0), F(1)))
        lo = forall_lifted(channel, gain, outside)
        hi = exists_lifted(channel, gain, outside)
        assert (lo.value, lo.feasible, lo.witness) == (F(1), False, None)
        assert (hi.value, hi.feasible, hi.witness) == (F(0), False, None)

    def test_forall_never_exceeds_exists(self, channel, gain, two_points):
        rng = random.Random("order")
        for _ in range(20):
            query = rand_dist(rng, two_points)
            hi = exists_lifted(channel, gain, query)
            if hi.feasible:
                assert forall_lifted(channel, gain, query).value <= hi.value

    def test_complement_duality(self, channel, gain, two_points):
        flipped = Predicate(gain.space, tuple(1 - v for v in gain.values))
        rng = random.Random("dual")
        for _ in range(20):
            query = rand_dist(rng, two_points)
            assert (
                forall_lifted(channel, gain, query).value
                == 1 - exists_lifted(channel, flipped, query).value
            )


def _bounds(kernel, pred, regime):
    """The existential and universal bounds at each row image, as predicates."""
    return tuple(
        substitute(QuantifiedPredicate(kernel, pred, sense, regime), kernel)
        for sense in (Sense.MAX, Sense.MIN)
    )


class TestQuantifiedPredicate:
    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("sense", list(Sense))
    def test_is_the_quantifier_at_every_row_image(self, channel, gain, sense, regime):
        h = QuantifiedPredicate(channel, gain, sense, regime)
        assert h.space == channel.target
        for row in channel.rows:
            assert h(row) == quantify(channel, gain, row, sense, regime).value

    @pytest.mark.parametrize("regime", list(Regime))
    def test_off_image_query_takes_the_extension_value(
        self, channel, gain, two_points, regime
    ):
        # outside the convex hull of the rows, so off the image in both regimes
        off = Dist(two_points, (F(1, 10), F(9, 10)))
        assert QuantifiedPredicate(channel, gain, Sense.MAX, regime)(off) == 0
        assert QuantifiedPredicate(channel, gain, Sense.MIN, regime)(off) == 1

    def test_substitution_along_another_target_is_refused(self, channel, gain, three_points):
        h = QuantifiedPredicate(channel, gain, Sense.MAX, Regime.COUNTABLE)
        with pytest.raises(SpaceMismatchError):
            substitute(h, identity_kernel(three_points))


class TestAdjunctionBounds:
    def test_channel_bounds_in_the_lifted_regime(self, channel, gain):
        assert check_adjunction_bounds(channel, gain, Regime.LP) == []
        upper, lower = _bounds(channel, gain, Regime.LP)
        assert entails(gain, upper) and entails(lower, gain)
        # the third row reaches its image only through its own point mass
        assert upper.value_at("x3") == lower.value_at("x3") == gain.value_at("x3") == F(9, 10)

    def test_channel_bounds_in_the_fiber_regime(self, channel, gain):
        assert check_adjunction_bounds(channel, gain, Regime.COUNTABLE) == []

    def test_failures_name_each_violated_bound(self, channel, gain, monkeypatch):
        real = quantifiers.quantify

        def broken(kernel, pred, query, sense, regime):
            result = real(kernel, pred, query, sense, regime)
            # the existential drops below the predicate at the image of x1,
            # and the universal rises above it at the image of x2
            if sense is Sense.MAX and query == kernel.row("x1"):
                return dataclasses.replace(result, value=F(1, 4))
            if sense is Sense.MIN and query == kernel.row("x2"):
                return dataclasses.replace(result, value=F(2, 3))
            return result

        monkeypatch.setattr(quantifiers, "quantify", broken)
        assert check_adjunction_bounds(channel, gain, Regime.COUNTABLE) == [
            "x1: predicate 1/2 exceeds existential bound 1/4",
            "x2: universal bound 2/3 exceeds predicate 3/5",
        ]

    def test_injective_embedding_gives_equalities(self, three_points):
        target = FiniteSpace("T", ("t1", "t2", "t3"))
        fn = PointFunction(three_points, target, ("t2", "t3", "t1"))
        kernel = deterministic_kernel(fn)
        pred = Predicate(three_points, (F(1, 7), F(2, 7), F(3, 7)))
        for regime in (Regime.COUNTABLE, Regime.LP):
            assert check_adjunction_bounds(kernel, pred, regime) == []
            assert _bounds(kernel, pred, regime) == (pred, pred)

    def test_constant_predicate_collapses_both_bounds(self, channel, three_points):
        pred = Predicate.constant(three_points, F(2, 5))
        for regime in (Regime.COUNTABLE, Regime.LP):
            assert check_adjunction_bounds(channel, pred, regime) == []
            assert _bounds(channel, pred, regime) == (pred, pred)


class TestGalois:
    def test_constant_one_upper_bound(self, channel, gain, two_points):
        probes = [channel.row(x) for x in channel.source.points]
        report = check_galois(
            channel, gain, LiftedPredicate(Predicate.constant(two_points, 1)), probes
        )
        assert report.exists_premise and report.exists_conclusion
        assert report.ok

    def test_constant_zero_lower_bound(self, channel, gain, two_points):
        probes = [channel.row(x) for x in channel.source.points]
        report = check_galois(
            channel, gain, LiftedPredicate(Predicate.constant(two_points, 0)), probes
        )
        assert report.forall_premise and report.forall_conclusion
        assert report.ok

    def test_crafted_counterexample_fails_on_both_sides(
        self, channel, three_points, two_points
    ):
        pred = Predicate(three_points, (F(1), F(0), F(0)))
        # h sits strictly below the predicate at the image of x1
        h = LiftedPredicate(Predicate.constant(two_points, F(1, 2)))
        probes = [channel.row(x) for x in channel.source.points]
        report = check_galois(channel, pred, h, probes)
        assert not report.exists_premise
        assert not report.exists_conclusion
        assert report.ok

    def test_incomplete_probe_set_is_rejected(self, channel, gain):
        probes = [channel.row("x1"), channel.row("x2")]
        with pytest.raises(ProbeSetIncompleteError):
            check_galois(
                channel,
                gain,
                LiftedPredicate(Predicate.constant(channel.target, 1)),
                probes,
            )

    def test_off_image_probes_cannot_falsify(self, channel, gain, two_points):
        probes = [channel.row(x) for x in channel.source.points]
        probes.append(Dist(two_points, (F(1, 100), F(99, 100))))
        report = check_galois(
            channel, gain, LiftedPredicate(Predicate.constant(two_points, 1)), probes
        )
        assert report.ok


class TestComposite:
    def _chain(self):
        sx = FiniteSpace("X", ("x1", "x2", "x3"))
        sy = FiniteSpace("Y", ("y1", "y2"))
        sz = FiniteSpace("Z", ("z1", "z2"))
        inner = Kernel(
            sx,
            sy,
            (
                Dist(sy, (F(1), F(0))),
                Dist(sy, (F(1, 2), F(1, 2))),
                Dist(sy, (F(3, 10), F(7, 10))),
            ),
        )
        outer = Kernel(
            sy,
            sz,
            (
                Dist(sz, (F(1, 2), F(1, 2))),
                Dist(sz, (F(0), F(1))),
            ),
        )
        pred = Predicate(sx, (F(1, 2), F(3, 5), F(9, 10)))
        return inner, outer, pred

    def test_staged_matches_direct_at_reachable_queries(self):
        inner, outer, pred = self._chain()
        direct = compose(outer, inner)
        for x in inner.source.points:
            q = direct.row(x)
            for staged_fn, direct_fn in (
                (exists_composite, exists_fiber),
                (forall_composite, forall_fiber),
            ):
                nested = staged_fn(inner, outer, pred, q)
                straight = direct_fn(direct, pred, q)
                assert nested.value == straight.value
                assert nested.feasible and straight.feasible

    def test_empty_final_fiber_uses_conventions(self):
        inner, outer, pred = self._chain()
        unreachable = Dist(outer.target, (F(1), F(0)))
        assert exists_composite(inner, outer, pred, unreachable).value == 0
        assert forall_composite(inner, outer, pred, unreachable).value == 1
        direct = compose(outer, inner)
        assert exists_fiber(direct, pred, unreachable).value == 0
        assert forall_fiber(direct, pred, unreachable).value == 1

    def test_ties_follow_the_nesting_not_the_point_order(self):
        sx = FiniteSpace("X", ("x1", "x2", "x3"))
        sy = FiniteSpace("Y", ("y1", "y2", "y3"))
        sz = FiniteSpace("Z", ("z1", "z2"))
        half = Dist(sz, (F(1, 2), F(1, 2)))
        # x1 and x3 share a row class, listed first because x1 is; x2's
        # class reaches the same mixture through a different spread
        inner = Kernel(sx, sy, (
            Dist.dirac(sy, "y3"), Dist(sy, (F(1, 2), F(1, 2), F(0))), Dist.dirac(sy, "y3"),
        ))
        outer = Kernel(sy, sz, (Dist.dirac(sz, "z1"), Dist.dirac(sz, "z2"), half))
        direct = compose(outer, inner)
        assert direct.rows == (half, half, half)
        for sense, staged_fn, direct_fn, tied in (
            (Sense.MAX, exists_composite, exists_fiber, F(7, 10)),
            (Sense.MIN, forall_composite, forall_fiber, F(3, 10)),
        ):
            pred = Predicate(sx, (F(1, 2), tied, tied))
            staged = staged_fn(inner, outer, pred, half)
            straight = direct_fn(direct, pred, half)
            assert (staged.value, staged.witness) == (tied, "x3")
            assert (straight.value, straight.witness) == (tied, "x2")
            assert check_composite(inner, outer, pred, half, sense) == (staged, None)

    def test_deterministic_chain_is_classical(self):
        sx = FiniteSpace("X", ("x1", "x2", "x3"))
        sy = FiniteSpace("Y", ("y1", "y2"))
        sz = FiniteSpace("Z", ("z1", "z2"))
        inner = deterministic_kernel(PointFunction(sx, sy, ("y1", "y1", "y2")))
        outer = deterministic_kernel(PointFunction(sy, sz, ("z2", "z1")))
        pred = Predicate(sx, (F(1, 4), F(1, 2), F(1)))
        # x1, x2 land on z2; x3 lands on z1
        at_z2 = exists_composite(inner, outer, pred, Dist.dirac(sz, "z2"))
        assert at_z2.value == F(1, 2) and at_z2.witness == "x2"
        assert forall_composite(inner, outer, pred, Dist.dirac(sz, "z2")).value == F(1, 4)
        assert exists_composite(inner, outer, pred, Dist.dirac(sz, "z1")).value == 1

    def test_random_instances_agree_exactly(self):
        rng = random.Random("composite")
        for _ in range(40):
            sx = rand_space(rng, "A", max_size=4)
            sy = rand_space(rng, "B", max_size=4)
            sz = rand_space(rng, "C", max_size=4)
            inner = rand_kernel(rng, sx, sy)
            outer = rand_kernel(rng, sy, sz)
            pred = rand_predicate(rng, sx)
            direct = compose(outer, inner)
            queries = list(dict.fromkeys(direct.rows)) + [rand_dist(rng, sz)]
            for q in queries:
                assert (
                    exists_composite(inner, outer, pred, q).value
                    == exists_fiber(direct, pred, q).value
                )
                assert (
                    forall_composite(inner, outer, pred, q).value
                    == forall_fiber(direct, pred, q).value
                )

    def test_kept_stages_answer_as_fresh_ones(self):
        def answer(result):
            return result.value, result.witness, result.feasible

        rng = random.Random("composite-memo")
        for _ in range(30):
            sx = rand_space(rng, "A", max_size=6)
            sy = rand_space(rng, "B", max_size=4)
            sz = rand_space(rng, "C", max_size=4)
            # rows drawn from a small pool, so row classes hold several points
            pool = rand_kernel(rng, sy, sy).rows
            inner = Kernel(sx, sy, tuple(rng.choice(pool) for _ in sx.points))
            outer = rand_kernel(rng, sy, sz)
            preds = (rand_predicate(rng, sx), rand_predicate(rng, sx))
            queries = list(dict.fromkeys(compose(outer, inner).rows)) + [rand_dist(rng, sz)]
            calls = [
                (staged_fn, pred, q)
                for q in queries
                for pred in preds
                for staged_fn in (exists_composite, forall_composite)
            ]
            # the first call stages the pair; every later one reuses stages
            # built for another query, predicate or sense
            quantifiers._pair.cache_clear()
            warm = [answer(fn(inner, outer, pred, q)) for fn, pred, q in calls]
            assert quantifiers._pair.cache_info().hits == len(calls) - 1
            cold = []
            for fn, pred, q in calls:
                quantifiers._pair.cache_clear()
                cold.append(answer(fn(inner, outer, pred, q)))
            assert warm == cold

    def test_space_mismatches_are_rejected(self):
        inner, outer, pred = self._chain()
        with pytest.raises(SpaceMismatchError):
            exists_composite(outer, inner, pred, Dist.dirac(inner.target, "y1"))
        with pytest.raises(SpaceMismatchError):
            exists_composite(inner, outer, pred, Dist.dirac(inner.target, "y1"))
        # the predicate and the query fit, but the kernels do not meet
        sx = inner.source
        with pytest.raises(
            SpaceMismatchError, match="^inner lands in 'Y' but outer starts at 'X'$"
        ):
            exists_composite(inner, identity_kernel(sx), pred, Dist.dirac(sx, "x1"))


    def test_a_warm_pair_lookup_hashes_no_row(self, monkeypatch):
        inner, outer, _ = self._chain()
        quantifiers._pair(inner, outer)
        hashed = []
        unpatched = Dist.__hash__

        def counting(dist):
            hashed.append(dist)
            return unpatched(dist)

        monkeypatch.setattr(Dist, "__hash__", counting)
        hash(inner.rows[0])
        assert hashed == [inner.rows[0]]  # the counter sees a row's hash
        hashed.clear()
        quantifiers._pair(inner, outer)
        assert quantifiers._pair.cache_info().hits == 1
        assert hashed == []

    def test_a_warm_compose_makes_no_fraction_order_comparison(self, monkeypatch):
        rng = random.Random("warm-compose")
        sx = rand_space(rng, "X", min_size=64, max_size=64)
        sy = rand_space(rng, "Y", min_size=8, max_size=8)
        sz = rand_space(rng, "Z", min_size=8, max_size=8)
        # rows drawn from small pools, so classes, spreads and mixtures merge
        inner_pool = [rand_dist(rng, sy) for _ in range(8)]
        outer_pool = [rand_dist(rng, sz) for _ in range(4)]
        inner = Kernel(sx, sy, tuple(rng.choice(inner_pool) for _ in sx.points))
        outer = Kernel(sy, sz, tuple(rng.choice(outer_pool) for _ in sy.points))
        pred = rand_predicate(rng, sx)
        query = compose(outer, inner).rows[0]
        for sense in (Sense.MAX, Sense.MIN):
            check_composite(inner, outer, pred, query, sense)
        compared = []
        for name in ("__lt__", "__gt__", "__le__", "__ge__"):
            unpatched = getattr(F, name)

            def counting(a, b, unpatched=unpatched):
                compared.append((a, b))
                return unpatched(a, b)

            monkeypatch.setattr(F, name, counting)
        assert F(1, 3) < F(1, 2)
        assert compared == [(F(1, 3), F(1, 2))]  # the counter sees a comparison
        compared.clear()
        for sense in (Sense.MAX, Sense.MIN):
            result, failure = check_composite(inner, outer, pred, query, sense)
            assert result.feasible and failure is None
        assert quantifiers._pair.cache_info().misses == 1
        assert compared == []

def fresh(lp):
    """The same program with constraints of its own: nothing shared."""
    return LinearProgram(lp.objective, lp.matrix, lp.rhs, lp.sense)


def twin_channel():
    # x2 and x3 share a row and a predicate value: the optimum is not unique,
    # so the certificate refuses and the exact path answers
    x = FiniteSpace("X", ("x1", "x2", "x3"))
    y = FiniteSpace("Y", ("y1", "y2"))
    rows = (Dist(y, (F(1), F(0))), Dist(y, (F(0), F(1))), Dist(y, (F(0), F(1))))
    preds = (Predicate(x, (F(1, 2), F(1, 3), F(1, 3))), Predicate(x, (F(1), F(1, 5), F(1, 5))))
    return Kernel(x, y, rows), preds, Dist(y, (F(1, 2), F(1, 2)))


class TestSharedFiber:
    """Programs over one fiber share the phase 1 that reads only the fiber."""

    SENSES = (Sense.MAX, Sense.MIN, Sense.MAX)

    def generic_fiber(self):
        rng = random.Random("shared-fiber")
        source = rand_space(rng, "X", 12, 12)
        kernel = rand_kernel(rng, source, rand_space(rng, "Y", 5, 5))
        preds = (rand_predicate(rng, source), rand_predicate(rng, source))
        return kernel, preds, lift(kernel)(rand_dist(rng, source))

    @pytest.mark.parametrize("fiber", ["generic", "twin", "unreachable"])
    def test_senses_and_predicates_match_fresh_solves(self, fiber, channel, gain, two_points):
        if fiber == "generic":
            kernel, preds, query = self.generic_fiber()
        elif fiber == "twin":
            kernel, preds, query = twin_channel()
        else:
            kernel, query = channel, Dist(two_points, (F(0), F(1)))
            preds = (gain, Predicate(gain.space, (F(1), F(0), F(1, 3))))
        programs = [_lifted_program(kernel, p, query, s) for p in preds for s in self.SENSES]
        constraints = programs[0].constraints
        assert all(lp.constraints is constraints for lp in programs)
        for lp in programs:
            # field by field: status, value, point, ray, pivots and guided
            assert lp_solve(lp) == lp_solve(fresh(lp))
        start = constraints.guide_start
        assert constraints.guide_start is start
        # every answer counts the shared phase 1 again
        assert start.pivots > 0
        assert all(lp_solve(lp).pivots >= start.pivots for lp in programs)
        if fiber == "twin":
            assert "exact_start" in vars(constraints)
        # phase 2 pivots a copy: the start is what a fresh phase 1 gives
        assert start == fresh(programs[0]).constraints.guide_start

    def test_quantifiers_over_one_fiber_match_fresh_solves(self):
        kernel, (p, q), query = self.generic_fiber()
        answers = [
            quantifier(kernel, pred, query)
            for pred in (p, q)
            for quantifier in (exists_lifted, forall_lifted, exists_lifted)
        ]
        assert _lifted_constraints.cache_info().hits == 5
        for answer, (pred, sense) in zip(
            answers, [(pred, s) for pred in (p, q) for s in self.SENSES]
        ):
            solution = lp_solve(fresh(_lifted_program(kernel, pred, query, sense)))
            assert (answer.value, answer.witness.weights) == (solution.value, solution.point)

    def test_equal_fibers_share_constraints(self, channel, gain):
        query = Dist(channel.target, (F(7, 10), F(3, 10)))
        again = Dist(channel.target, (F(7, 10), F(3, 10)))
        first = _lifted_program(channel, gain, query, Sense.MAX)
        assert _lifted_program(channel, gain, again, Sense.MIN).constraints is first.constraints

    def test_random_fibers_match_the_exact_path(self):
        rng = random.Random("shared-fiber-exact")
        for _ in range(30):
            source = rand_space(rng, "X", 1, 8)
            kernel = rand_kernel(rng, source, rand_space(rng, "Y", 1, 4))
            if rng.random() < 0.7:
                query = lift(kernel)(rand_dist(rng, source))
            else:
                query = rand_dist(rng, kernel.target)
            for _ in range(4):
                pred, sense = rand_predicate(rng, source), rng.choice(list(Sense))
                lp = _lifted_program(kernel, pred, query, sense)
                solution = lp_solve(lp)
                exact = lp_module._exact(fresh(lp))
                assert (solution.status, solution.value, solution.point) == (
                    exact.status, exact.value, exact.point
                )


@st.composite
def lifted_fibers(draw):
    """``(kernel, predicate, query, sense)``: a kernel whose rows have wide
    coprime denominators, one whose last target point no row reaches (a
    zero column of the kernel's matrix, so a zero row of ``A``), or a 1x1
    kernel; the query is reachable or drawn freely."""
    shape = draw(st.sampled_from(("wide", "zero_column", "one_by_one")))
    if shape == "one_by_one":
        source, target = FiniteSpace("X", ("x1",)), FiniteSpace("Y", ("y1",))
        rows = (Dist(target, (F(1),)),)
    else:
        source, target = draw(spaces("X", max_size=6)), draw(spaces("Y", min_size=2, max_size=6))
        if shape == "wide":
            rows = tuple(draw(wide_dists(target)) for _ in source.points)
        else:
            reached = FiniteSpace("Z", target.points[:-1])
            rows = tuple(
                Dist(target, (*draw(any_dists(reached)).weights, F(0))) for _ in source.points
            )
    kernel = Kernel(source, target, rows)
    if draw(st.booleans()):
        query = lift(kernel)(draw(any_dists(source)))
    else:
        query = draw(any_dists(target))
    dens = st.one_of(st.integers(min_value=1, max_value=6), st.sampled_from(PRIMES))
    return kernel, draw(predicates(source, dens=dens)), query, draw(st.sampled_from(Sense))


def hexed(start):
    """A float tableau with each entry as ``float.hex``: equal only bit for bit."""
    return dataclasses.replace(
        start,
        rows=tuple(tuple(map(float.hex, row)) for row in start.rows),
        rhs=tuple(map(float.hex, start.rhs)),
    )


def double_rounding_fiber():
    """A 1x4 kernel whose row's numerators and lcm pass ``2**53``: the float
    of each numerator over the float of the lcm is rounded twice, and for
    ``y1`` and ``y2`` misses the float of the ``Fraction``."""
    x, y = FiniteSpace("X", ("x1",)), FiniteSpace("Y", ("y1", "y2", "y3", "y4"))
    weights = (F(210309, 999953), F(200219, 999959), F(16544, 999961))
    row = Dist(y, (*weights, 1 - sum(weights)))
    return Kernel(x, y, (row,)), Predicate(x, (F(1),)), row, Sense.MAX


@settings(max_examples=120, deadline=None)
@given(lifted_fibers())
@example(double_rounding_fiber())
def test_constraints_from_the_kernel_rows_match_the_fraction_matrix(fiber):
    kernel, pred, query, sense = fiber
    lp = _lifted_program(kernel, pred, query, sense)
    # built from the rows' and the query's integer forms, and cleared again
    # from the Fraction matrix
    built, cleared = lp.constraints, fresh(lp).constraints
    assert built.integer_form == cleared.integer_form
    # the guide's float copy, as the float of each Fraction of A and b (a
    # query has no b < 0, so no row is flipped)
    assert (built.matrix, built.rhs) == (cleared.matrix, cleared.rhs)
    rows, rhs = built.matrix, built.rhs
    floats = lp_module._phase1(
        [[float(a) for a in row] for row in rows], [float(b) for b in rhs], built.n, 1.0,
        lp_module._TOL, lp_module._guide_cap(len(rows), built.n),
    )
    assert hexed(built.guide_start) == hexed(cleared.guide_start) == hexed(floats)
    assert built.exact_start == cleared.exact_start
    # field by field: status, value, point, ray, pivots and guided
    assert lp_solve(lp) == lp_solve(fresh(lp))


def test_constraints_of_a_kernel_on_an_empty_space_have_a_row_per_target_point():
    # no row to transpose: the program still has one empty row per point of Y
    kernel = Kernel(FiniteSpace("X", ()), FiniteSpace("Y", ("y1", "y2")), ())
    query = Dist(kernel.target, (F(1, 2), F(1, 2)))
    lp = _lifted_program(kernel, Predicate(kernel.source, ()), query, Sense.MAX)
    assert lp.matrix == ((), ())
    assert lp.constraints.integer_form == fresh(lp).constraints.integer_form
    assert lp_solve(lp) == lp_solve(fresh(lp))
    assert lp_solve(lp).status is LpStatus.INFEASIBLE


def _moved_vertex(lp, solution):
    # the value stays the objective at the moved point, so only the
    # preimage check can refuse it
    point = solution.point[1:] + solution.point[:1]
    value = sum(c * x for c, x in zip(lp.objective, point))
    return dataclasses.replace(solution, point=point, value=value)


# an LP answer altered after the solve, one way per certificate check
FORGERIES = {
    "status": lambda lp, s: dataclasses.replace(s, status=LpStatus.UNBOUNDED),
    "point": _moved_vertex,
    "value": lambda lp, s: dataclasses.replace(s, value=s.value + F(1, 100)),
}


class TestCertificates:
    @pytest.mark.parametrize("forgery", sorted(FORGERIES))
    @pytest.mark.parametrize("quantifier", [exists_lifted, forall_lifted])
    def test_forged_lp_answer_is_refused(
        self, channel, gain, two_points, monkeypatch, quantifier, forgery
    ):
        honest = quantifiers.lp_solve
        monkeypatch.setattr(
            quantifiers, "lp_solve", lambda lp: FORGERIES[forgery](lp, honest(lp))
        )
        with pytest.raises(CertificateError):
            quantifier(channel, gain, Dist(two_points, (F(7, 10), F(3, 10))))

    def test_forged_lp_answer_is_refused_under_python_O(self, run_python):
        code = textwrap.dedent(
            """
            import dataclasses
            from giryq import CertificateError, exists_lifted, load_scenario
            from giryq import quantifiers

            honest = quantifiers.lp_solve

            def forged(lp):
                solution = honest(lp)
                return dataclasses.replace(solution, value=solution.value + 1)

            quantifiers.lp_solve = forged
            s = load_scenario("scenarios/noisy_channel.json")
            f = s.kernels["f"]
            try:
                exists_lifted(f, s.predicates["g"], f.rows[1])
            except CertificateError:
                print("refused")
            """
        )
        done = run_python("-O", "-c", code)
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout == b"refused\n"
