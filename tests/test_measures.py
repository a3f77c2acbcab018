import copy
import itertools
import os
import random
import subprocess
import sys
import threading
from dataclasses import fields
from fractions import Fraction as F
from math import lcm
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from giryq import (
    Dist,
    DuplicateAtomError,
    DimensionMismatchError,
    FinSuppMeasure,
    FiniteSpace,
    GiryqError,
    Kernel,
    LinearProgram,
    MassNotOneError,
    NegativeWeightError,
    PointFunction,
    Predicate,
    RationalFormatError,
    SignedMeasure,
    SpaceMismatchError,
    TableSimplexPredicate,
    format_rational,
    load_scenario,
    parse_rational,
    serialize_scenario,
    tv_metric,
    tv_norm,
)
from giryq.kernels import compose, image_measure, lift, mixture
from giryq.laws import (
    rand_dist, rand_finsupp_over_dists, rand_kernel, rand_predicate, rand_space, tv_oracle,
)
from giryq.lp import Sense
from giryq.measures import _cleared, _image, _integer_dist, _probability, combine_rows
from giryq.predicates import LiftedPredicate, entails, expectation, substitute
from giryq.quantifiers import (
    _pair, check_composite, exists_composite, exists_lifted, forall_fiber,
)

from strategies import (
    PRIMES, any_dists, dist_pairs, dist_triples, predicates, spaces, weight_lists, wide_dists,
    wide_pooled_kernels,
)

REPO = Path(__file__).resolve().parent.parent


class TestRationalLiterals:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("3/10", F(3, 10)),
            ("1", F(1)),
            ("-2/4", F(-1, 2)),
            ("0", F(0)),
            (" 7/10 ", F(7, 10)),
            ("+5/3", F(5, 3)),
        ],
    )
    def test_parses(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize(
        "text", ["0.5", "1e-3", "", "a", "1/0", "1/2/3", "½", "nan", "1 / 2"]
    )
    def test_rejects(self, text):
        with pytest.raises(RationalFormatError):
            parse_rational(text)

    @pytest.mark.parametrize("text", ["١/٢", "٣", "１/2", "1/२"])
    def test_rejects_non_ascii_digits(self, text):
        with pytest.raises(RationalFormatError):
            parse_rational(text)

    def test_rejects_literal_past_the_int_digit_limit(self):
        # 5,000 digits exceed the 4,300 that int() converts by default
        with pytest.raises(RationalFormatError, match="too long"):
            parse_rational("1/" + "1" * 5000)

    def test_rejects_non_string(self):
        for value in (0.5, 123, True, None, ["1"]):
            with pytest.raises(RationalFormatError):
                parse_rational(value)

    @pytest.mark.parametrize("value", [F(3, 10), F(1), F(-7, 2), F(0)])
    def test_round_trip(self, value):
        assert parse_rational(format_rational(value)) == value

    @pytest.mark.parametrize(
        "value, text", [(F(6, 4), "3/2"), (F(-1, 2), "-1/2"), (F(0), "0"), (3, "3")]
    )
    def test_format(self, value, text):
        assert format_rational(value) == text


class TestFiniteSpace:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(DuplicateAtomError):
            FiniteSpace("X", ("a", "a"))

    def test_index_follows_declaration_order(self):
        space = FiniteSpace("X", ("b", "a"))
        assert space.index("b") == 0
        assert space.index("a") == 1
        with pytest.raises(KeyError):
            space.index("c")


class TestDist:
    def test_point_mass(self, two_points):
        d = Dist(two_points, (F(1), F(0)))
        assert d == Dist.dirac(two_points, "y1")
        assert d.weights == (1, 0)

    def test_argopt_weights_accepted(self, three_points):
        d = Dist(three_points, (F(2, 5), F(3, 5), F(0)))
        assert d.weights == (F(2, 5), F(3, 5), 0)

    def test_mass_not_one(self, two_points):
        with pytest.raises(MassNotOneError):
            Dist(two_points, (F(1, 2), F(2, 3)))

    def test_negative_weight(self, two_points):
        with pytest.raises(NegativeWeightError):
            Dist(two_points, (F(3, 2), F(-1, 2)))

    def test_weight_count(self, two_points):
        with pytest.raises(DimensionMismatchError):
            Dist(two_points, (F(1),))

    def test_equality_requires_same_space(self, two_points):
        other = FiniteSpace("Z", ("y1", "y2"))
        assert Dist(two_points, (F(1), F(0))) != Dist(other, (F(1), F(0)))
        # equal weights give equal integer forms and hashes on any space
        a, b = Dist(two_points, (F(1, 3), F(2, 3))), Dist(other, (F(1, 3), F(2, 3)))
        assert a._form == b._form and hash(a) == hash(b)
        assert a != b and b != a and len({a, b}) == 2

    def test_equal_dists_built_separately_hash_equal(self, three_points):
        first = Dist(three_points, (F(1, 6), F(1, 3), F(1, 2)))
        second = Dist(three_points, (F(2, 12), F(2, 6), F(1, 2)))
        assert first is not second
        assert hash(first) == hash(second)
        assert hash(first) == hash(first) == hash(second)

    def test_cached_hash_is_not_part_of_equality_or_repr(self, two_points):
        hashed = Dist(two_points, (F(1, 4), F(3, 4)))
        before = repr(hashed)
        table = {hashed: "found"}
        fresh = Dist(two_points, (F(1, 4), F(3, 4)))
        assert hashed == fresh and fresh == hashed
        assert repr(hashed) == before == repr(fresh)
        assert table[fresh] == "found"
        # equal weights on another space: the lookup still compares the space
        assert Dist(FiniteSpace("Z", ("y1", "y2")), hashed.weights) not in table


# every type with one entry per point, built on the two-point space Y with
# one entry too few
@pytest.mark.parametrize(
    "build, noun",
    [
        (lambda y: Dist(y, (F(1),)), "weights"),
        (lambda y: SignedMeasure(y, (F(1),)), "weights"),
        (lambda y: Predicate(y, (F(1),)), "values"),
        (lambda y: Kernel(y, y, (Dist.dirac(y, "y1"),)), "rows"),
        (lambda y: PointFunction(y, y, ("y1",)), "assignments"),
    ],
    ids=["Dist", "SignedMeasure", "Predicate", "Kernel", "PointFunction"],
)
def test_one_entry_per_point(two_points, build, noun):
    with pytest.raises(DimensionMismatchError) as info:
        build(two_points)
    assert str(info.value) == f"1 {noun} for the 2 points of space 'Y'"


# each builder stores two given entries (mass 1, each in [0, 1]) and
# returns the stored entries with the given ones they came from, in order
def _dist_entries(space, given):
    return Dist(space, given).weights, given


def _predicate_entries(space, given):
    return Predicate(space, given).values, given


def _table_entries(space, given):
    probes = (Dist.dirac(space, "y1"), Dist.dirac(space, "y2"))
    table = TableSimplexPredicate(space, tuple(zip(probes, given)), given[0])
    return tuple(v for _, v in table.entries) + (table.default,), given + given[:1]


def _lp_entries(space, given):
    lp = LinearProgram(given, (given,), given[:1])
    return lp.objective + lp.matrix[0] + lp.rhs, given + given + given[:1]


ENTRY_BUILDERS = pytest.mark.parametrize(
    "build", [_dist_entries, _predicate_entries, _table_entries, _lp_entries],
    ids=["Dist", "Predicate", "TableSimplexPredicate", "LinearProgram"],
)


@ENTRY_BUILDERS
@pytest.mark.parametrize("given", [(1, 0), ("1/4", "3/4"), (F(1, 4), F(3, 4)), (1, "0")],
                         ids=["int", "str", "Fraction", "int and str"])
def test_entries_are_stored_as_fractions(two_points, build, given):
    stored, source = build(two_points, given)
    assert [type(v) for v in stored] == [F] * len(source)
    assert list(stored) == [F(v) for v in source]


@ENTRY_BUILDERS
def test_a_fraction_entry_is_kept_as_it_is(two_points, build):
    stored, source = build(two_points, (F(1, 4), F(3, 4)))
    assert all(s is v for s, v in zip(stored, source, strict=True))


@ENTRY_BUILDERS
def test_a_float_entry_is_refused(two_points, build):
    # 1/4 and 3/4 are exact in binary, and a float is still refused
    with pytest.raises(RationalFormatError) as info:
        build(two_points, (0.25, 0.75))
    assert str(info.value) == "not a rational literal (expected 'n' or 'n/d'): 0.25"


@pytest.mark.parametrize(
    "build, given, shown",
    [
        (Predicate, (0.3, 1), "0.3"),
        (Dist, (0.1, 0.9), "0.1"),
        (Dist, ("0.5", "1/2"), "'0.5'"),
    ],
    ids=["float predicate value", "float weights", "decimal string"],
)
def test_inexact_entries_are_refused_as_written(two_points, build, given, shown):
    # not 5404319552844595/18014398509481984 stored, nor a mass of
    # 36028797018963969/36028797018963968 refused
    with pytest.raises(RationalFormatError) as info:
        build(two_points, given)
    assert str(info.value) == f"not a rational literal (expected 'n' or 'n/d'): {shown}"


class TestTotalVariation:
    def test_zero_measure(self, two_points):
        p = Dist(two_points, (F(7, 10), F(3, 10)))
        assert tv_norm(p - p) == 0

    def test_hand_computed_difference(self, two_points):
        p = Dist(two_points, (F(7, 10), F(3, 10)))
        q = Dist(two_points, (F(1, 2), F(1, 2)))
        assert tv_norm(p - q) == F(2, 5)
        assert tv_metric(p, q) == F(1, 5)

    def test_disjoint_point_masses(self, two_points):
        d1 = Dist.dirac(two_points, "y1")
        d2 = Dist.dirac(two_points, "y2")
        assert tv_norm(d1 - d2) == 2
        assert tv_metric(d1, d2) == 1

    def test_metric_of_equal_arguments(self, three_points):
        p = Dist(three_points, (F(2, 5), F(3, 5), F(0)))
        assert tv_metric(p, p) == 0

    def test_difference_has_zero_total_mass(self, three_points):
        p = Dist(three_points, (F(2, 5), F(3, 5), F(0)))
        q = Dist.dirac(three_points, "x3")
        assert sum((p - q).weights) == 0

    def test_space_mismatch(self, two_points, three_points):
        with pytest.raises(SpaceMismatchError):
            tv_metric(
                Dist.dirac(two_points, "y1"), Dist.dirac(three_points, "x1")
            )
        with pytest.raises(SpaceMismatchError):
            Dist.dirac(two_points, "y1") - Dist.dirac(three_points, "x1")

    @settings(max_examples=60, deadline=None)
    @given(dist_pairs())
    def test_metric_is_half_the_norm(self, pair):
        p, q = pair
        assert 2 * tv_metric(p, q) == tv_norm(p - q)

    @settings(max_examples=60, deadline=None)
    @given(dist_pairs())
    def test_metric_matches_event_enumeration(self, pair):
        p, q = pair
        assert tv_metric(p, q) == tv_oracle(p, q)

    @settings(max_examples=60, deadline=None)
    @given(dist_triples())
    def test_metric_axioms(self, triple):
        p, q, r = triple
        assert tv_metric(p, q) == tv_metric(q, p)
        assert (tv_metric(p, q) == 0) == (p == q)
        assert tv_metric(p, r) <= tv_metric(p, q) + tv_metric(q, r)


class TestFinSuppMeasure:
    def test_point_mass_on_a_dist(self, two_points):
        p = Dist.dirac(two_points, "y1")
        m = FinSuppMeasure((p,), (1,))
        assert m.atoms == (p,)
        assert m.weights == (1,)

    def test_uniform_two_atom_mixture(self, two_points):
        p1 = Dist.dirac(two_points, "y1")
        p2 = Dist.dirac(two_points, "y2")
        m = FinSuppMeasure((p1, p2), (F(1, 2), F(1, 2)))
        assert m.atoms == (p1, p2)
        assert m.weights == (F(1, 2), F(1, 2))

    def test_duplicate_atoms_rejected(self, two_points):
        p = Dist.dirac(two_points, "y1")
        with pytest.raises(DuplicateAtomError):
            FinSuppMeasure((p, p), (F(1, 2), F(1, 2)))

    def test_zero_weight_atoms_pruned(self, two_points):
        p1 = Dist.dirac(two_points, "y1")
        p2 = Dist.dirac(two_points, "y2")
        m = FinSuppMeasure((p1, p2), (F(1), F(0)))
        assert m.atoms == (p1,)
        assert m == FinSuppMeasure((p1,), (1,))

    def test_equality_ignores_order(self):
        m1 = FinSuppMeasure(("a", "b"), (F(1, 3), F(2, 3)))
        m2 = FinSuppMeasure(("b", "a"), (F(2, 3), F(1, 3)))
        assert m1 == m2
        assert hash(m1) == hash(m2)

    def test_one_weight_per_atom(self):
        with pytest.raises(DimensionMismatchError, match="^2 atoms but 1 weights$"):
            FinSuppMeasure(("a", "b"), (F(1),))

    def test_mass_and_sign_validation(self):
        with pytest.raises(MassNotOneError):
            FinSuppMeasure(("a",), (F(1, 2),))
        with pytest.raises(NegativeWeightError):
            FinSuppMeasure(("a", "b"), (F(3, 2), F(-1, 2)))

    def test_map_merges_equal_images(self):
        m = FinSuppMeasure(("a", "b", "c"), (F(1, 2), F(1, 4), F(1, 4)))
        collapsed = m.map(lambda atom: "x" if atom in ("a", "b") else "y")
        assert collapsed == FinSuppMeasure(("x", "y"), (F(3, 4), F(1, 4)))


def _fraction_sum_check(labels, weights, noun, space=None):
    """The mass check as it reads in the definition: ``Fraction``
    comparison and one ``Fraction`` addition per weight."""
    for label, w in zip(labels, weights):
        if w < 0:
            raise NegativeWeightError(f"weight of {noun} {label!r} is negative: {w}")
    total = sum(weights, F(0))
    if total != 1:
        on = "" if space is None else f" on space {space.name!r}"
        raise MassNotOneError(f"weights{on} sum to {total}, expected 1")


def _refusal(build, *args):
    """``(error class, message)`` of what ``build(*args)`` raises, or None."""
    try:
        build(*args)
    except GiryqError as exc:
        return type(exc), str(exc)
    return None


def _points(n):
    return FiniteSpace("Y", tuple(f"y{i + 1}" for i in range(n)))


class TestIntegerMassCheck:
    """The mass check sums in integers; it accepts and refuses exactly what
    the ``Fraction`` sum does, with the same error and message."""

    @settings(max_examples=300, deadline=None)
    @given(weight_lists())
    def test_dist_agrees_with_the_fraction_sum(self, weights):
        space = _points(len(weights))
        expected = _refusal(_fraction_sum_check, space.points, weights, "point", space)
        assert _refusal(Dist, space, weights) == expected

    @settings(max_examples=300, deadline=None)
    @given(weight_lists())
    def test_finsupp_measure_agrees_with_the_fraction_sum(self, weights):
        atoms = tuple(f"a{i}" for i in range(len(weights)))
        expected = _refusal(_fraction_sum_check, atoms, weights, "atom")
        assert _refusal(FinSuppMeasure, atoms, weights) == expected

    @pytest.mark.parametrize(
        "weights, refusal",
        [
            ((F(1, 2), F(-1, 4), F(3, 4)),
             (NegativeWeightError, "weight of point 'y2' is negative: -1/4")),
            # 3/4 + 3/4 scales to 6 over 4; the message prints it in lowest terms
            ((F(3, 4), F(3, 4), F(0)),
             (MassNotOneError, "weights on space 'Y' sum to 3/2, expected 1")),
            ((F(1, 3), F(1, 2), F(1, 15)),
             (MassNotOneError, "weights on space 'Y' sum to 9/10, expected 1")),
            ((), (MassNotOneError, "weights on space 'Y' sum to 0, expected 1")),
            ((F(1, 6), F(1, 3), F(1, 2)), None),
        ],
        ids=["negative", "three_halves", "nine_tenths", "empty", "one"],
    )
    def test_dist_refusals_read_as_before(self, weights, refusal):
        assert _refusal(Dist, _points(len(weights)), weights) == refusal

    @pytest.mark.parametrize(
        "weights, refusal",
        [
            ((F(3, 2), F(-1, 2)), (NegativeWeightError, "weight of atom 'a2' is negative: -1/2")),
            ((F(3, 4), F(3, 4)), (MassNotOneError, "weights sum to 3/2, expected 1")),
            ((), (MassNotOneError, "weights sum to 0, expected 1")),
        ],
        ids=["negative", "three_halves", "empty"],
    )
    def test_finsupp_refusals_read_as_before(self, weights, refusal):
        atoms = tuple(f"a{i + 1}" for i in range(len(weights)))
        assert _refusal(FinSuppMeasure, atoms, weights) == refusal


@st.composite
def row_sums(draw, entries):
    """A start vector and up to four ``(weight, row)`` pairs of one length."""
    n = draw(st.integers(min_value=1, max_value=6))
    vectors = st.lists(entries, min_size=n, max_size=n)
    return draw(vectors), draw(st.lists(st.tuples(entries, vectors), max_size=4))


# zeros are drawn often: combine_rows skips zero weights and zero entries
FRACTIONS = st.one_of(st.just(F(0)), st.fractions(-5, 5, max_denominator=7))
FLOATS = st.one_of(st.just(0.0), st.floats(-1e6, 1e6))


class TestCombineRows:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(row_sums(FRACTIONS), row_sums(FLOATS)))
    def test_equals_the_dense_sum_and_leaves_start_alone(self, case):
        start, pairs = case
        before = list(start)
        dense = list(start)
        for w, row in pairs:
            dense = [a + w * v for a, v in zip(dense, row)]
        assert combine_rows(start, pairs) == dense
        assert start == before


# three spaces that differ in name and points alone, so each call below
# fails the space-agreement check and nothing else
SX, SY, SZ = (FiniteSpace(n, (n.lower() + "1", n.lower() + "2")) for n in "XYZ")
DX, DY, DZ = (Dist.dirac(space, space.points[0]) for space in (SX, SY, SZ))
PX, PY = Predicate.constant(SX, 1), Predicate.constant(SY, 1)
K_XY = Kernel(SX, SY, (DY, DY))
K_YZ = Kernel(SY, SZ, (DZ, DZ))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: Kernel(SX, SY, (DY, DZ)),
                     "row of 'x2' lives on 'Z' but the kernel lands in 'Y'", id="Kernel"),
        pytest.param(lambda: compose(K_XY, K_XY),
                     "inner lands in 'Y' but outer starts at 'X'", id="compose"),
        pytest.param(lambda: lift(K_XY)(DY),
                     "distribution lives on 'Y' but the kernel starts at 'X'", id="lift"),
        pytest.param(lambda: image_measure(K_XY, DY),
                     "distribution lives on 'Y' but the kernel starts at 'X'",
                     id="image_measure"),
        pytest.param(lambda: mixture(FinSuppMeasure((DY, DZ), (F(1, 2), F(1, 2)))),
                     "atom lives on 'Z' but the first atom lives on 'Y'", id="mixture"),
        pytest.param(lambda: DY - DZ,
                     "left operand lives on 'Y' but the right lives on 'Z'", id="Dist.__sub__"),
        pytest.param(lambda: tv_metric(DY, DZ),
                     "first distribution lives on 'Y' but the second lives on 'Z'",
                     id="tv_metric"),
        pytest.param(lambda: tv_oracle(DY, DZ),
                     "first distribution lives on 'Y' but the second lives on 'Z'",
                     id="tv_oracle"),
        pytest.param(lambda: entails(PX, PY),
                     "lower predicate lives on 'X' but the upper lives on 'Y'", id="entails"),
        pytest.param(lambda: expectation(PX, DY),
                     "predicate lives on 'X' but the distribution lives on 'Y'",
                     id="expectation"),
        pytest.param(lambda: TableSimplexPredicate(SY, ((DZ, F(1)),), F(0)),
                     "probe (1, 0) lives on 'Z' but the table lives on 'Y'",
                     id="TableSimplexPredicate"),
        pytest.param(lambda: substitute(LiftedPredicate(PX), K_XY),
                     "simplex predicate lives on 'X' but the kernel lands in 'Y'",
                     id="substitute"),
        pytest.param(lambda: exists_lifted(K_XY, PY, DY),
                     "predicate lives on 'Y' but the kernel starts at 'X'",
                     id="quantifier_predicate"),
        pytest.param(lambda: forall_fiber(K_XY, PX, DX),
                     "query lives on 'X' but the kernel lands in 'Y'", id="quantifier_query"),
        pytest.param(lambda: exists_composite(K_XY, K_YZ, PY, DZ),
                     "predicate lives on 'Y' but the chain starts at 'X'", id="chain_predicate"),
        pytest.param(lambda: exists_composite(K_XY, K_YZ, PX, DY),
                     "query lives on 'Y' but the chain lands in 'Z'", id="chain_query"),
        pytest.param(lambda: exists_composite(K_XY, K_XY, PX, DY),
                     "inner lands in 'Y' but outer starts at 'X'", id="chain_kernels"),
    ],
)
def test_every_space_check_names_both_spaces(call, message):
    with pytest.raises(SpaceMismatchError) as caught:
        call()
    assert str(caught.value) == message


def _reference_form(values):
    """``(numerators, d)`` from the definition, in ``Fraction`` arithmetic."""
    d = lcm(*(v.denominator for v in values))
    return tuple(int(v * d) for v in values), d


@st.composite
def wide_cases(draw):
    """Two distributions and a predicate on one space, each entry's
    denominator often a prime near 10**6."""
    space = draw(spaces(max_size=6))
    dens = st.one_of(st.integers(min_value=1, max_value=6), st.sampled_from(PRIMES))
    return draw(any_dists(space)), draw(any_dists(space)), draw(predicates(space, dens))


class TestIntegerForm:
    """A ``Dist``, a ``FinSuppMeasure`` and a ``Predicate`` carry
    ``(numerators, d)``, with ``d`` the lcm of the reduced denominators; it
    is not a field, and the metric and the expectation are computed from
    it."""

    @settings(max_examples=150, deadline=None)
    @given(wide_cases())
    def test_form_is_the_entries_over_the_lcm_of_their_denominators(self, case):
        p, q, pred = case
        assert p._form == _reference_form(p.weights)
        assert q._form == _reference_form(q.weights)
        assert pred._form == _reference_form(pred.values)
        # rows alternate q and p, so the image merges p's weights by class
        kernel = Kernel(p.space, p.space, tuple((q, p)[i % 2] for i in range(len(p.space))))
        spread = image_measure(kernel, p)
        assert spread._form == _reference_form(spread.weights)

    def test_values_are_complete_when_built(self, three_points, two_points):
        pred = Predicate(three_points, (F(1, 2), F(0), F(1)))
        row = Dist(two_points, (F(1, 3), F(2, 3)))
        kernel = Kernel(three_points, two_points, (row, row, Dist.dirac(two_points, "y1")))
        measure = FinSuppMeasure(("a", "b", "c"), (F(1, 4), F(0), F(3, 4)))
        assert vars(pred)["_form"] == ((1, 0, 2), 2)
        assert vars(kernel)["row_partition"] == ((0, 0, 1), (row, kernel.rows[2]))
        assert measure._form == ((1, 3), 4)

    @settings(max_examples=150, deadline=None)
    @given(wide_cases())
    def test_metric_and_expectation_equal_the_fraction_loops(self, case):
        p, q, pred = case
        metric = sum((a - b for a, b in zip(p.weights, q.weights) if a > b), F(0))
        assert tv_metric(p, q) == metric and type(tv_metric(p, q)) is F
        mean = sum((w * v for w, v in zip(p.weights, pred.values)), F(0))
        assert expectation(pred, p) == mean and type(expectation(pred, p)) is F

    def test_fields_are_unchanged(self):
        assert [f.name for f in fields(Dist)] == ["space", "weights"]
        assert [f.name for f in fields(Predicate)] == ["space", "values"]
        assert [f.name for f in fields(Kernel)] == ["source", "target", "rows"]

    @pytest.mark.parametrize("name", ["noisy_channel", "chain_and_laws"])
    def test_form_shows_in_neither_repr_nor_the_document(self, name):
        scenario = load_scenario(str(REPO / "scenarios" / f"{name}.json"))
        for pred in scenario.predicates.values():
            assert repr(pred) == f"Predicate(space={pred.space!r}, values={pred.values!r})"
        for kernel in scenario.kernels.values():
            for row in kernel.rows:
                assert repr(row) == f"Dist(space={row.space!r}, weights={row.weights!r})"
        golden = REPO / "tests" / "golden" / f"serialize_{name}.json"
        assert serialize_scenario(scenario) == golden.read_text(encoding="utf-8")

    def test_hash_does_not_depend_on_the_string_hash_seed(self):
        script = (
            "from giryq import Dist, FiniteSpace\n"
            "space = FiniteSpace('S', ('s1', 's2', 's3'))\n"
            "print(hash(Dist(space, ('1/3', '0', '2/3'))), hash(Dist.dirac(space, 's2')))\n"
        )
        outputs = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONHASHSEED=seed)
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=600, check=True)
            outputs.add(done.stdout)
        assert len(outputs) == 1


class TestKeptHashes:
    """A ``Dist`` and a ``Kernel`` keep their hashes from construction; the
    values equal the hashes of what they are computed from."""

    def test_hashes_are_kept_when_built(self, three_points, two_points):
        row = Dist(two_points, (F(1, 3), F(2, 3)))
        kernel = Kernel(three_points, two_points, (row, row, Dist.dirac(two_points, "y1")))
        assert vars(row)["_hash"] == hash(row._form) == hash(row)
        rows_hash = hash((three_points, two_points, kernel.rows))
        assert vars(kernel)["_hash"] == rows_hash == hash(kernel)

    def test_equal_kernels_built_separately_hash_equal(self):
        def build():
            source = FiniteSpace("X", ("x1", "x2", "x3"))
            target = FiniteSpace("Y", ("y1", "y2"))
            rows = [(F(1, 3), F(2, 3)), (F(1), F(0)), (F(1, 3), F(2, 3))]
            return Kernel(source, target, tuple(Dist(target, w) for w in rows))

        first, second = build(), build()
        assert first is not second and first.rows[0] is not second.rows[0]
        assert first == second and hash(first) == hash(second)
        assert {first: 1}[second] == 1


def _measures_of_a_chain(inner, dist, outer):
    """The distributions and the measure that ``compose``, ``lift``,
    ``mixture`` and ``image_measure`` build along ``inner`` then ``outer``."""
    spread = image_measure(inner, dist)
    built = [*compose(outer, inner).rows, lift(inner)(dist), mixture(spread)]
    return built, spread


@st.composite
def wide_chains(draw):
    """A pooled wide kernel, a wide distribution on its source, and a wide
    kernel from its target to itself."""
    inner, dist = draw(wide_pooled_kernels())
    target = inner.target
    return inner, dist, Kernel(target, target, tuple(draw(wide_dists(target)) for _ in target.points))


class TestIntegerBuilders:
    """Mixtures and image measures are built from their integer sums; what
    they build is what the constructors build from the same weights."""

    @settings(max_examples=80, deadline=None)
    @given(wide_chains())
    def test_built_values_equal_the_values_rebuilt_from_their_weights(self, chain):
        built, spread = _measures_of_a_chain(*chain)
        for dist in built:
            assert dist._form == _reference_form(dist.weights)
            assert all(type(w) is F for w in dist.weights)
            rebuilt = Dist(dist.space, dist.weights)
            assert rebuilt == dist and hash(rebuilt) == hash(dist)
            assert (rebuilt._form, rebuilt._hash) == (dist._form, dist._hash)
        assert spread._form == _reference_form(spread.weights)
        rebuilt = FinSuppMeasure(spread.atoms, spread.weights)
        assert rebuilt == spread and hash(rebuilt) == hash(spread)
        assert (rebuilt.atoms, rebuilt.weights, rebuilt._form) == (
            spread.atoms, spread.weights, spread._form
        )

    def test_a_common_factor_is_divided_out(self, two_points):
        # 2/8 and 6/8 over 8 reduce to 1/4 and 3/4, whose lcm is 4
        dist = _integer_dist(two_points, (2, 6), 8)
        assert dist.weights == (F(1, 4), F(3, 4)) and dist._form == ((1, 3), 4)
        assert dist == Dist(two_points, (F(1, 4), F(3, 4)))
        spread = _image((("a", 2), ("b", 4), ("a", 2)), 8)
        assert (spread.atoms, spread._form) == (("a", "b"), ((1, 1), 2))

    @settings(max_examples=300, deadline=None)
    @given(weight_lists())
    def test_builders_refuse_what_the_constructors_refuse(self, weights):
        space = _points(len(weights))
        numerators, d = _cleared(weights)
        assert _refusal(_integer_dist, space, numerators, d) == _refusal(Dist, space, weights)
        atoms = tuple(f"a{i}" for i in range(len(weights)))
        assert _refusal(_image, zip(atoms, numerators), d) == _refusal(
            FinSuppMeasure, atoms, weights
        )

    @pytest.mark.parametrize(
        "weights, refusal",
        [
            ((F(1, 2), F(-1, 4), F(3, 4)),
             (NegativeWeightError, "weight of point 'y2' is negative: -1/4")),
            ((F(3, 4), F(3, 4), F(0)),
             (MassNotOneError, "weights on space 'Y' sum to 3/2, expected 1")),
        ],
        ids=["negative", "three_halves"],
    )
    def test_the_shared_check_refuses_as_the_constructor_does(self, weights, refusal):
        space = _points(len(weights))
        form = _cleared(weights)
        assert _refusal(_probability, space.points, form, "point", space) == refusal
        assert _refusal(Dist, space, weights) == refusal
        assert _refusal(_integer_dist, space, *form) == refusal

    def test_builders_check_under_python_O(self, run_python):
        code = (
            "from giryq import FiniteSpace, GiryqError\n"
            "from giryq.measures import _image, _integer_dist\n"
            "space = FiniteSpace('Y', ('y1', 'y2', 'y3'))\n"
            "for build, args in ((_integer_dist, (space, (2, -1, 3), 4)),\n"
            "                    (_integer_dist, (space, (3, 3, 0), 4)),\n"
            "                    (_image, ((('a', 3), ('b', -1)), 2)),\n"
            "                    (_image, ((('a', 3), ('b', 3)), 4))):\n"
            "    try:\n"
            "        build(*args)\n"
            "    except GiryqError as exc:\n"
            "        print(type(exc).__name__, exc)\n"
        )
        done = run_python("-O", "-c", code)
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout.decode().splitlines() == [
            "NegativeWeightError weight of point 'y2' is negative: -1/4",
            "MassNotOneError weights on space 'Y' sum to 3/2, expected 1",
            "NegativeWeightError weight of atom 'b' is negative: -1/2",
            "MassNotOneError weights sum to 3/2, expected 1",
        ]


def _weights_built(value):
    """Whether ``value`` holds its ``weights`` yet, read without building them."""
    if isinstance(value, Dist):
        return "weights" in vars(value)
    try:
        FinSuppMeasure.weights.__get__(value)
    except AttributeError:
        return False
    return True


def _law_chains(count):
    """``count`` chains of the law generators: a distribution, a kernel
    from its space, a kernel on from there, and a measure over
    distributions on the middle space."""
    rng = random.Random("lazy-weights")
    for _ in range(count):
        x, y, z = (rand_space(rng, tag) for tag in "XYZ")
        yield (rand_dist(rng, x), rand_kernel(rng, x, y), rand_kernel(rng, y, z),
               rand_finsupp_over_dists(rng, y))


class TestLazyWeights:
    """A builder keeps only the integer form; ``weights`` are built on
    their first read, and read as the constructors' eager ones."""

    def test_built_values_read_as_eager_ones(self):
        for dist, inner, outer, measure in _law_chains(200):
            spread = image_measure(inner, dist)
            built = [*compose(outer, inner).rows, lift(inner)(dist), mixture(spread),
                     mixture(measure), mixture(measure.map(lift(outer)))]
            # equal rows of a composed kernel are one object: each is read once
            values = (*built, spread, measure.map(lift(outer)))
            for value in {id(value): value for value in values}.values():
                numerators, d = value._form
                eager_weights = tuple(F(n, d) for n in numerators)
                if isinstance(value, Dist):
                    eager = Dist(value.space, eager_weights)
                else:
                    eager = FinSuppMeasure(value.atoms, eager_weights)
                # equality and the hash read the form alone
                assert value == eager and hash(value) == hash(eager)
                assert not _weights_built(value)
                assert repr(value) == repr(eager)
                assert _weights_built(value)
                assert value.weights == eager.weights
                assert all(type(w) is F for w in value.weights)
                assert value.weights is value.weights
                assert list(map(str, value.weights)) == list(map(str, eager.weights))

    def test_a_lazily_built_dist_survives_deepcopy(self):
        for dist, inner, outer, _ in _law_chains(50):
            values = (lift(inner)(dist), *compose(outer, inner).rows)
            for value in {id(value): value for value in values}.values():
                copied = copy.deepcopy(value)
                assert not _weights_built(copied)
                assert copied == value and hash(copied) == hash(value)
                assert (repr(copied), copied.weights) == (repr(value), value.weights)
                again = copy.deepcopy(value)
                assert _weights_built(again) and again.weights == value.weights
            spread = image_measure(inner, dist)
            copied = copy.deepcopy(spread)
            assert copied == spread and hash(copied) == hash(spread)
            assert repr(copied) == repr(spread)

    def test_a_pickled_lazy_dist_loads_as_one_built_where_it_is_loaded(self):
        build = (
            "from giryq import Dist, FiniteSpace, Kernel\n"
            "from giryq.kernels import compose, lift\n"
            "x, y = FiniteSpace('X', ('x1', 'x2')), FiniteSpace('Y', ('y1', 'y2', 'y3'))\n"
            "inner = Kernel(x, x, (Dist(x, ('1/3', '2/3')), Dist(x, ('1/2', '1/2'))))\n"
            "outer = Kernel(x, y, (Dist(y, ('1/4', '0', '3/4')), Dist(y, ('0', '1/5', '4/5'))))\n"
            "values = (lift(outer)(Dist(x, ('1/6', '5/6'))), compose(outer, inner))\n"
        )
        dump = build + (
            "import pickle, sys\n"
            "assert not any('weights' in vars(row) for row in values[1].rows)\n"
            "sys.stdout.write(pickle.dumps(values).hex())\n"
        )
        load = build + (
            "import pickle, sys\n"
            "loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))\n"
            "rows = (loaded[0], *loaded[1].rows)\n"
            "print(any('weights' in vars(row) for row in rows), loaded == values,\n"
            "      hash(loaded) == hash(values), repr(loaded) == repr(values))\n"
            "print(*(row for row in rows))\n"
        )

        def run(script, seed, stdin=""):
            env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONHASHSEED=seed)
            return subprocess.run([sys.executable, "-c", script], input=stdin, env=env,
                                  capture_output=True, text=True, timeout=600,
                                  check=True).stdout

        assert run(load, "2", run(dump, "1")) == (
            "False True True True\n"
            "(1/24, 1/6, 19/24) (1/12, 2/15, 47/60) (1/8, 1/10, 31/40)\n"
        )

    def test_a_checked_composite_builds_no_weights(self):
        # 64-point spaces whose kernels repeat 8 distinct rows, as in the
        # benchmark's COMPOSE queries
        rng = random.Random("composite-at-64")
        space = FiniteSpace("S", tuple(f"s{i}" for i in range(64)))

        def pooled_kernel():
            pool = [rand_dist(rng, space) for _ in range(8)]
            return Kernel(space, space, tuple(rng.choice(pool) for _ in space.points))

        for _ in range(4):
            inner, outer = pooled_kernel(), pooled_kernel()
            pred = rand_predicate(rng, space)
            queries = (compose(outer, inner).rows[0], rand_dist(rng, space))
            for query, sense in itertools.product(queries, Sense):
                assert check_composite(inner, outer, pred, query, sense)[1] is None
            stages, composed = _pair(inner, outer)
            assert not any(_weights_built(row) for row in composed.rows)
            assert not any(_weights_built(v) for stage in stages for v in stage)

    def test_threads_that_read_first_read_equal_weights(self):
        # the first reads race to fill weights; each builds them from the
        # one kept form, so whichever tuple is kept, every read is equal
        rng = random.Random("lazy-threads")
        space = FiniteSpace("S", tuple(f"s{i}" for i in range(12)))
        kernel = rand_kernel(rng, space, space)
        reads = []

        def read(values):
            reads.append([value.weights for value in values])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                values = [lift(kernel)(rand_dist(rng, space)) for _ in range(40)]
                eager = [tuple(F(n, d) for n in numerators) for numerators, d in
                         (value._form for value in values)]
                reads.clear()
                threads = [threading.Thread(target=read, args=(values,)) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert reads == 8 * [eager]
                assert [value.weights for value in values] == eager
        finally:
            sys.setswitchinterval(interval)
