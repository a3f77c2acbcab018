import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from giryq import (
    Dist,
    FinSuppMeasure,
    FiniteSpace,
    Kernel,
    NotDeterministicError,
    PointFunction,
    SpaceMismatchError,
    compose,
    deterministic_kernel,
    extract_point_function,
    identity_kernel,
    image_measure,
    is_deterministic,
    lift,
    mixture,
    pushforward,
    tv_metric,
    tv_norm,
)

from strategies import (
    PRIMES, any_dists, dists, kernel_chains, kernels, spaces, wide_dists, wide_pooled_kernels,
)

REPO = Path(__file__).resolve().parent.parent


@settings(max_examples=40, deadline=None)
@given(kernel_chains())
def test_composition_is_associative(chain):
    f, g, h = chain
    assert compose(h, compose(g, f)) == compose(compose(h, g), f)


@settings(max_examples=40, deadline=None)
@given(kernel_chains())
def test_unit_laws(chain):
    f, _, _ = chain
    assert compose(f, identity_kernel(f.source)) == f
    assert compose(identity_kernel(f.target), f) == f


def test_composed_row_matches_hand_product(channel, two_points):
    target = FiniteSpace("Z", ("z1", "z2"))
    second = Kernel(
        two_points,
        target,
        (
            Dist(target, (F(1, 2), F(1, 2))),
            Dist(target, (F(0), F(1))),
        ),
    )
    composed = compose(second, channel)
    # row of x3: 3/10 * (1/2, 1/2) + 7/10 * (0, 1)
    assert composed.row("x3") == Dist(target, (F(3, 20), F(17, 20)))


def test_compose_requires_matching_spaces(channel):
    with pytest.raises(SpaceMismatchError):
        compose(channel, channel)


def test_identity_kernel_on_singleton_space():
    space = FiniteSpace("P", ("only",))
    k = identity_kernel(space)
    assert k.rows == (Dist(space, (F(1),)),)
    assert is_deterministic(k)


def test_identity_kernel_extracts_identity_function(three_points):
    fn = extract_point_function(identity_kernel(three_points))
    assert fn.assignment == three_points.points


def test_embedded_function_round_trips(three_points, two_points):
    fn = PointFunction(three_points, two_points, ("y1", "y1", "y2"))
    k = deterministic_kernel(fn)
    assert is_deterministic(k)
    assert extract_point_function(k) == fn


def test_a_composed_point_function_is_read_without_building_weights(three_points, two_points):
    # the composed rows come from the integer builder, which keeps only
    # their integer form; a point mass's form has d == 1
    first = PointFunction(three_points, three_points, ("x2", "x3", "x3"))
    second = PointFunction(three_points, two_points, ("y1", "y2", "y1"))
    composed = compose(deterministic_kernel(second), deterministic_kernel(first))
    assert extract_point_function(composed).assignment == ("y2", "y1", "y1")
    assert not any("weights" in vars(row) for row in composed.rows)


def test_constant_function_embeds_to_constant_rows(three_points, two_points):
    fn = PointFunction(three_points, two_points, ("y1", "y1", "y1"))
    k = deterministic_kernel(fn)
    assert all(row == Dist.dirac(two_points, "y1") for row in k.rows)


def test_identity_function_embeds_to_identity_kernel(three_points):
    fn = PointFunction(three_points, three_points, three_points.points)
    assert deterministic_kernel(fn) == identity_kernel(three_points)


def test_row_on_the_wrong_space_is_rejected(two_points):
    other = FiniteSpace("Z", ("y1", "y2"))
    rows = (Dist.dirac(two_points, "y1"), Dist.dirac(other, "y1"))
    with pytest.raises(
        SpaceMismatchError, match="^row of 'y2' lives on 'Z' but the kernel lands in 'Y'$"
    ):
        Kernel(two_points, two_points, rows)


def test_noisy_kernel_is_not_deterministic(channel):
    assert not is_deterministic(channel)
    with pytest.raises(NotDeterministicError):
        extract_point_function(channel)


class TestPushforward:
    def test_identity_function_keeps_distribution(self, three_points):
        fn = PointFunction(three_points, three_points, three_points.points)
        p = Dist(three_points, (F(1, 2), F(1, 4), F(1, 4)))
        assert pushforward(fn, p) == p

    def test_constant_function_gives_point_mass(self, three_points, two_points):
        fn = PointFunction(three_points, two_points, ("y1", "y1", "y1"))
        p = Dist(three_points, (F(1, 2), F(1, 4), F(1, 4)))
        assert pushforward(fn, p) == Dist.dirac(two_points, "y1")

    def test_preimage_weights_add_up(self, three_points, two_points):
        fn = PointFunction(three_points, two_points, ("y1", "y1", "y2"))
        p = Dist(three_points, (F(1, 2), F(1, 4), F(1, 4)))
        assert pushforward(fn, p) == Dist(two_points, (F(3, 4), F(1, 4)))

    def test_space_mismatch(self, three_points, two_points):
        fn = PointFunction(three_points, two_points, ("y1", "y1", "y2"))
        with pytest.raises(SpaceMismatchError):
            pushforward(fn, Dist.dirac(two_points, "y1"))


class TestMixture:
    def test_point_mass_on_a_dist_collapses_to_it(self, three_points):
        p = Dist(three_points, (F(2, 5), F(3, 5), F(0)))
        assert mixture(FinSuppMeasure((p,), (1,))) == p

    def test_even_mixture_of_opposite_point_masses(self, two_points):
        p1 = Dist(two_points, (F(1), F(0)))
        p2 = Dist(two_points, (F(0), F(1)))
        m = FinSuppMeasure((p1, p2), (F(1, 2), F(1, 2)))
        assert mixture(m) == Dist(two_points, (F(1, 2), F(1, 2)))

    def test_weighted_mixture_hand_computed(self, two_points):
        p1 = Dist(two_points, (F(1), F(0)))
        p2 = Dist(two_points, (F(1, 3), F(2, 3)))
        m = FinSuppMeasure((p1, p2), (F(1, 4), F(3, 4)))
        # 1/4 * 1 + 3/4 * 1/3 = 1/2
        assert mixture(m) == Dist(two_points, (F(1, 2), F(1, 2)))

    def test_zero_weight_atom_mixes_to_the_same_dist(self, two_points):
        p1 = Dist(two_points, (F(1), F(0)))
        wide = Dist(two_points, (F(1, 999_983), F(999_982, 999_983)))
        p2 = Dist(two_points, (F(1, 3), F(2, 3)))
        listed = FinSuppMeasure((p1, wide, p2), (F(1, 4), F(0), F(3, 4)))
        pruned = FinSuppMeasure((p1, p2), (F(1, 4), F(3, 4)))
        assert listed._form == pruned._form == ((1, 3), 4)
        assert mixture(listed) == mixture(pruned) == Dist(two_points, (F(1, 2), F(1, 2)))

    def test_atoms_on_mixed_spaces_rejected(self, two_points, three_points):
        m = FinSuppMeasure(
            (Dist.dirac(two_points, "y1"), Dist.dirac(three_points, "x1")),
            (F(1, 2), F(1, 2)),
        )
        with pytest.raises(SpaceMismatchError):
            mixture(m)

    def test_non_dist_atoms_rejected(self, two_points):
        # an atom with no space is refused by its type, not as a space mismatch
        with pytest.raises(TypeError, match=r"^atom 'label' is not a distribution$"):
            mixture(FinSuppMeasure(("label",), (F(1),)))
        with pytest.raises(TypeError, match=r"^atom 'label' is not a distribution$"):
            mixture(FinSuppMeasure((Dist.dirac(two_points, "y1"), "label"), (F(1, 2), F(1, 2))))


class TestLift:
    def test_point_mass_goes_to_its_row(self, channel, two_points):
        apply_f = lift(channel)
        assert apply_f(Dist.dirac(channel.source, "x2")) == Dist(
            two_points, (F(1, 2), F(1, 2))
        )

    def test_identity_kernel_lifts_to_identity(self, three_points):
        p = Dist(three_points, (F(1, 2), F(1, 4), F(1, 4)))
        assert lift(identity_kernel(three_points))(p) == p

    def test_blend_maps_to_blend(self, channel, three_points, two_points):
        p = Dist(three_points, (F(2, 5), F(3, 5), F(0)))
        assert lift(channel)(p) == Dist(two_points, (F(7, 10), F(3, 10)))

    def test_space_mismatch(self, channel, two_points):
        with pytest.raises(SpaceMismatchError):
            lift(channel)(Dist.dirac(two_points, "y1"))

    def test_image_measure_space_mismatch(self, channel, two_points):
        with pytest.raises(SpaceMismatchError, match="kernel starts at 'X'"):
            image_measure(channel, Dist(two_points, (F(1, 2), F(1, 2))))

    def test_agrees_with_spread_then_mix(self, channel, three_points):
        p = Dist(three_points, (F(1, 6), F(1, 3), F(1, 2)))
        assert lift(channel)(p) == mixture(image_measure(channel, p))

    def test_linear_over_mixtures(self, channel, three_points):
        p1 = Dist(three_points, (F(1, 2), F(1, 4), F(1, 4)))
        p2 = Dist.dirac(three_points, "x3")
        spread = FinSuppMeasure((p1, p2), (F(1, 3), F(2, 3)))
        apply_f = lift(channel)
        assert apply_f(mixture(spread)) == mixture(spread.map(apply_f))


@st.composite
def kernel_with_dist_pair(draw):
    sa = draw(spaces("A", max_size=4))
    sb = draw(spaces("B", max_size=4))
    return draw(kernels(sa, sb)), draw(dists(sa)), draw(dists(sa))


@settings(max_examples=50, deadline=None)
@given(kernel_with_dist_pair())
def test_lift_never_expands_total_variation(data):
    f, p, p2 = data
    apply_f = lift(f)
    assert tv_metric(apply_f(p), apply_f(p2)) <= tv_norm(p - p2)


def _dense_mix(space, pairs):
    """The sum of ``w * row`` over ``(w, row)`` pairs, one ``Fraction``
    operation per entry, as a reference."""
    weights = [F(0)] * len(space)
    for w, row in pairs:
        for j, v in enumerate(row.weights):
            weights[j] += w * v
    return Dist(space, tuple(weights))


def _product(outer, inner):
    """The stochastic matrix product, one inner row at a time, as a reference."""
    rows = tuple(_dense_mix(outer.target, zip(r.weights, outer.rows)) for r in inner.rows)
    return Kernel(inner.source, outer.target, rows)


def _weights(kernel):
    return [row.weights for row in kernel.rows]


@st.composite
def wide_kernel_pairs(draw):
    """Two composable kernels and a distribution on the inner one's source,
    every row and the distribution drawn with large coprime denominators as
    often as with small ones."""
    sa = draw(spaces("A", max_size=5))
    sb = draw(spaces("B", max_size=5))
    sc = draw(spaces("C", max_size=5))
    return (draw(kernels(sb, sc, any_dists)), draw(kernels(sa, sb, any_dists)),
            draw(any_dists(sa)))


class TestMixingInIntegers:
    """Composition, the lift and the mixture sum rows in integers over one
    common denominator; they give exactly what the ``Fraction`` loops give,
    also when that denominator is a product of primes near 10**6."""

    @settings(max_examples=80, deadline=None)
    @given(wide_kernel_pairs())
    def test_compose_lift_and_mixture_equal_the_fraction_loops(self, data):
        outer, inner, dist = data
        assert _weights(compose(outer, inner)) == _weights(_product(outer, inner))
        lifted = lift(inner)(dist)
        assert lifted.weights == _dense_mix(inner.target, zip(dist.weights, inner.rows)).weights
        spread = image_measure(inner, dist)
        pairs = zip(spread.weights, spread.atoms)
        assert mixture(spread).weights == _dense_mix(inner.target, pairs).weights
        assert mixture(spread).weights == lifted.weights

    def test_zero_weight_rows_add_nothing(self, two_points, three_points):
        big = Dist(two_points, (F(1, 999_983), F(999_982, 999_983)))
        kernel = Kernel(three_points, two_points, (big, Dist.dirac(two_points, "y1"), big))
        dist = Dist(three_points, (F(0), F(1), F(0)))
        assert lift(kernel)(dist).weights == (F(1), F(0))
        assert lift(kernel)(dist)._form == ((1, 0), 1)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_determinism_agrees_with_the_entrywise_definition(self, data):
        source = data.draw(spaces("A", max_size=4))
        target = data.draw(spaces("B", max_size=4))

        def rows(space):
            point_masses = st.sampled_from(space.points).map(lambda y: Dist.dirac(space, y))
            return st.one_of(point_masses, point_masses, any_dists(space))

        kernel = data.draw(kernels(source, target, rows))
        entrywise = all(w == 0 or w == 1 for row in kernel.rows for w in row.weights)
        assert is_deterministic(kernel) == entrywise


class TestRepeatedRows:
    """Kernels whose rows repeat by value, each repeat a separate object."""

    @pytest.fixture
    def space(self):
        return FiniteSpace("P", ("p1", "p2", "p3", "p4", "p5"))

    @pytest.fixture
    def repeating(self, space, two_points):
        # rows by class: a, b, a, c, b
        a, b, c = (F(1), F(0)), (F(1, 3), F(2, 3)), (F(1, 2), F(1, 2))
        return Kernel(space, two_points, tuple(Dist(two_points, w) for w in (a, b, a, c, b)))

    def test_partition_numbers_classes_in_first_appearance_order(self, repeating):
        classes, representatives = repeating.row_partition
        assert classes == (0, 1, 0, 2, 1)
        assert representatives == tuple(repeating.rows[i] for i in (0, 1, 3))
        assert all(r is repeating.rows[i] for r, i in zip(representatives, (0, 1, 3)))

    def test_partition_is_not_part_of_equality_or_repr(self, repeating):
        fresh = Kernel(repeating.source, repeating.target, repeating.rows)
        before = repr(repeating)
        assert repeating == fresh and hash(repeating) == hash(fresh)
        assert repr(repeating) == before == repr(fresh)

    def test_compose_equals_the_per_row_product(self, repeating, two_points):
        target = FiniteSpace("Z", ("z1", "z2", "z3"))
        outer = Kernel(two_points, target, (
            Dist(target, (F(1, 4), F(0), F(3, 4))),
            Dist(target, (F(0), F(2, 5), F(3, 5))),
        ))
        composed = compose(outer, repeating)
        assert composed == _product(outer, repeating)
        assert composed.row_partition[0] == (0, 1, 0, 2, 1)

    def test_image_measure_orders_atoms_by_first_weighted_point(self, repeating, space):
        # p1 has the row of p3 but no weight; p5 repeats p2's row, also unweighted
        dist = Dist(space, (F(0), F(1, 4), F(1, 4), F(1, 2), F(0)))
        spread = image_measure(repeating, dist)
        rows = repeating.rows
        assert spread.atoms == (rows[1], rows[2], rows[3])
        assert spread.weights == (F(1, 4), F(1, 4), F(1, 2))
        assert mixture(spread) == lift(repeating)(dist)

    def test_image_measure_merges_the_weights_of_equal_rows(self, repeating, space):
        dist = Dist(space, (F(1, 10), F(1, 5), F(3, 10), F(0), F(2, 5)))
        spread = image_measure(repeating, dist)
        assert spread.atoms == (repeating.rows[0], repeating.rows[1])
        assert spread.weights == (F(2, 5), F(3, 5))


@st.composite
def pooled_kernel_pairs(draw):
    """An inner kernel whose rows come from a pool of at most three, and an outer one."""
    sa = draw(spaces("A", max_size=6))
    sb = draw(spaces("B", max_size=4))
    sc = draw(spaces("C", max_size=4))
    pool = draw(st.lists(dists(sb), min_size=1, max_size=3))
    picks = draw(st.lists(st.sampled_from(range(len(pool))), min_size=len(sa), max_size=len(sa)))
    # rebuild each pick, so equal rows are separate objects
    inner = Kernel(sa, sb, tuple(Dist(sb, pool[i].weights) for i in picks))
    return draw(kernels(sb, sc)), inner, draw(dists(sa))


@settings(max_examples=50, deadline=None)
@given(pooled_kernel_pairs())
def test_pooled_rows_compose_and_spread_like_the_reference(data):
    outer, inner, dist = data
    assert compose(outer, inner) == _product(outer, inner)
    merged = {}
    for row, w in zip(inner.rows, dist.weights):
        if w:
            merged[row] = merged.get(row, F(0)) + w
    spread = image_measure(inner, dist)
    assert spread.atoms == tuple(merged) and spread.weights == tuple(merged.values())


class TestImageMeasure:
    """``image_measure`` and ``FinSuppMeasure.map`` merge weights through one
    routine; they agree, and the merged weights are exact sums."""

    @settings(max_examples=80, deadline=None)
    @given(wide_pooled_kernels())
    def test_image_measure_is_the_map_of_the_row_function(self, data):
        kernel, dist = data
        spread = image_measure(kernel, dist)
        mapped = FinSuppMeasure(kernel.source.points, dist.weights).map(kernel.row)
        weighted = [(row, w) for row, w in zip(kernel.rows, dist.weights) if w]
        assert spread.atoms == tuple(dict.fromkeys(row for row, _ in weighted))
        assert (spread.atoms, spread.weights) == (mapped.atoms, mapped.weights)
        assert spread.weights == tuple(
            sum((w for row, w in weighted if row == atom), F(0)) for atom in spread.atoms
        )

    def test_map_merges_coprime_weights_into_their_exact_sum(self):
        p, q = PRIMES[0], PRIMES[1]
        rest = 1 - F(1, p) - F(2, q)
        measure = FinSuppMeasure(("a", "b", "c"), (F(1, p), rest, F(2, q)))
        merged = measure.map(lambda atom: "ac" if atom in "ac" else atom)
        assert merged.atoms == ("ac", "b")
        assert merged.weights == (F(q + 2 * p, p * q), rest)
        assert merged._form == ((q + 2 * p, p * q - q - 2 * p), p * q)


def test_a_pickled_kernel_hashes_as_one_built_where_it_is_loaded():
    # a kernel's hash reads its spaces' names and labels, whose string
    # hashes differ between processes; loading rebuilds the kept hash
    dump = (
        "import pickle, sys\n"
        "from giryq import Dist, FiniteSpace, Kernel\n"
        "x, y = FiniteSpace('X', ('x1', 'x2')), FiniteSpace('Y', ('y1', 'y2'))\n"
        "row = Dist(y, ('1/3', '2/3'))\n"
        "sys.stdout.write(pickle.dumps(Kernel(x, y, (row, Dist.dirac(y, 'y1')))).hex())\n"
    )
    load = (
        "import pickle, sys\n"
        "from giryq import Dist, FiniteSpace, Kernel\n"
        "loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))\n"
        "x, y = FiniteSpace('X', ('x1', 'x2')), FiniteSpace('Y', ('y1', 'y2'))\n"
        "built = Kernel(x, y, (Dist(y, ('1/3', '2/3')), Dist.dirac(y, 'y1')))\n"
        "print(loaded == built, hash(loaded) == hash(built), loaded.row_partition[0])\n"
    )

    def run(script, seed, stdin=""):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONHASHSEED=seed)
        return subprocess.run([sys.executable, "-c", script], input=stdin, env=env,
                              capture_output=True, text=True, timeout=600, check=True).stdout

    assert run(load, "2", run(dump, "1")) == "True True (0, 1)\n"
