"""Hypothesis strategies generating exact-rational instances."""
from fractions import Fraction

import hypothesis.strategies as st

from giryq import Dist, FiniteSpace, Kernel, Predicate


def spaces(tag="S", min_size=1, max_size=5):
    return st.integers(min_value=min_size, max_value=max_size).map(
        lambda n: FiniteSpace(tag, tuple(f"{tag.lower()}{i + 1}" for i in range(n)))
    )


@st.composite
def dists(draw, space):
    n = len(space)
    parts = draw(
        st.lists(st.integers(min_value=0, max_value=8), min_size=n, max_size=n)
    )
    if not any(parts):
        parts[draw(st.integers(min_value=0, max_value=n - 1))] = 1
    total = sum(parts)
    return Dist(space, tuple(Fraction(p, total) for p in parts))


# the five largest primes below 10**6: pairwise coprime, so a sum of rows
# over them has a common denominator far past any workload's
PRIMES = (999_953, 999_959, 999_961, 999_979, 999_983)


@st.composite
def wide_dists(draw, space):
    """A distribution whose weights have large coprime denominators, often
    with zero weights.  Every point but one takes ``a/p`` with ``p`` from
    ``PRIMES`` and ``a`` at most ``p // n``; that one takes the rest, whose
    denominator is a product of the primes used."""
    n = len(space)
    rest = draw(st.integers(min_value=0, max_value=n - 1))
    weights = []
    for i in range(n):
        p = draw(st.sampled_from(PRIMES))
        a = draw(st.one_of(st.just(0), st.integers(min_value=1, max_value=p // n)))
        weights.append(Fraction(0) if i == rest else Fraction(a, p))
    weights[rest] = 1 - sum(weights)
    return Dist(space, tuple(weights))


@st.composite
def wide_pooled_kernels(draw):
    """A kernel whose rows come from a pool of two or three wide
    distributions, and a wide distribution on its source, often with zero
    weights."""
    sa = draw(spaces("A", min_size=3, max_size=6))
    sb = draw(spaces("B", min_size=2, max_size=4))
    pool = draw(st.lists(wide_dists(sb), min_size=2, max_size=3))
    picks = draw(st.lists(st.sampled_from(range(len(pool))), min_size=len(sa), max_size=len(sa)))
    return Kernel(sa, sb, tuple(Dist(sb, pool[i].weights) for i in picks)), draw(wide_dists(sa))


def any_dists(space):
    """Small-denominator and wide distributions alike."""
    return st.one_of(dists(space), wide_dists(space))


@st.composite
def dist_pairs(draw, tag="S", max_size=5):
    space = draw(spaces(tag, max_size=max_size))
    return draw(dists(space)), draw(dists(space))


@st.composite
def dist_triples(draw, tag="S", max_size=5):
    space = draw(spaces(tag, max_size=max_size))
    return tuple(draw(dists(space)) for _ in range(3))


@st.composite
def predicates(draw, space, dens=st.integers(min_value=1, max_value=6)):
    values = []
    for _ in space.points:
        den = draw(dens)
        values.append(Fraction(draw(st.integers(min_value=0, max_value=den)), den))
    return Predicate(space, tuple(values))


@st.composite
def kernels(draw, source, target, rows=dists):
    return Kernel(
        source, target, tuple(draw(rows(target)) for _ in source.points)
    )


@st.composite
def kernel_chains(draw, max_size=4):
    """Three composable kernels between four random spaces."""
    sa = draw(spaces("A", max_size=max_size))
    sb = draw(spaces("B", max_size=max_size))
    sc = draw(spaces("C", max_size=max_size))
    sd = draw(spaces("D", max_size=max_size))
    return (
        draw(kernels(sa, sb)),
        draw(kernels(sb, sc)),
        draw(kernels(sc, sd)),
    )


@st.composite
def weight_lists(draw, max_size=6):
    """Rational weights of either sign; about half of the lists sum to
    exactly 1, some of those with a negative last weight."""
    weights = draw(
        st.lists(
            st.builds(Fraction, st.integers(min_value=-3, max_value=12),
                      st.integers(min_value=1, max_value=12)),
            max_size=max_size,
        )
    )
    if weights and draw(st.booleans()):
        weights[-1] = 1 - sum(weights[:-1])
    return tuple(weights)
