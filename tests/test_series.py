from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dessins import operators as ops
from dessins import partition as pt
from dessins import spectral as sp
from dessins.series import (
    MARKER_NEG,
    Monomial,
    Poly,
    accumulate_product,
    distinct_permutations,
)
from helpers import parse_poly


def P(*pairs):
    return parse_poly(pairs)


coeffs = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)
# t0, t1..t5 and two markers, so products meet every order of keys: integer
# variables ascending, then markers ascending
monomials = st.dictionaries(
    st.sampled_from([0, 1, 2, 3, 4, 5, MARKER_NEG, "t+"]),
    st.integers(min_value=1, max_value=3),
    max_size=4,
)
polys = st.lists(st.tuples(monomials, coeffs), max_size=5).map(lambda ps: parse_poly(ps))


def test_monomial_degree_and_parts():
    m = Monomial({1: 2, 3: 1, "t-": 2})
    assert m.degree == 5
    assert m.partition() == (1, 1, 3)
    assert Monomial({0: 4}).degree == 0


def test_poly_mul_examples():
    t1 = Poly.var(1)
    assert t1 * t1 == P(({1: 2}, 1))
    a = P(({}, 1), ({2: 1}, 1))
    b = P(({}, 1), ({2: 1}, -1))
    assert a * b == P(({}, 1), ({2: 2}, -1))


def test_poly_mul_derived_square():
    # (t2 + t1^2/2)^2 expanded directly
    p = P(({2: 1}, 1), ({1: 2}, Fraction(1, 2)))
    sq = p * p
    assert sq == P(({2: 2}, 1), ({1: 2, 2: 1}, 1), ({1: 4}, Fraction(1, 4)))


def _sorted_product(m1, m2):
    """Reference monomial product: the summed exponents through the sorting
    constructor, not ``Monomial.mul``."""
    return Monomial(Counter(dict(m1.exps)) + Counter(dict(m2.exps)))


def _fraction_loop_product(a, b):
    """Reference product: one Fraction multiply and add per pair of terms."""
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = _sorted_product(m1, m2)
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


@given(monomials, monomials)
@example({}, {})
@example({MARKER_NEG: 2}, {})
@example({}, {"t+": 1, MARKER_NEG: 1})
@example({MARKER_NEG: 1}, {0: 1, 5: 2})
@example({"t+": 1, 3: 1}, {MARKER_NEG: 2, 0: 1, 3: 2})
@settings(max_examples=200, deadline=None)
def test_monomial_mul_matches_sorting_constructor(e1, e2):
    m1, m2 = Monomial(e1), Monomial(e2)
    got, want = m1.mul(m2), _sorted_product(m1, m2)
    assert got.exps == want.exps and got.degree == want.degree
    assert got == want and hash(got) == hash(want)


@given(monomials, monomials)
@example({MARKER_NEG: 1}, {1: 1})
@settings(max_examples=100, deadline=None)
def test_accumulate_product_adds_to_the_equal_key_it_holds(e1, e2):
    # the accumulator holds the product as an equal but distinct object
    held = _sorted_product(Monomial(e1), Monomial(e2))
    acc = {held: 5}
    accumulate_product(acc, {Monomial(e1): 2}, {Monomial(e2): 3}, 7)
    assert acc == {held: 47} and next(iter(acc)) is held


def _all_fractions(p):
    return all(type(c) is Fraction for c in p.terms.values())


@given(polys, polys)
@settings(max_examples=80, deadline=None)
def test_poly_mul_matches_fraction_loop(a, b):
    got = a * b
    assert got.terms == _fraction_loop_product(a, b)
    assert _all_fractions(got)


def test_poly_mul_cancels_to_zero():
    x = P(({1: 1}, Fraction(1, 3)), ({2: 1}, Fraction(3, 2)))
    y = P(({1: 1}, Fraction(1, 3)), ({2: 1}, Fraction(-3, 2)))
    # the cross terms cancel exactly and leave no zero coefficient behind
    assert (x * y).terms == {Monomial({1: 2}): Fraction(1, 9), Monomial({2: 2}): Fraction(-9, 4)}
    assert (x * (y - y)).is_zero() and (x - x) * y == Poly.zero()
    assert (x * y).terms == _fraction_loop_product(x, y)


def test_kernel_outputs_are_fractions():
    z = pt.partition_function(4, with_marker=True)
    assert all(_all_fractions(p) for p in z.layers.values())
    assert _all_fractions(ops.apply(ops.w1_reduced(marker=True), z.layer(3)))
    assert _all_fractions(ops.apply(ops.virasoro_l(2), z.layer(4)))
    assert all(_all_fractions(p) for p in pt.connected(z).layers.values())


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_rendering_is_graded_lex():
    p = P(({1: 2}, Fraction(3, 2)), ({2: 1}, 1), ({}, -1))
    assert p.as_str() == "-1 + 3/2*t1^2 + t2"


def test_solve_disc_catalan():
    u = sp.solve_disc(7)
    assert u == {2 * k + 1: c for k, c in enumerate([1, 1, 2, 5, 14, 42, 132, 429])}


def test_solve_disc_quadratic_identity():
    # u^2 - x*u + 1 = 0 on x^-m, m <= 2*cap, where x*u is exact
    u = sp.solve_disc(6)
    sq = sp._truncated_product(u, u, 12)
    for m in range(13):
        assert sq.get(m, 0) - u.get(m + 1, 0) + (m == 0) == 0


def test_distinct_permutations_sorted_without_repeats():
    assert distinct_permutations((1, 1, 2)) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert distinct_permutations((3,)) == [(3,)]
