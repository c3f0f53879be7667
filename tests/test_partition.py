from collections import Counter
from fractions import Fraction
from math import prod

import pytest

from dessins import maps
from dessins import operators as ops
from dessins import partition as pt
from dessins.series import MARKER_NEG, Monomial, Poly, mu_factorial
from helpers import parse_poly


def P(*pairs):
    return parse_poly(pairs)


def test_layer_zero_and_one():
    z = pt.partition_function(1)
    assert z.layer(0) == Poly.one()
    assert z.layer(1) == P(({2: 1}, 1), ({1: 2}, Fraction(1, 2)))


def test_layer_two_golden():
    z = pt.partition_function(2)
    assert z.layer(2) == P(
        ({1: 4}, Fraction(1, 8)),
        ({1: 2, 2: 1}, Fraction(3, 2)),
        ({2: 2}, Fraction(3, 2)),
        ({1: 1, 3: 1}, 3),
        ({4: 1}, 3),
    )


def test_layer_homogeneity():
    z = pt.partition_function(4, with_marker=True)
    for d in range(5):
        assert all(m.degree == 2 * d for m in z.layer(d).terms)


@pytest.mark.parametrize("k", [0, 1, 5])
def test_flow_step_is_the_scaled_image(k):
    layer = P(({1: 2, MARKER_NEG: 1}, Fraction(3, 4)), ({2: 1}, Fraction(-5, 6)), ({}, 2))
    for op in (ops.w1_reduced(marker=True), ops.w0_reduced()):
        assert pt._flow_step(op, layer, k) == ops.apply(op, layer).scale(Fraction(1, k + 1))


def test_connected_log_basics():
    z = pt.partition_function(3)
    c = pt.connected(z)
    assert c.layer(1) == z.layer(1)
    assert c.layer(2).coeff(Monomial({2: 2})) == 1
    assert pt.connected(pt.partition_function(0)).layer(0).is_zero()


def _fraction_product(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = Monomial(Counter(dict(m1.exps)) + Counter(dict(m2.exps)))
            out[m] = out.get(m, 0) + c1 * c2
    return out


def _power_sum_log(z):
    """Reference logarithm: sum_k (-1)^(k+1)/k U^k with U = Z - 1, each power
    formed layer by layer over the rectangle of ``z``, in Fractions."""
    m_max, d_max = z.m_max, z.d_max
    u = {k: p.terms for k, p in z.layers.items() if k != (0, 0)}
    acc, power = {}, {(0, 0): {Monomial(): Fraction(1)}}
    for k in range(1, m_max + d_max + 1):
        nxt = {}
        for (m1, d1), p1 in power.items():
            for (m2, d2), p2 in u.items():
                if m1 + m2 <= m_max and d1 + d2 <= d_max:
                    layer = nxt.setdefault((m1 + m2, d1 + d2), {})
                    for mono, c in _fraction_product(p1, p2).items():
                        layer[mono] = layer.get(mono, 0) + c
        power = nxt
        for key, layer in power.items():
            tgt = acc.setdefault(key, {})
            for mono, c in layer.items():
                tgt[mono] = tgt.get(mono, 0) + c * Fraction((-1) ** (k + 1), k)
    out = {key: {m: c for m, c in layer.items() if c} for key, layer in acc.items()}
    return {key: layer for key, layer in out.items() if layer}


@pytest.mark.parametrize(
    "flow,args",
    [pytest.param(pt.partition_function, (d, mk), id=f"Z d={d} marker={mk}")
     for d in (0, 3, 6) for mk in (False, True)]
    + [pytest.param(pt.partition_function_bivalent, (m, d, True), id=f"bivalent {m} {d}")
       for m, d in ((4, 2), (3, 3), (2, 4))],
)
def test_connected_matches_power_sum_logarithm(flow, args):
    z = flow(*args)
    got = pt.connected(z)
    assert {k: p.terms for k, p in got.layers.items()} == _power_sum_log(z)
    assert all(type(c) is Fraction for p in got.layers.values() for c in p.terms.values())
    assert got.marker == z.marker and got.connected_form


def test_connected_rejects_bad_vacuum():
    z = pt.partition_function(1)
    z.layers[(0, 0)] = Poly.var(1)
    with pytest.raises(ValueError):
        pt.connected(z)


CONN = pt.connected(pt.partition_function(3, with_marker=True))


@pytest.mark.parametrize(
    "key,expected",
    [
        (pt.CountKey(0, 1, 2, (2,)), Fraction(1, 2)),
        (pt.CountKey(0, 2, 1, (1, 1)), Fraction(1)),
        (pt.CountKey(1, 1, 1, (4,)), Fraction(1, 4)),
        (pt.CountKey(0, 1, 3, (4,)), Fraction(1, 2)),
    ],
)
def test_count_examples(key, expected):
    assert pt.count(CONN, key) == expected


def test_count_parity_and_stability_zeroes():
    assert pt.count(CONN, pt.CountKey(0, 1, 2, (3,))) == 0
    assert pt.count(CONN, pt.CountKey(0, 1, 1, (2,))) == 0  # unstable cylinder, m=0
    assert pt.count(CONN, pt.CountKey(0, 2, 1, (1, 0))) == 0


def test_count_requires_marker():
    c = pt.connected(pt.partition_function(2))
    with pytest.raises(ValueError):
        pt.count(c, pt.CountKey(0, 1, 2, (2,)))


def test_virasoro_vanishing_small():
    z = pt.partition_function(3)
    assert pt.virasoro_residuals(z, i_max=4) == []


def test_bivalent_layers_and_flow_order():
    b1 = pt.partition_function_bivalent(3, 2)
    b2 = pt.partition_function_bivalent(3, 2, q1_first=True)
    keys = set(b1.layers) & set(b2.layers)
    assert all(b1.layers[k] == b2.layers[k] for k in keys)
    m1 = pt.partition_function_bivalent(2, 2, with_marker=True)
    m2 = pt.partition_function_bivalent(2, 2, with_marker=True, q1_first=True)
    assert all(m1.layers[k] == m2.layers[k] for k in set(m1.layers) & set(m2.layers))
    assert b1.layer(0, 1) == Poly.var(1)
    z = pt.partition_function(2)
    assert all(b1.layer(d, 0) == z.layer(d) for d in range(3))
    # bivalent layer degrees are 2d + m
    for (m, d), poly in b1.items():
        assert all(mm.degree == 2 * d + m for mm in poly.terms)


def test_integral_points_series_layer1():
    ip = pt.integral_points_series(2)
    assert ip.layer(1) == P(({1: 1}, 1), ({2: 1}, 1), ({1: 2}, Fraction(1, 2)))


def test_integral_points_series_matches_brute_force_through_layer3():
    # q^n t^alpha t-^k of log Z at q0 = q1 = q counts connected maps with
    # v2 = m = 2n - sum(alpha) bivalent and v4 = n - m quadrivalent vertices
    c = pt.connected(pt.integral_points_series(3, with_marker=True))
    checked = 0
    for n in range(1, 4):
        for mono, coeff in c.layer(n).terms.items():
            alpha = mono.partition()
            n_minus = mono.exp(MARKER_NEG)
            m = 2 * n - sum(alpha)
            v4 = n - m
            # Euler: (v4 + m) - (2 v4 + m) + (n+ + n-) = 2 - 2g
            g2 = 2 + v4 - len(alpha) - n_minus
            assert m >= 0 and v4 >= 0 and g2 >= 0 and g2 % 2 == 0
            spec = maps.EnumSpec(v4, m, len(alpha), n_minus, alpha, g=g2 // 2)
            assert coeff * mu_factorial(alpha) / prod(alpha) == maps.count_dessins(spec)
            checked += 1
    assert checked == 34


def test_marker_layers_resolve_negative_boundaries():
    z = pt.partition_function(2, with_marker=True)
    layer2 = z.layer(2)
    # t4 splits by marker power: n-=1 carries 1, n-=3 carries 2 (Catalan)
    assert layer2.coeff(Monomial({4: 1, MARKER_NEG: 1})) == 1
    assert layer2.coeff(Monomial({4: 1, MARKER_NEG: 3})) == 2
    assert layer2.coeff(Monomial({4: 1, MARKER_NEG: 2})) == 0
