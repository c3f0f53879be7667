"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion.  Every comparison is exact equality of rationals; the only
tolerances are the stated runtime budgets.
"""

import time
from fractions import Fraction
from math import factorial

import pytest

from dessins import maps, opmatrix, spectral, tutte
from dessins import operators as ops
from dessins import partition as pt
from dessins.series import MARKER_NEG, Monomial, Poly
from helpers import catalan, parse_poly


def _report(num, text, t0):
    print(f"PASS criterion {num}: {text} [{time.time() - t0:.1f}s]")


def test_criterion_01_catalan_disc_three_routes():
    t0 = time.time()
    u = spectral.solve_disc(6)
    z = pt.partition_function(5, with_marker=True)
    c = pt.connected(z)
    for k in range(6):
        cat = catalan(k)
        assert tutte.r_tilde(0, 1, (2 * k,)) == cat
        assert u[2 * k + 1] == cat
        if k == 0:
            # the empty disc is the vacuum normalization of the flow route
            assert z.layer(0) == Poly.one()
        else:
            # marker-refined extraction summed over n- (one term survives)
            got = sum(
                (pt.count(c, pt.CountKey(0, 1, nm, (2 * k,))) for nm in range(1, k + 3)),
                Fraction(0),
            ) * 2 * k
            assert got == cat
    elapsed = time.time() - t0
    assert elapsed < 5
    _report(1, "R~_{0,1}(2k) = Catalan(k), k=0..5, three routes, exact", t0)


def test_criterion_02_cut_and_join_layers():
    t0 = time.time()
    z = pt.partition_function(2, with_marker=True)
    at_one = {
        d: pt._substitute_marker(z.layer(d), MARKER_NEG, Fraction(1)) for d in (1, 2)
    }
    assert at_one[1] == parse_poly([({2: 1}, 1), ({1: 2}, Fraction(1, 2))])
    assert at_one[2] == parse_poly(
        [
            ({1: 4}, Fraction(1, 8)),
            ({1: 2, 2: 1}, Fraction(3, 2)),
            ({2: 2}, Fraction(3, 2)),
            ({1: 1, 3: 1}, 3),
            ({4: 1}, 3),
        ]
    )
    # the brute-force oracle reproduces every connected count at d <= 2
    c = pt.connected(z)
    for d in (1, 2):
        for mono, coeff in c.layer(d).terms.items():
            alpha = mono.partition()
            n_minus = mono.exp(MARKER_NEG)
            n_plus = len(alpha)
            g2 = d + 2 - n_plus - n_minus
            assert g2 >= 0 and g2 % 2 == 0
            key = pt.CountKey(g2 // 2, n_plus, n_minus, alpha)
            want = pt.count(c, key)
            got = maps.count_dessins(
                maps.EnumSpec(d, 0, n_plus, n_minus, alpha, g=g2 // 2)
            )
            assert got == want
    elapsed = time.time() - t0
    assert elapsed < 5
    _report(2, "layers Z_1, Z_2 exact and oracle-confirmed", t0)


def test_criterion_03_oracle_equivalence():
    t0 = time.time()
    c = pt.connected(pt.partition_function(4, with_marker=True))

    def partitions_of(total, mx):
        if total == 0:
            yield ()
            return
        for p in range(min(total, mx), 0, -1):
            for rest in partitions_of(total - p, p):
                yield (p,) + rest

    checked = 0
    for total in range(2, 9, 2):
        d = total // 2
        for alpha in partitions_of(total, total):
            n_plus = len(alpha)
            for n_minus in range(1, d + 2):
                g2 = d + 2 - n_plus - n_minus
                if g2 < 0 or g2 % 2:
                    continue
                g = g2 // 2
                key = pt.CountKey(g, n_plus, n_minus, alpha)
                want = pt.count(c, key)
                spec = maps.EnumSpec(d, 0, n_plus, n_minus, alpha, g=g)
                assert maps.count_dessins(spec) == want
                prod = 1
                for a in alpha:
                    prod *= a
                assert tutte.r_tilde(g, n_plus, alpha) == prod * want
                checked += 1
    # bivalent keys with N <= 16 inside the (6, 2) flow: v4 <= 2, v2 <= 6
    cb = pt.connected(pt.partition_function_bivalent(6, 2, with_marker=True))
    for v4 in range(0, 3):
        for v2 in range(0, 7):
            n_darts = 4 * v4 + 2 * v2
            if n_darts == 0 or n_darts > 16:
                continue
            table = maps._dessin_table(v4, v2)
            for (g, n_minus, perims), _ in table.items():
                key = pt.CountKey(g, len(perims), n_minus, perims, m=v2)
                want = pt.count(cb, key)
                got = maps.count_dessins(
                    maps.EnumSpec(v4, v2, len(perims), n_minus, perims, g=g)
                )
                assert got == want
                checked += 1
    elapsed = time.time() - t0
    assert elapsed < 300
    _report(3, f"oracle equivalence on {checked} keys (sum alpha <= 8, N <= 16)", t0)


def test_criterion_04_witt_bracket():
    t0 = time.time()
    for i in range(-1, 9):
        for j in range(i, 9):
            expect = ops.virasoro_l(i + j) if i != j else None
            res = ops.commutator_check(
                ops.virasoro_l(i), ops.virasoro_l(j), expect, i - j, 10, 12
            )
            assert res == []
    _report(4, "[L_i, L_j] = (i-j) L_{i+j} for -1 <= i <= j <= 8, degree <= 10", t0)


def test_criterion_05_virasoro_vanishing():
    t0 = time.time()
    z = pt.partition_function(4)
    assert pt.virasoro_residuals(z, i_max=6) == []
    # C = -d0 + 1 holds by construction of the reduced representation:
    # the full Z is exp(t0) times the stored layers, and C kills exp(t0)
    t0_cap = 6
    expt0 = Poly(
        {Monomial({0: a}): Fraction(1, factorial(a)) for a in range(t0_cap + 1)}
    )
    img = ops.apply(ops.constraint_c(), expt0)
    assert all(m.exp(0) >= t0_cap for m in img.terms)
    _report(5, "conjugated L_i annihilate Z for i = -1..6, d <= 4; C by construction", t0)


def test_criterion_06_commuting_flows():
    t0 = time.time()
    assert ops.commutator_check(ops.w0(), ops.w1(), None, 0, 10, 12) == []
    b1 = pt.partition_function_bivalent(3, 3)
    b2 = pt.partition_function_bivalent(3, 3, q1_first=True)
    assert set(b1.layers) == set(b2.layers)
    assert all(b1.layers[k] == b2.layers[k] for k in b1.layers)
    _report(6, "[W0, W1] = 0 and bivalent flows order-independent", t0)


def test_criterion_07_matrix_cut_and_join():
    t0 = time.time()
    assert opmatrix.cutjoin_matrix_check(4, 10) == []
    assert opmatrix.vacuum_consistency_check(4, 10) == []
    _report(7, "d K_d = (W1 K)_d entrywise for d <= 4 (genus 2), cap 10, from enumeration data", t0)


def test_criterion_08_loop_equation():
    t0 = time.time()
    for g, n in [(0, 1), (0, 2), (1, 1), (0, 3)]:
        assert spectral.loop_check(g, n, 8) == []
    _report(8, "loop equation holds to total order 8 incl. the disc source", t0)


def test_criterion_09_bergman_identity():
    t0 = time.time()
    assert spectral.bergman_check(10) == []
    _report(9, "W_{0,2}(z1,z2) x'(z1) x'(z2) = 1/(z1 z2 - 1)^2 to order 10", t0)


def test_criterion_10_tr_agreement():
    t0 = time.time()
    assert spectral.tr_agreement_check(0, 3, 8) == []
    assert spectral.tr_agreement_check(1, 1, 9) == []
    for g, n in [(0, 3), (1, 1)]:
        assert spectral.tr_omega(g, n).pole_locations() <= {1, -1}
    _report(10, "omega_{0,3} and omega_{1,1} match Laplace series; poles at +-1", t0)


def test_criterion_11_adjointness():
    t0 = time.time()
    assert opmatrix.adjoint_check(0, 2, 1, 6) == []
    assert opmatrix.adjoint_check(0, 1, 2, 6) == []
    assert opmatrix.adjoint_check(0, 2, 2, 6) == []
    assert opmatrix.adjoint_check(0, 3, 2, 10) == []
    assert opmatrix.adjoint_check(1, 2, 1, 10) == []
    assert opmatrix.adjoint_check(0, 4, 2, 10) == []
    assert opmatrix.adjoint_check(2, 1, 1, 10) == []
    _report(
        11,
        "Gram adjointness for (0,2,1)/(0,1,2), self-adjoint (0,2,2), and "
        "(0,3,2), (1,2,1), (0,4,2), (2,1,1) to cap 10",
        t0,
    )


def test_criterion_12_norbury_substitution():
    t0 = time.time()
    assert spectral.tree_series_check(8) == []
    assert spectral.norbury_substitution_check(1, 1, 9) == []
    assert spectral.norbury_substitution_check(0, 3, 8) == []
    _report(12, "F^comb(u(x)) = W*(x) for (1,1) to x^-9 and (0,3) to order 8", t0)
