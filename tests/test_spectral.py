from fractions import Fraction

import pytest

from dessins import spectral as sp
from dessins import tutte
from dessins.series import RationalFn, solve_disc


def test_w01_equals_disc_series():
    w = sp.laplace_W(0, 1, 12)
    u = solve_disc(6)
    for k in range(6):
        assert w.value((2 * k,)) == u.coeff(2 * k + 1) == tutte.catalan(k)


def test_correlators_even_support_only():
    for g, n in [(0, 1), (0, 2), (1, 1), (0, 3), (1, 2)]:
        w = sp.laplace_W(g, n, 9)
        assert all(sum(alpha) % 2 == 0 for alpha in w.coeffs)


def test_star_coefficients():
    w = sp.laplace_W(1, 1, 8)
    star = w.star_coeffs()
    assert star[(4,)] == Fraction(1, 4)


@pytest.mark.parametrize("g,n", [(0, 1), (0, 2), (1, 1), (0, 3)])
def test_loop_equation(g, n):
    assert sp.loop_check(g, n, 8) == []


def test_disc_equation_is_loop_equation_at_01():
    # x W01 = W01^2 + 1 coefficientwise, reconstructed directly
    w = sp.laplace_W(0, 1, 14)
    u = solve_disc(7)
    sq = u * u
    for m in range(0, 12):
        lhs = w.value((m,))  # coefficient of x^-m in x*W01 is R~(m)
        rhs = (sq.coeffs.get(m, 0) if m >= 2 else 0) + (1 if m == 0 else 0)
        assert lhs == rhs


def test_bergman_identity():
    assert sp.bergman_check(10) == []
    assert sp.bergman_full_identity(3) == []


def test_bergman_full_identity_detects_wrong_sign_in_dx(monkeypatch):
    one = RationalFn.const(1)
    monkeypatch.setattr(sp, "_dx", lambda z: one + one / (z * z))
    assert sp.bergman_full_identity(3)


def test_tr_omega11_closed_form():
    om = sp.tr_omega(1, 1)
    fn = om.as_rational_fn()
    # z^3/(z^2-1)^4
    from dessins.series import RationalFn

    expect = RationalFn([0, 0, 0, 1]) / (
        RationalFn([-1, 0, 1])
        * RationalFn([-1, 0, 1])
        * RationalFn([-1, 0, 1])
        * RationalFn([-1, 0, 1])
    )
    assert fn == expect
    assert om.pole_locations() == {1, -1}


@pytest.mark.parametrize("g,n,hi", [(0, 3, 8), (1, 1, 9), (0, 4, 6), (1, 2, 6)])
def test_tr_agreement(g, n, hi):
    assert sp.tr_agreement_check(g, n, hi) == []


def test_tr_omega03_symmetric():
    d = sp.tr_omega(0, 3).expand_at_infinity(8)
    for e, c in d.items():
        assert d.get(tuple(sorted(e))) == c


def test_tr_rejects_unstable():
    with pytest.raises(ValueError):
        sp.tr_omega(0, 2)


def test_tree_series_and_norbury_substitution():
    assert sp.tree_series_check(8) == []
    assert sp.norbury_substitution_check(1, 1, 9) == []
    assert sp.norbury_substitution_check(0, 3, 8) == []


def test_norbury_substitution_rejects_unsupported():
    with pytest.raises(ValueError):
        sp.norbury_substitution_check(2, 1, 6)


def test_kernel_denominator_antisymmetry_under_inversion():
    # the 1-form omega01 - sigma*omega01 changes sign under z -> 1/z:
    # D(1/z) * d(1/z)/dz = -D(z) with D(z) = -(z^2-1)^2/z^3
    from dessins.series import RationalFn

    d = RationalFn([1, 0, -2, 0, 1]) / RationalFn([0, 0, 0, -1])
    d_at_inverse = RationalFn([1, 0, -2, 0, 1]) / RationalFn([0, -1])
    jacobian = RationalFn([-1]) / RationalFn([0, 0, 1])
    assert d_at_inverse * jacobian == -d
