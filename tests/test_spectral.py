import ast
import hashlib
import json
import re
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dessins import spectral as sp
from helpers import catalan


def test_w01_equals_disc_series():
    w = sp.laplace_W(0, 1, 12)
    u = sp.solve_disc(6)
    for k in range(6):
        assert w.value((2 * k,)) == u[2 * k + 1] == catalan(k)


rationals = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)
series_tables = st.dictionaries(st.integers(min_value=0, max_value=12), rationals, max_size=6)


@given(series_tables, series_tables, st.integers(min_value=-1, max_value=26))
@settings(max_examples=80, deadline=None)
def test_truncated_product_is_the_convolution_through_hi(a, b, hi):
    got = sp._truncated_product(a, b, hi)
    for m in range(hi + 1):
        full = sum((v * b[m - i] for i, v in a.items() if m - i in b), Fraction(0))
        assert got.get(m, 0) == full
    assert all(m <= hi and v for m, v in got.items())


def test_pullback_closed_form_is_the_product_of_its_factors():
    # x^-(a+1) * x' with 1/x = sum (-1)^k z^-(2k+1) and x' = 1 - z^-2
    for hi in range(17):
        inv_x = {2 * k + 1: (-1) ** k for k in range(hi // 2 + 1)}
        power = {0: 1}
        for a in range(11):
            power = sp._truncated_product(power, inv_x, hi)
            want = sp._truncated_product(power, {0: 1, 2: -1}, hi)
            assert sp.pullback_series(a, hi) == want, (a, hi)


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


def test_loop_check_detects_a_bumped_coefficient(monkeypatch):
    cap = 8
    real = sp.laplace_W

    def bumped(g, n, c):
        w = real(g, n, c)
        if (g, n) != (0, 3):
            return w
        alpha = min(a for a in w.coeffs if sum(a) <= cap - n + 1)
        return sp.CorrelatorSeries(g, n, c, {**w.coeffs, alpha: w.coeffs[alpha] + 1})

    monkeypatch.setattr(sp, "laplace_W", bumped)
    findings = sp.loop_check(0, 3, cap)
    assert findings
    exps = [ast.literal_eval(re.search(r"exponent (\(.*?\))", f).group(1)) for f in findings]
    assert exps == sorted(exps)


def _bump_correlator(real):
    def bumped(g, n, cap):
        w = real(g, n, cap)
        alpha = min(w.coeffs)
        return sp.CorrelatorSeries(g, n, cap, {**w.coeffs, alpha: w.coeffs[alpha] + 1})

    return bumped


def _bump_omega(real):
    def bumped(g, n):
        om = real(g, n)
        key = min(om.value, key=lambda k: (sum(p for _, p in k), k))
        return sp.OmegaDifferential(g, n, {**om.value, key: om.value[key] + 1})

    return bumped


def _bump_norbury(real):
    return lambda g, n, alpha: real(g, n, alpha) + (sum(alpha) == 4)


def _bump_disc(real):
    # Catalan(2) = 2 at x^-5 becomes 3
    return lambda cap: {**real(cap), 5: real(cap)[5] + 1}


@pytest.mark.parametrize(
    "name,bump,check",
    [
        ("laplace_W", _bump_correlator, lambda: sp.bergman_check(10)),
        ("tr_omega", _bump_omega, lambda: sp.tr_agreement_check(0, 3, 8)),
        ("norbury_N", _bump_norbury, lambda: sp.norbury_substitution_check(1, 1, 9)),
        ("norbury_N", _bump_norbury, lambda: sp.norbury_substitution_check(0, 3, 8)),
        ("norbury_N", _bump_norbury, lambda: sp.norbury_substitution_check(0, 4, 8)),
        ("norbury_N", _bump_norbury, lambda: sp.norbury_substitution_check(1, 2, 8)),
        ("solve_disc", _bump_disc, lambda: sp.tree_series_check(8)),
    ],
    ids=["bergman", "tr", "norbury11", "norbury03", "norbury04", "norbury12", "tree"],
)
def test_spectral_checks_detect_a_bumped_input(monkeypatch, name, bump, check):
    monkeypatch.setattr(sp, name, bump(getattr(sp, name)))
    findings = check()
    assert findings
    exps = [ast.literal_eval(re.search(r"exponents? (\(.*?\))", f).group(1)) for f in findings]
    assert exps == sorted(exps)


def test_disc_equation_is_loop_equation_at_01():
    # x W01 = W01^2 + 1 coefficientwise, reconstructed directly
    w = sp.laplace_W(0, 1, 14)
    u = sp.solve_disc(7)
    sq = sp._truncated_product(u, u, 12)
    for m in range(0, 12):
        lhs = w.value((m,))  # coefficient of x^-m in x*W01 is R~(m)
        rhs = sq.get(m, 0) + (1 if m == 0 else 0)
        assert lhs == rhs


def test_bergman_identity():
    assert sp.bergman_check(10) == []


def test_tr_omega11_closed_form():
    # omega_{1,1} = z^3/(z^2 - 1)^4 dz.  With K the largest pole order, and at
    # least 4, both sides times (z^2 - 1)^K are polynomials of degree below 2K,
    # so agreement at 2K points away from +-1 proves them equal
    om = sp.tr_omega(1, 1)
    assert om.pole_locations() == {1, -1}
    k = max([4] + [power for key in om.value for _, power in key])

    def value(z):
        return sum(
            c * prod(Fraction(z - eps) ** -power for (_, eps), power in key)
            for key, c in om.value.items()
        )

    # the 2K half-integers -K + 1/2, ..., K - 1/2
    for z in (Fraction(2 * j + 1, 2) for j in range(-k, k)):
        assert value(z) == z**3 / (z * z - 1) ** 4


@pytest.mark.parametrize(
    "g,n,hi", [(0, 3, 8), (1, 1, 9), (0, 4, 6), (1, 2, 6), (2, 1, 6), (1, 3, 6), (0, 5, 6)]
)
def test_tr_agreement(g, n, hi):
    assert sp.tr_agreement_check(g, n, hi) == []


# sha256 of json.dumps(tr_omega(g, n).to_json_dict(), sort_keys=True), pinned
# from the recursion that expanded every factor to u^(6g + 2n + 8)
OMEGA_DIGESTS = {
    (0, 3): "c425c3f75a4b6a6af96d850c9062afb9080c4141b56cae6a456809594ba62fd7",
    (1, 1): "399c93fc45c6356a071bdee65d447f643ec144c95048bd42a40f794f59f60c57",
    (0, 4): "873a7a6726d9e4fe5602a3435eb885a0eb2cb5dd46dc64e43e24aa370c18d722",
    (1, 2): "0abbb6cf7cf3f8afd0135f606db331920c0335c01a36565f643a9a584548073f",
    (2, 1): "1522b19d6c499e89ebed325cb56f51cabd2f024cebf206d4a8ebdab3f1b7a1e2",
    (1, 3): "e15f44d1c9dc949e5cc99214be3975154c161a3539b26858044ca620b8291a48",
    (0, 5): "88c6bc82fbbb5b9845caea455bbda6733ae390356134a0031144926d95ea2be8",
    (2, 2): "7416f28e76baac0beb5751fdb0fe0e5f26431e9ae21683fdb4140d9bab50230c",
}


@pytest.mark.parametrize("g,n", list(OMEGA_DIGESTS))
def test_tr_omega_golden(g, n):
    text = json.dumps(sp.tr_omega(g, n).to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == OMEGA_DIGESTS[(g, n)]


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("g,n", list(OMEGA_DIGESTS))
def test_integrand_factor_orders_are_lower_bounds(g, n, eps):
    # each factor at the window the residue gives it, as in tr_omega
    factors = sp._integrand_factors(g, n, eps)
    total = sum(f.order for f in factors)
    for f in factors:
        series = f.expand(-1 - total + f.order)
        assert series.coeffs and min(series.coeffs) >= f.order


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("g,n", [(0, 3), (1, 1), (0, 4), (1, 2), (2, 1), (1, 3)])
def test_pole_factor_orders_are_lower_bounds(g, n, eps):
    passive = {s: ("passive", s) for s in range(3, n + 1)}
    assignments = [{1: ("z", 0), 2: ("invz", 0)}, {1: ("invz", 0), 2: ("z", 0)}]
    factors = [
        sp._bergman_eval(("z", 0), ("invz", 0), eps),
        sp._bergman_eval(("z", 0), ("passive", 2), eps),
        sp._bergman_eval(("passive", 2), ("invz", 0), eps),
    ]
    for slots in assignments:
        args = {**slots, **passive} if n >= 2 else {1: slots[1]}
        for key in sp.tr_omega(g, n).value:
            factors.extend(sp._omega_factors(key, args, eps))
    for f in factors:
        series = f.expand(f.order + 2)
        assert series.coeffs and min(series.coeffs) >= f.order


def _linear_power(c0: int, c1: int, k: int) -> list:
    """(c0 + c1 u)^k by k polynomial products, constant term first."""
    out = [1]
    for _ in range(k):
        out = [c0 * a + c1 * b for a, b in zip(out + [0], [0] + out)]
    return out


@pytest.mark.parametrize("at_inverse", [False, True])
@pytest.mark.parametrize("e", [1, -1])
@pytest.mark.parametrize("eps", [1, -1])
def test_pole_factor_times_its_denominator_is_its_numerator(eps, e, at_inverse):
    # at z = eps + u, 1/(z - e)^k has denominator (u + eps - e)^k, and
    # 1/(1/z - e)^k = z^k/(1 - e z)^k has (1 - e eps - e u)^k over (eps + u)^k
    for k in range(1, 9):
        if at_inverse:
            den, num = _linear_power(1 - e * eps, -e, k), _linear_power(eps, 1, k)
        else:
            den, num = _linear_power(eps - e, 1, k), [1]
        for hi in range(-k, 11):
            series = sp._pole_factor_at(eps, e, k, hi, at_inverse).coeffs
            assert all(-k <= m <= hi for m in series), (k, hi)
            for m in range(-k, hi + 1):
                got = sum(
                    (c[sp.KEY_ONE] * den[m - j] for j, c in series.items() if 0 <= m - j <= k),
                    Fraction(0),
                )
                assert got == (num[m] if 0 <= m < len(num) else 0), (k, hi, m)


@pytest.mark.parametrize("eps", [1, -1])
def test_fixed_tr_factors_times_their_denominators_are_their_numerators(eps):
    # at z = eps + u: z^2 - 1 = u (2 eps + u), so (z^2 - 1)^2 = u^2 (2 eps + u)^2;
    # ker1 = -z^3/(z^2 - 1)^2, jac = -1/z^2, Bergman(z, 1/z) = z^2/(z^2 - 1)^2
    ker1, _, jac, _ = sp._integrand_factors(0, 3, eps)
    bergman = sp._bergman_eval(("z", 0), ("invz", 0), eps)
    z_sq_minus_1_sq = [0, 0] + _linear_power(2 * eps, 1, 2)
    cases = {
        "ker1": (ker1, z_sq_minus_1_sq, [-c for c in _linear_power(eps, 1, 3)]),
        "jac": (jac, _linear_power(eps, 1, 2), [-1]),
        "bergman": (bergman, z_sq_minus_1_sq, _linear_power(eps, 1, 2)),
    }
    for name, (factor, den, num) in cases.items():
        for hi in range(factor.order, 11):
            series = factor.expand(hi).coeffs
            assert all(factor.order <= m <= hi for m in series), (name, hi)
            for m in range(factor.order, hi + 1):
                got = sum(
                    (c[sp.KEY_ONE] * den[m - j]
                     for j, c in series.items() if 0 <= m - j < len(den)),
                    Fraction(0),
                )
                assert got == (num[m] if 0 <= m < len(num) else 0), (name, hi, m)


def test_rational_fn_normalization_and_expansion():
    # (z^2 - 1)/(z - 1) reduces to z + 1
    f = sp.RationalFn([-1, 0, 1], [-1, 1])
    assert (f.num, f.den) == ((1, 1), (1,))
    # 1/(z^2 - 1) at z = 1 + u: 1 / (2u + u^2)
    assert sp.RationalFn([1], [-1, 0, 1]).shifted(1) == ([1], [0, 2, 1])


def test_tr_omega03_symmetric():
    d = sp.tr_omega(0, 3).expand_at_infinity(8)
    for e, c in d.items():
        assert d.get(tuple(sorted(e))) == c


def test_tr_rejects_unstable():
    with pytest.raises(ValueError):
        sp.tr_omega(0, 2)


@pytest.mark.parametrize("g,n", [(-1, 5), (2, 0), (0, -1)])
def test_tr_rejects_negative_genus_and_no_points(g, n):
    with pytest.raises(ValueError):
        sp.tr_omega(g, n)


def test_tree_series_and_norbury_substitution():
    assert sp.tree_series_check(8) == []
    assert sp.norbury_substitution_check(1, 1, 9) == []
    assert sp.norbury_substitution_check(0, 3, 8) == []
    assert sp.norbury_substitution_check(0, 4, 8) == []
    assert sp.norbury_substitution_check(1, 2, 8) == []


def test_norbury_substitution_rejects_unsupported():
    with pytest.raises(ValueError):
        sp.norbury_substitution_check(2, 1, 6)
