"""Small constructors the tests share; no package code calls them."""

from fractions import Fraction
from math import comb

from dessins.series import Monomial, Poly


def parse_poly(pairs) -> Poly:
    """Build a Poly from (exponent-map, coefficient) pairs."""
    terms = {}
    for exps, c in pairs:
        m = Monomial(exps)
        terms[m] = terms.get(m, 0) + Fraction(c)
    return Poly(terms)


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)
