"""Small constructors the tests share; no package code calls them."""

from fractions import Fraction
from math import comb

from dessins.operators import DiffOp
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


def fresh_op(op: DiffOp, coeffs=None) -> DiffOp:
    """A copy of ``op`` with no memoized groups or images, around ``coeffs``
    when given and around ``op``'s coefficient function otherwise."""
    return DiffOp(op.name, op.order, op.den, op.coeffs if coeffs is None else coeffs)
