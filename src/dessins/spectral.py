r"""Laplace-transform correlators, loop equation, and topological recursion.

The correlators are the formal expansions

    W_{g,n}(x_1..x_n) = sum_alpha R~_{g,n}(alpha) prod_i x_i^-(alpha_i + 1),

with coefficients from the Tutte route.  They satisfy a quadratic loop
equation, and after the substitution x = z + 1/z ("Zhukovsky") the
differentials omega_{g,n} = W_{g,n} prod x'(z_i) dz_i extend to rational
differentials on the z-sphere with poles confined to z = +-1, computed here
by an exact residue recursion.  All residue extraction is algebraic: the
integrand is expanded as a Laurent series in u = z -+ 1 whose coefficients
live in the ring spanned by products of 1/(z_j - eps)^k over the passive
variables, so the residue lands directly in partial-fraction form and pole
confinement holds structurally.  A pole 1/(z - e)^k or 1/(1/z - e)^k of the
residue variable is one ``RationalFn`` whose denominator is the binomial
expansion of (z - e)^k (the numerator is 1 or (-e)^k z^k, as
1 - e z = -e (z - e) at e = +-1); ``_expand_ratfn`` still shifts it to
z = eps + u and divides the series.

A residue reads one coefficient, that of u^-1, so each factor of the
integrand is expanded only as far as that coefficient needs.  Each factor
carries a lower bound l on its order in u: a pole 1/(z - e)^k or
1/(1/z - e)^k has order -k when e = eps (at eps = +-1, 1/eps = eps) and 0
otherwise, a passive pole has order 0, the Bergman term 1/(z - 1/z)^2 has
order -2, the kernel factor 1/(omega_{0,1} - sigma^* omega_{0,1}) has order
-2, the coupling 1/(z - z1) - 1/(1/z - z1) has order 1 (it vanishes where
z = 1/z), and the Jacobian -1/z^2 has order 0.  A sum has the least bound of
its terms.  In a product of factors with bounds l_1..l_m, a coefficient of
u^h only meets exponents e_i with sum e_i = h and e_j >= l_j, so
e_i <= h - sum_{j != i} l_j: expanding factor i through that exponent makes
the product exact through u^h.  A bound below the true order only widens a
window, never narrows it.

The recursion kernel is implemented with denominator (omega_{0,1} -
sigma^* omega_{0,1}) and coupling factor 1/(z - z1) - 1/(1/z - z1); an
overall normalization constant ``KERNEL_SCALE`` multiplies the residues and
is pinned by exact agreement with the Laplace route (the two printed
variants of the kernel differ by such a constant).

Every check builds two coefficient tables keyed by exponent vectors and
compares them with ``_mismatches`` on a window of total order, so findings
come in sorted exponent order.  A one-variable series at infinity has one
form: a table ``{m: c_m}`` of the exact rational (often integer)
coefficients of w^-m, m >= 0, exact through one ``hi``.  Such tables multiply with ``_truncated_product``, and
``_add_slot_products`` expands a product of them, one per slot, on the
window of total order: the expansions of omega_{g,n} and W_{g,n} at
infinity, and the substitution of the tree series into the Norbury counts.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache, partial
from math import comb
from typing import Callable, Dict, Iterable, List, NamedTuple, Sequence, Tuple

from . import tutte
from .maps import NORBURY_SUPPORTED, norbury_N
from .series import _fr, distinct_permutations, sorted_multi

# pinned so that the residue recursion reproduces the Laplace coefficients
KERNEL_SCALE = Fraction(-1, 2)

MultiIndex = Tuple[int, ...]


# ---------------------------------------------------------------------------
# correlator series from counts
# ---------------------------------------------------------------------------


class CorrelatorSeries(NamedTuple):
    """W_{g,n} as a finite table alpha (sorted) -> R~_{g,n}(alpha)."""

    g: int
    n: int
    cap: int
    coeffs: Dict[MultiIndex, int]

    def value(self, alpha: Sequence[int]) -> int:
        return self.coeffs.get(tuple(sorted(alpha)), 0)

    def ordered_items(self) -> Iterable[Tuple[MultiIndex, int]]:
        for alpha, v in self.coeffs.items():
            for perm in distinct_permutations(alpha):
                yield perm, v

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "n": self.n,
            "cap": self.cap,
            "coefficients": [
                {"alpha": list(alpha), "value": str(v)}
                for alpha, v in sorted(self.coeffs.items())
            ],
        }

    def star_coeffs(self) -> Dict[MultiIndex, Fraction]:
        """W*: coefficients R_{g,n}(alpha) = R~/prod(alpha) at exponents x^-alpha."""
        out = {}
        for alpha, v in self.coeffs.items():
            denom = math.prod(alpha)
            if denom == 0:
                raise ValueError("W* undefined for zero perimeters")
            out[alpha] = Fraction(v, denom)
        return out


@lru_cache(maxsize=None)
def laplace_W(g: int, n: int, cap: int) -> CorrelatorSeries:
    """Correlator table with sum(alpha) <= cap, from the Tutte recursion."""
    if g < 0 or n < 1:
        raise ValueError(f"correlator W_{{g,n}} needs g >= 0 and n >= 1, got ({g},{n})")
    coeffs: Dict[MultiIndex, int] = {}
    minimum = 0 if (g, n) == (0, 1) else 1
    for tot in range(0, cap + 1):
        for alpha in sorted_multi(tot, n, minimum):
            v = tutte.r_tilde(g, n, alpha)
            if v:
                coeffs[alpha] = v
    return CorrelatorSeries(g, n, cap, coeffs)


# ---------------------------------------------------------------------------
# coefficient tables on a window of total order
# ---------------------------------------------------------------------------


def _truncated_product(
    a: Dict[int, Fraction], b: Dict[int, Fraction], hi: int
) -> Dict[int, Fraction]:
    """The product of two series at infinity on the exponents <= hi.

    Neither table may have a negative exponent: then the product is exact
    through hi whenever both factors are.
    """
    out: Dict[int, Fraction] = {}
    for m1, v1 in a.items():
        for m2, v2 in b.items():
            m = m1 + m2
            if m <= hi:
                out[m] = out.get(m, 0) + v1 * v2
    return {m: v for m, v in out.items() if v}


def _add_slot_products(
    out: Dict[MultiIndex, Fraction], coeff, slots: Sequence[Dict[int, Fraction]], hi: int
) -> None:
    """Add coeff * prod_i slots[i](z_i) to ``out`` on the exponent vectors of
    total <= hi; ``slots[i]`` maps exponents of z_i to coefficients.

    No slot may have a negative exponent: then a partial total above hi
    stays above hi, and is dropped at once.
    """
    partial = [((), 0, coeff)]
    for slot in slots:
        partial = [
            (e + (m,), t + m, c * cm)
            for e, t, c in partial
            for m, cm in slot.items()
            if t + m <= hi
        ]
    for e, _, c in partial:
        out[e] = out.get(e, Fraction(0)) + c


def _mismatches(
    lhs: Dict[MultiIndex, Fraction], rhs: Dict[MultiIndex, Fraction], hi: int
) -> List[Tuple[MultiIndex, Fraction, Fraction]]:
    """(exponent, lhs value, rhs value) wherever the two tables differ on
    total order <= hi, in sorted exponent order; a missing exponent reads 0."""
    out = []
    for e in sorted(set(lhs) | set(rhs)):
        if sum(e) <= hi:
            lv, rv = lhs.get(e, Fraction(0)), rhs.get(e, Fraction(0))
            if lv != rv:
                out.append((e, lv, rv))
    return out


def _splittings(g: int, passives: Sequence[int]):
    """(g1, s1, g2, s2) for every ordered split g = g1 + g2 of the genus and
    of the passive slots into s1 and its complement s2."""
    for g1 in range(g + 1):
        for r in range(len(passives) + 1):
            for s1 in itertools.combinations(passives, r):
                yield g1, s1, g - g1, tuple(j for j in passives if j not in s1)


# ---------------------------------------------------------------------------
# loop equation, coefficientwise
# ---------------------------------------------------------------------------


def loop_check(g: int, n: int, cap: int) -> List[str]:
    """Residuals of the quadratic loop equation for W_{g,n}, coefficientwise
    on every exponent vector of total order <= cap (expected none).

    Every term raises the total of the alpha it reads, so the tables to
    ``cap`` hold every coefficient that reaches the window.
    """
    lhs: Dict[MultiIndex, Fraction] = {}
    for alpha, v in laplace_W(g, n, cap).ordered_items():
        e = (alpha[0],) + tuple(a + 1 for a in alpha[1:])
        lhs[e] = lhs.get(e, Fraction(0)) + v
    rhs: Dict[MultiIndex, Fraction] = {}
    # divided-difference terms, one per passive variable
    if n >= 2:
        for i in range(1, n):
            wd = laplace_W(g, n - 1, cap)
            for alpha, v in wd.ordered_items():
                a = alpha[0]
                beta = alpha[1:]
                for u in range(0, a + 1):
                    vv = a - u
                    e = [0] * n
                    e[0] = u + 1
                    e[i] = vv + 2
                    passive = [j for j in range(1, n) if j != i]
                    for j, b in zip(passive, beta):
                        e[j] = b + 1
                    key = tuple(e)
                    rhs[key] = rhs.get(key, Fraction(0)) + (vv + 1) * v
    # genus-reduction term
    if g >= 1:
        for alpha, v in laplace_W(g - 1, n + 1, cap).ordered_items():
            e = (alpha[0] + alpha[1] + 2,) + tuple(a + 1 for a in alpha[2:])
            rhs[e] = rhs.get(e, Fraction(0)) + v
    # splitting over ordered pairs, unstable (0,1) pieces included; a pair
    # (a1, a2) lands on total sum(a1) + sum(a2) + n + 1
    for g1, s1, g2, s2 in _splittings(g, range(1, n)):
        items2 = sorted(
            laplace_W(g2, len(s2) + 1, cap).ordered_items(), key=lambda av: sum(av[0])
        )
        for a1, v1 in laplace_W(g1, len(s1) + 1, cap).ordered_items():
            room = cap - n - 1 - sum(a1)
            for a2, v2 in items2:
                if sum(a2) > room:
                    break
                e = [0] * n
                e[0] = a1[0] + a2[0] + 2
                for j, b in zip(s1, a1[1:]):
                    e[j] = b + 1
                for j, b in zip(s2, a2[1:]):
                    e[j] = b + 1
                key = tuple(e)
                rhs[key] = rhs.get(key, Fraction(0)) + v1 * v2
    if (g, n) == (0, 1):
        rhs[(0,)] = rhs.get((0,), Fraction(0)) + 1
    return [
        f"(g,n)=({g},{n}) exponent {e}: {lv} != {rv}"
        for e, lv, rv in _mismatches(lhs, rhs, cap)
    ]


# ---------------------------------------------------------------------------
# Zhukovsky pullback and the Bergman identity
# ---------------------------------------------------------------------------


def pullback_series(a: int, hi: int) -> Dict[int, Fraction]:
    """x(z)^-(a+1) * x'(z) as coefficients of z^-m, m <= hi (the Laplace
    dictionary).

    x^-(a+1) = z^-(a+1) (1 + z^-2)^-(a+1) has (-1)^k C(a+k, k) at
    z^-(a+1+2k), and x' = 1 - z^-2 adds (-1)^k C(a+k-1, k-1) for k >= 1.
    """
    return {
        a + 1 + 2 * k: (-1) ** k * (comb(a + k, k) + (comb(a + k - 1, k - 1) if k else 0))
        for k in range((hi - a + 1) // 2)
    }


def bergman_check(cap: int) -> List[str]:
    """W_{0,2}(z1,z2) x'(z1) x'(z2) = 1/(z1 z2 - 1)^2 to total order cap."""
    lhs = laplace_expansion_at_infinity(0, 2, cap)
    rhs = {(m + 2, m + 2): Fraction(m + 1) for m in range(cap // 2 + 1)}
    return [f"exponents {e}: {lv} != {rv}" for e, lv, rv in _mismatches(lhs, rhs, cap)]


# ---------------------------------------------------------------------------
# exact residue machinery for the topological recursion
# ---------------------------------------------------------------------------

# A pole monomial maps (slot, eps) -> power and stands for
# prod 1/(z_slot - eps)^power ; slots number the variables of omega_{g,n}.
PoleKey = Tuple[Tuple[Tuple[int, int], int], ...]
CoefElem = Dict[PoleKey, Fraction]
PoleSum = Dict[PoleKey, Fraction]

KEY_ONE: PoleKey = ()


def _key_mul(k1: PoleKey, k2: PoleKey) -> PoleKey:
    d = dict(k1)
    for se, p in k2:
        d[se] = d.get(se, 0) + p
    return tuple(sorted(d.items()))


def _elem_mul(a: CoefElem, b: CoefElem) -> CoefElem:
    out: CoefElem = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = _key_mul(k1, k2)
            v = out.get(k, Fraction(0)) + c1 * c2
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return out


def _elem_scale(a: CoefElem, c: Fraction) -> CoefElem:
    return {k: v * c for k, v in a.items()} if c else {}


def _elem_add_into(dst: CoefElem, src: CoefElem, scale: Fraction = Fraction(1)):
    for k, v in src.items():
        nv = dst.get(k, Fraction(0)) + v * scale
        if nv:
            dst[k] = nv
        else:
            dst.pop(k, None)


def _scalar(c) -> CoefElem:
    c = Fraction(c)
    return {KEY_ONE: c} if c else {}


def _pole(slot: int, eps: int, power: int, coeff=1) -> CoefElem:
    return {(((slot, eps), power),): Fraction(coeff)}


class ULaurent:
    """Truncated Laurent series in u with CoefElem coefficients."""

    __slots__ = ("coeffs", "hi")

    def __init__(self, coeffs: Dict[int, CoefElem], hi: int):
        self.coeffs = {m: c for m, c in coeffs.items() if c and m <= hi}
        self.hi = hi

    @staticmethod
    def from_fractions(coeffs: Dict[int, Fraction], hi: int) -> "ULaurent":
        return ULaurent({m: _scalar(c) for m, c in coeffs.items()}, hi)

    def __mul__(self, other: "ULaurent") -> "ULaurent":
        lo_s = min(self.coeffs, default=0)
        lo_o = min(other.coeffs, default=0)
        hi = min(self.hi + lo_o, other.hi + lo_s)
        out: Dict[int, CoefElem] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = m1 + m2
                if m > hi:
                    continue
                prod = _elem_mul(c1, c2)
                if m in out:
                    _elem_add_into(out[m], prod)
                else:
                    out[m] = dict(prod)
        return ULaurent(out, hi)

    def __add__(self, other: "ULaurent") -> "ULaurent":
        hi = min(self.hi, other.hi)
        out = {m: dict(c) for m, c in self.coeffs.items() if m <= hi}
        for m, c in other.coeffs.items():
            if m > hi:
                continue
            if m in out:
                _elem_add_into(out[m], c)
            else:
                out[m] = dict(c)
        return ULaurent(out, hi)

    def scale(self, c: Fraction) -> "ULaurent":
        return ULaurent({m: _elem_scale(e, c) for m, e in self.coeffs.items()}, self.hi)

    def residue(self) -> CoefElem:
        if self.hi < -1:
            raise ValueError("window does not include the residue coefficient")
        return self.coeffs.get(-1, {})


# dense univariate polynomials over Q, constant term first, for RationalFn


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(a, b):
    a = list(a)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        c = a[-1] / b[-1]
        d = len(a) - len(b)
        q[d] = c
        for i, y in enumerate(b):
            a[d + i] -= c * y
        _poly_trim(a)
    return _poly_trim(q), a


def _poly_gcd(a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


class RationalFn:
    """Quotient of dense univariate polynomials over Q, gcd-normalized."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(Fraction(1),)):
        num = _poly_trim([_fr(c) for c in num])
        den = _poly_trim([_fr(c) for c in den])
        if not den:
            raise ZeroDivisionError("zero denominator")
        if num:
            g = _poly_gcd(num, den)
            if len(g) > 1:
                num = _poly_divmod(num, g)[0]
                den = _poly_divmod(den, g)[0]
        else:
            den = [Fraction(1)]
        lead = den[-1]
        if lead != 1:
            num = [c / lead for c in num]
            den = [c / lead for c in den]
        self.num = tuple(num)
        self.den = tuple(den)

    def shifted(self, a) -> Tuple[list, list]:
        """Numerator and denominator as polynomials in u where z = a + u."""
        a = _fr(a)

        def shift_safe(p):
            out = [Fraction(0)] * max(1, len(p))
            cur = [Fraction(1)]  # (a+u)^0
            for i, c in enumerate(p):
                if c:
                    for j, b in enumerate(cur):
                        out[j] += c * b
                nxt = [Fraction(0)] * (len(cur) + 1)
                for j, b in enumerate(cur):
                    nxt[j] += b * a
                    nxt[j + 1] += b
                cur = nxt
            return _poly_trim(out)

        return shift_safe(list(self.num)), shift_safe(list(self.den))


def _expand_ratfn(fn: RationalFn, eps: int, hi: int) -> ULaurent:
    """Exact Laurent expansion of a rational function at z = eps + u."""
    num_u, den_u = fn.shifted(eps)
    if not num_u:
        return ULaurent({}, hi)

    def val(p):
        for i, c in enumerate(p):
            if c:
                return i
        return len(p)

    vn, vd = val(num_u), val(den_u)
    num_u = num_u[vn:]
    den_u = den_u[vd:]
    order = vn - vd
    terms = hi - order + 1
    inv = [Fraction(0)] * max(terms, 0)
    if terms > 0:
        inv[0] = 1 / den_u[0]
        for m in range(1, terms):
            s = Fraction(0)
            for j in range(1, min(m, len(den_u) - 1) + 1):
                s += den_u[j] * inv[m - j]
            inv[m] = -s / den_u[0]
    out: Dict[int, Fraction] = {}
    for i, c in enumerate(num_u):
        if not c:
            continue
        for m in range(max(0, terms - i)):
            out[order + i + m] = out.get(order + i + m, Fraction(0)) + c * inv[m]
    return ULaurent.from_fractions(out, hi)


def _binomial_power(e: int, k: int) -> List[int]:
    """Coefficients of (z - e)^k, constant term first: C(k, j) (-e)^(k-j) at z^j."""
    return [comb(k, j) * (-e) ** (k - j) for j in range(k + 1)]


def _pole_factor_at(eps_val: int, eps_pole: int, power: int, hi: int, at_inverse: bool) -> ULaurent:
    """Expansion of 1/(z - e)^k or 1/(1/z - e)^k at z = eps + u as a scalar
    series, for e = eps_pole = +-1, k = power and eps = eps_val.

    The rational function is made in one step, with the binomial
    coefficients of (z - e)^k as its denominator: its numerator is 1 for
    1/(z - e)^k, and (-e)^k z^k for 1/(1/z - e)^k = z^k/(1 - e z)^k, since
    1 - e z = -e (z - e) when e = +-1.  That is already the reduced form
    ``RationalFn`` keeps (coprime, monic denominator), the one a product of
    k linear factors reduces to.  ``_expand_ratfn`` still does the shift to
    z = eps + u and the series division.
    """
    num = [0] * power + [(-eps_pole) ** power] if at_inverse else [1]
    return _expand_ratfn(RationalFn(num, _binomial_power(eps_pole, power)), eps_val, hi)


def _passive_coupling(slot: int, eps: int, power: int, hi: int, at_inverse: bool) -> ULaurent:
    """1/(z - z_slot)^power or 1/(1/z - z_slot)^power at z = eps + u; the
    coefficients carry slot poles at eps only."""
    if not at_inverse:
        # sum_r binom(power-1+r, r) u^r * (-1)^power /(z_slot - eps)^(power+r)
        coeffs = {
            r: _pole(slot, eps, power + r, (-1) ** power * comb(power - 1 + r, r))
            for r in range(hi + 1)
        }
        return ULaurent(coeffs, hi)
    # a geometric series in delta/(eps - z_slot), with delta = 1/z - eps =
    # 1/(eps + u) - eps = sum_{j >= 1} (-1)^j eps^(j+1) u^j
    delta = ULaurent({j: _scalar((-1) ** j * eps ** (j + 1)) for j in range(1, hi + 1)}, hi)
    # 1/(c + delta)^power with c = eps - z_slot:
    #   sum_r binom(power - 1 + r, r) (-delta)^r / c^(power + r)
    out = ULaurent({}, hi)
    term = ULaurent({0: _scalar(1)}, hi)  # (-delta)^r, scalar coefficients
    for r in range(hi + 2):
        # 1/c^(power+r) = 1/(eps - z_slot)^(power+r) = (-1)^(power+r)/(z_slot-eps)^..
        cpow = _pole(slot, eps, power + r, Fraction((-1) ** (power + r)))
        piece = term * ULaurent({0: cpow}, hi)
        out = out + piece.scale(Fraction(comb(power - 1 + r, r)))
        term = term * delta.scale(Fraction(-1))
        if not term.coeffs:
            break
    return out


class _Factor(NamedTuple):
    """One factor of a residue integrand at z = eps + u.

    ``order`` is a lower bound on its order in u, and ``expand(hi)`` is its
    expansion, exact through u^hi.
    """

    order: int
    expand: Callable[[int], ULaurent]


def _product(factors: Sequence[_Factor], hi: int) -> ULaurent:
    """The product of ``factors``, exact through u^hi.

    Each factor is expanded only through u^(hi - the orders of the others).
    """
    total = sum(f.order for f in factors)
    out = factors[0].expand(hi - total + factors[0].order)
    for f in factors[1:]:
        out = out * f.expand(hi - total + f.order)
    return out


def _product_factor(factors: Sequence[_Factor]) -> _Factor:
    return _Factor(sum(f.order for f in factors), partial(_product, factors))


def _sum_factor(terms: Sequence[Tuple[Fraction, _Factor]]) -> _Factor:
    """sum c * f over the (c, f) of ``terms``."""

    def expand(hi: int) -> ULaurent:
        out = ULaurent({}, hi)
        for c, f in terms:
            piece = f.expand(hi)
            out = out + (piece if c == 1 else piece.scale(c))
        return out

    return _Factor(min((f.order for _, f in terms), default=0), expand)


def _passive_pole(slot: int, pole_eps: int, power: int, hi: int) -> ULaurent:
    return ULaurent({0: _pole(slot, pole_eps, power)}, hi)


def _omega_factors(
    key: PoleKey, slot_args: Dict[int, Tuple[str, int]], eps: int
) -> List[_Factor]:
    """The pole factors of one stored pole monomial under a slot assignment.

    ``slot_args[s]`` is ("z", 0) for the residue variable, ("invz", 0) for
    its sigma image, or ("passive", j) mapping to output slot j.  A pole
    1/(z - e)^k or 1/(1/z - e)^k has order -k in u when e = eps (1/eps = eps)
    and order 0 otherwise; a passive pole is constant in u.
    """
    factors = []
    for (s, pole_eps), power in key:
        kind, j = slot_args[s]
        if kind == "passive":
            factors.append(_Factor(0, partial(_passive_pole, j, pole_eps, power)))
        else:
            expand = partial(_pole_factor_at, eps, pole_eps, power, at_inverse=(kind == "invz"))
            factors.append(_Factor(-power if pole_eps == eps else 0, expand))
    return factors


def _omega_eval(omega: PoleSum, slot_args: Dict[int, Tuple[str, int]], eps: int) -> _Factor:
    return _sum_factor(
        [(c, _product_factor(_omega_factors(key, slot_args, eps))) for key, c in omega.items()]
    )


def _bergman_eval(arg1, arg2, eps: int) -> _Factor:
    """omega_{0,2}/(dz dz) = 1/(a - b)^2 under the same argument scheme."""
    kinds = (arg1, arg2)
    if kinds == (("z", 0), ("invz", 0)) or kinds == (("invz", 0), ("z", 0)):
        # 1/(z - 1/z)^2 = z^2/(z^2-1)^2
        fn = RationalFn([0, 0, 1], [1, 0, -2, 0, 1])
        return _Factor(-2, partial(_expand_ratfn, fn, eps))
    (k1, j1), (k2, j2) = kinds
    if k1 == "passive" and k2 in ("z", "invz"):
        (k1, j1), (k2, j2) = (k2, j2), (k1, j1)
    if k1 in ("z", "invz") and k2 == "passive":
        # 1/(z - z_j)^2, with the sign symmetric in the two arguments
        return _Factor(0, partial(_passive_coupling, j2, eps, 2, at_inverse=(k1 == "invz")))
    raise ValueError(f"unsupported Bergman arguments {kinds}")


def _integrand_factors(g: int, n: int, eps: int) -> List[_Factor]:
    """ker1, ker2, jac and the bracket of the residue of omega_{g,n} at z = eps."""
    # 1/(omega01 - sigma*omega01) = -z^3/(z^2-1)^2, pole of order 2
    ker1 = _Factor(-2, partial(_expand_ratfn, RationalFn([0, 0, 0, -1], [1, 0, -2, 0, 1]), eps))
    # 1/(z - z1) - 1/(1/z - z1) vanishes at z = eps, where 1/z = z
    ker2 = _Factor(
        1,
        lambda hi: _passive_coupling(1, eps, 1, hi, at_inverse=False)
        + _passive_coupling(1, eps, 1, hi, at_inverse=True).scale(Fraction(-1)),
    )
    jac = _Factor(0, partial(_expand_ratfn, RationalFn([-1], [0, 0, 1]), eps))
    passives = list(range(2, n + 1))
    bracket: List[_Factor] = []
    # genus-reduction term omega_{g-1, n+1}(z, sigma z, passives)
    if g >= 1:
        if (g - 1, n + 1) == (0, 2):
            bracket.append(_bergman_eval(("z", 0), ("invz", 0), eps))
        elif 2 * (g - 1) - 2 + (n + 1) > 0:
            slot_args = {1: ("z", 0), 2: ("invz", 0)}
            for idx, j in enumerate(passives):
                slot_args[3 + idx] = ("passive", j)
            bracket.append(_omega_eval(tr_omega(g - 1, n + 1).value, slot_args, eps))

    def factor(gi, si, kind) -> _Factor:
        ni = len(si) + 1
        if (gi, ni) == (0, 2):
            return _bergman_eval((kind, 0), ("passive", si[0]), eps)
        slot_args = {1: (kind, 0)}
        for idx, j in enumerate(si):
            slot_args[2 + idx] = ("passive", j)
        return _omega_eval(tr_omega(gi, ni).value, slot_args, eps)

    # splitting terms, ordered pairs, no omega_{0,1} factors
    for g1, s1, g2, s2 in _splittings(g, passives):
        n1, n2 = len(s1) + 1, len(s2) + 1
        if 2 * g1 - 2 + n1 <= 0 and (g1, n1) != (0, 2):
            continue
        if 2 * g2 - 2 + n2 <= 0 and (g2, n2) != (0, 2):
            continue
        bracket.append(_product_factor([factor(g1, s1, "z"), factor(g2, s2, "invz")]))
    return [ker1, ker2, jac, _sum_factor([(Fraction(1), f) for f in bracket])]


@lru_cache(maxsize=None)
def tr_omega(g: int, n: int) -> "OmegaDifferential":
    """omega_{g,n} by the residue recursion on the curve x = z + 1/z, y = 1/z."""
    if g < 0 or n < 1:
        raise ValueError(f"tr_omega needs g >= 0 and n >= 1, got ({g},{n})")
    if 2 * g - 2 + n <= 0:
        raise ValueError("tr_omega requires a stable (g, n)")
    value: PoleSum = {}
    for eps in (1, -1):
        integrand = _product(_integrand_factors(g, n, eps), -1)
        _elem_add_into(value, integrand.residue(), KERNEL_SCALE)
    return OmegaDifferential(g, n, value)


class OmegaDifferential(NamedTuple):
    """omega_{g,n} divided by dz_1 ... dz_n, in partial-fraction pole form."""

    g: int
    n: int
    value: PoleSum

    def pole_locations(self) -> set:
        return {se[1] for key in self.value for se, _ in key}

    def expand_at_infinity(self, hi: int) -> Dict[MultiIndex, Fraction]:
        """Coefficients of prod z_i^-e_i, exact for total order <= hi."""
        out: Dict[MultiIndex, Fraction] = {}
        for key, c in self.value.items():
            per_slot: Dict[int, Dict[int, Fraction]] = {}
            for (slot, eps), power in key:
                # 1/(z - eps)^power = sum_m binom(m-1, power-1) eps^(m-power) z^-m
                ser = {m: comb(m - 1, power - 1) * eps ** (m - power) for m in range(power, hi + 1)}
                if slot in per_slot:
                    ser = _truncated_product(per_slot[slot], ser, hi)
                per_slot[slot] = ser
            slots = [per_slot.get(slot, {0: 1}) for slot in range(1, self.n + 1)]
            _add_slot_products(out, c, slots, hi)
        return {e: c for e, c in out.items() if c}

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "n": self.n,
            "poles": [
                {
                    "factors": [
                        {"slot": slot, "at": eps, "order": power}
                        for (slot, eps), power in key
                    ],
                    "coefficient": str(c),
                }
                for key, c in sorted(self.value.items())
            ],
        }


def laplace_expansion_at_infinity(g: int, n: int, hi: int) -> Dict[MultiIndex, Fraction]:
    """W_{g,n}(x(z)) prod x'(z_i) as coefficients of prod z_i^-e_i."""
    w = laplace_W(g, n, hi)
    parts = {a for alpha in w.coeffs for a in alpha}
    pows = {a: pullback_series(a, hi) for a in parts}
    out: Dict[MultiIndex, Fraction] = {}
    for alpha, v in w.ordered_items():
        _add_slot_products(out, v, [pows[a] for a in alpha], hi)
    return {e: c for e, c in out.items() if c}


def tr_agreement_check(g: int, n: int, hi: int) -> List[str]:
    """Compare the residue recursion with the Laplace route, exactly."""
    om = tr_omega(g, n)
    findings = []
    bad_poles = om.pole_locations() - {1, -1}
    if bad_poles:
        findings.append(f"(g,n)=({g},{n}): poles outside +-1: {sorted(bad_poles)}")
    got = om.expand_at_infinity(hi)
    want = laplace_expansion_at_infinity(g, n, hi)
    findings.extend(
        f"(g,n)=({g},{n}) exponent {e}: residue {gv} != laplace {wv}"
        for e, gv, wv in _mismatches(got, want, hi)
    )
    return findings


# ---------------------------------------------------------------------------
# Norbury substitution
# ---------------------------------------------------------------------------


def solve_disc(cap: int) -> Dict[int, Fraction]:
    """The unique solution u in x^-1 * Q[[x^-2]] of u^2 - x*u + 1 = 0, as
    coefficients of x^-m exact through m = 2*cap + 1.

    Computed by the contraction u <- (1 + u^2)/x, which fixes two more
    coefficients per pass; the coefficient of x^-(2k+1) is the k-th Catalan
    number.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    hi = 2 * cap + 1
    u = {1: 1}
    for _ in range(cap):
        u = {1: 1, **{m + 1: c for m, c in _truncated_product(u, u, hi - 1).items()}}
    return u


def tree_series_check(cap: int) -> List[str]:
    """u^2 + 1 = x*u for u = solve_disc(cap), on every exponent where both
    sides are exact (x*u is exact through x^-2cap)."""
    u = solve_disc(cap)
    hi = 2 * cap
    lhs = {(m,): c for m, c in _truncated_product(u, u, hi).items()}
    lhs[(0,)] = lhs.get((0,), 0) + 1
    rhs = {(m - 1,): c for m, c in u.items()}
    return [
        f"tree series exponent {e}: u^2 + 1 {lv} != x*u {rv}"
        for e, lv, rv in _mismatches(lhs, rhs, hi)
    ]


def norbury_substitution_check(g: int, n: int, cap: int) -> List[str]:
    """F^comb_{g,n}(u(x_1), ..., u(x_n)) = W*_{g,n}(x) coefficientwise."""
    if (g, n) not in NORBURY_SUPPORTED:
        raise ValueError(f"supported (g, n): {sorted(NORBURY_SUPPORTED)}")
    u = solve_disc(cap)
    upow = {1: u}
    for b in range(2, cap + 1):
        upow[b] = _truncated_product(upow[b - 1], u, cap)
    lhs: Dict[MultiIndex, Fraction] = {}
    for alpha in itertools.product(range(1, cap + 1), repeat=n):
        if sum(alpha) > cap:
            continue
        nv = norbury_N(g, n, alpha)
        if nv:
            _add_slot_products(lhs, nv, [upow[b] for b in alpha], cap)
    star = laplace_W(g, n, cap).star_coeffs()
    rhs = {perm: v for alpha, v in star.items() for perm in distinct_permutations(alpha)}
    return [
        f"(g,n)=({g},{n}) exponent {e}: comb {lv} != star {rv}"
        for e, lv, rv in _mismatches(lhs, rhs, cap)
    ]
