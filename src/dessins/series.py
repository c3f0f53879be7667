r"""Exact sparse polynomial arithmetic.

All coefficients are ``fractions.Fraction``; there is no floating-point mode
anywhere in the package.  The product kernels (``accumulate_product`` here,
behind ``Poly.__mul__`` and ``partition.connected``, and
``operators._image_into``, behind ``operators.apply`` and the operator
images) lift each operand to integer numerators over one common
denominator, accumulate ``int``s in their inner loops and build one
``Fraction`` per output monomial; stored values stay ``Fraction``.  A
product monomial's exponent tuple is one merge of its factors' sorted
tuples (``_merged``), never a sort.  Each kernel call keeps the monomial of
every exponent tuple it has built, so each distinct product is built once
per call and the accumulator finds it by identity; the table lives only for
that call.  Only the memoized operator images keep one table for the
process, from exponent tuple to an integer id (see ``operators``).

``Monomial`` / ``Poly`` are exact sparse multivariate polynomials in
variables ``t1, t2, ...`` (variable ``i`` carries *weighted degree* ``i``),
the bookkeeping variable ``t0`` (weight 0) and named *marker* variables such
as ``t-`` (weight 0).  Every route computes whole layers, each an exact
finite polynomial.

The monomial order used for canonical rendering is graded lexicographic on
(weighted degree, exponent vector), so printed polynomials are stable and
usable as golden values in tests.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple, Union

Key = Union[int, str]  # int i >= 0 -> variable t_i ; str -> marker variable

# an exponent vector as sorted (key, positive exponent) pairs: integer
# variables ascending, then markers ascending
Exps = Tuple[Tuple[Key, int], ...]

# marker for the number of negative boundary components (modified vacuum)
MARKER_NEG = "t-"


def _fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _key_sort(k: Key):
    return (0, k, "") if isinstance(k, int) else (1, 0, k)


def _item_sort(item: Tuple[Key, int]):
    return _key_sort(item[0])


def _merged(a: Exps, b: Exps) -> Exps:
    """The exponent tuple of the product of two monomials, by one merge of
    their sorted exponent tuples."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    ka, ea = a[0]
    kb, eb = b[0]
    while True:
        if ka == kb:
            out.append((ka, ea + eb))
            i += 1
            j += 1
            if i == na or j == nb:
                break
            ka, ea = a[i]
            kb, eb = b[j]
        # an integer variable sorts before every marker
        elif ka < kb if type(ka) is type(kb) else type(ka) is int:
            out.append(a[i])
            i += 1
            if i == na:
                break
            ka, ea = a[i]
        else:
            out.append(b[j])
            j += 1
            if j == nb:
                break
            kb, eb = b[j]
    return (*out, *a[i:], *b[j:])


class Monomial:
    """Immutable sparse exponent vector over variables and markers.

    ``degree`` is the weighted degree: variable i contributes i per power,
    markers 0.
    """

    __slots__ = ("exps", "_hash", "degree")

    def __init__(self, exps: Mapping[Key, int] | Iterable[Tuple[Key, int]] = ()):
        items = exps.items() if isinstance(exps, Mapping) else exps
        clean = tuple(sorted(((k, e) for k, e in items if e != 0), key=_item_sort))
        for k, e in clean:
            if e < 0:
                raise ValueError(f"negative exponent for {k}")
            if isinstance(k, int) and k < 0:
                raise ValueError(f"negative variable index {k}")
        self._set(clean, sum(k * e for k, e in clean if isinstance(k, int)))

    @classmethod
    def _raw(cls, exps: Exps, degree: int) -> "Monomial":
        """Trusted constructor: ``exps`` is already sorted, with positive
        exponents and valid keys, and ``degree`` is its weighted degree."""
        m = object.__new__(cls)
        m._set(exps, degree)
        return m

    def _set(self, exps, degree):
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "_hash", hash(exps))
        object.__setattr__(self, "degree", degree)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __setattr__(self, *a):
        raise AttributeError("Monomial is immutable")

    def exp(self, key: Key) -> int:
        for k, e in self.exps:
            if k == key:
                return e
        return 0

    def partition(self) -> Tuple[int, ...]:
        """The partition (sorted parts, with multiplicity) of the t-variables i >= 1."""
        parts = []
        for k, e in self.exps:
            if isinstance(k, int) and k >= 1:
                parts.extend([k] * e)
        return tuple(sorted(parts))

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial._raw(_merged(self.exps, other.exps), self.degree + other.degree)

    def __repr__(self):
        return f"Monomial({self.as_str()})"

    def as_str(self) -> str:
        if not self.exps:
            return "1"
        out = []
        for k, e in self.exps:
            name = f"t{k}" if isinstance(k, int) else k
            out.append(name if e == 1 else f"{name}^{e}")
        return "*".join(out)


MONO_ONE = Monomial()


class Poly:
    """Sparse polynomial with exact Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        t: Dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                c = _fr(c)
                if c != 0:
                    t[m] = c
        self.terms = t

    @classmethod
    def _raw(cls, terms: Dict[Monomial, Fraction]) -> "Poly":
        """Trusted constructor: every value of ``terms`` is a nonzero
        ``Fraction``."""
        p = object.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def from_numerators(cls, nums: Mapping[Monomial, int], den: int) -> "Poly":
        """The polynomial with coefficients ``nums[m] / den``, as built by the
        product kernels."""
        return cls._raw({m: Fraction(n, den) for m, n in nums.items() if n})

    def lifted(self) -> Tuple[Dict[Monomial, int], int]:
        """Integer numerators over one common denominator: ``(nums, den)``
        with ``self.terms[m] == Fraction(nums[m], den)``."""
        den = math.lcm(*(c.denominator for c in self.terms.values()))
        return {m: c.numerator * (den // c.denominator) for m, c in self.terms.items()}, den

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def const(c) -> "Poly":
        return Poly({MONO_ONE: _fr(c)})

    @staticmethod
    def one() -> "Poly":
        return Poly.const(1)

    @staticmethod
    def var(i: int) -> "Poly":
        return Poly({Monomial({i: 1}): Fraction(1)})

    @staticmethod
    def marker(name: str) -> "Poly":
        return Poly({Monomial({name: 1}): Fraction(1)})

    @staticmethod
    def term(m: Monomial, c) -> "Poly":
        return Poly({m: _fr(c)})

    # -- queries -----------------------------------------------------------
    def coeff(self, m: Monomial) -> Fraction:
        return self.terms.get(m, Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        return self.coeff(MONO_ONE)

    def homogeneous_part(self, d: int) -> "Poly":
        return Poly({m: c for m, c in self.terms.items() if m.degree == d})

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        t = dict(self.terms)
        for m, c in other.terms.items():
            s = t.get(m)
            if s is None:
                t[m] = c
                continue
            s += c
            if s:
                t[m] = s
            else:
                del t[m]
        return Poly(t)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def scale(self, c) -> "Poly":
        c = _fr(c)
        if c == 0:
            return Poly.zero()
        return Poly({m: c * v for m, v in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        a, den_a = self.lifted()
        b, den_b = other.lifted()
        acc: Dict[Monomial, int] = {}
        accumulate_product(acc, a, b, 1)
        return Poly.from_numerators(acc, den_a * den_b)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- rendering ---------------------------------------------------------
    def sorted_terms(self):
        def order(item):
            m, _ = item
            return (m.degree, tuple((_key_sort(k), e) for k, e in m.exps))

        return sorted(self.terms.items(), key=order)

    def as_str(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            if m is MONO_ONE or not m.exps:
                parts.append(str(c))
            elif c == 1:
                parts.append(m.as_str())
            elif c == -1:
                parts.append("-" + m.as_str())
            else:
                parts.append(f"{c}*{m.as_str()}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")

    def __repr__(self):
        return f"Poly({self.as_str()})"


def accumulate_product(
    acc: Dict[Monomial, int], a: Mapping[Monomial, int], b: Mapping[Monomial, int], factor: int
) -> None:
    """Add ``factor * a * b`` to ``acc``, all integer numerators.  Each
    distinct product monomial is built once, or taken from ``acc``."""
    made = {m.exps: m for m in acc}
    for m1, n1 in a.items():
        f1 = factor * n1
        e1, d1 = m1.exps, m1.degree
        for m2, n2 in b.items():
            exps = _merged(e1, m2.exps)
            m = made.get(exps)
            if m is None:
                m = made[exps] = Monomial._raw(exps, d1 + m2.degree)
            acc[m] = acc.get(m, 0) + f1 * n2


# ---------------------------------------------------------------------------
# multi-indices
# ---------------------------------------------------------------------------


def sorted_multi(total: int, parts: int, minimum: int = 0) -> Iterator[Tuple[int, ...]]:
    """Weakly increasing multi-indices of length ``parts`` with the given sum
    and every entry at least ``minimum``, in lexicographic order."""

    def rec(tot, k, lo):
        if k == 0:
            if tot == 0:
                yield ()
            return
        for v in range(lo, tot // k + 1):
            for rest in rec(tot - v, k - 1, v):
                yield (v,) + rest

    yield from rec(total, parts, minimum)


def mu_factorial(parts: Iterable[int]) -> int:
    """mu! = prod over distinct values v of (multiplicity of v)!, the number
    of reorderings of ``parts`` that leave it unchanged."""
    return math.prod(math.factorial(m) for m in Counter(parts).values())


def distinct_permutations(parts: Sequence[int]) -> List[Tuple[int, ...]]:
    """The distinct reorderings of ``parts``, in lexicographic order."""
    return sorted(set(itertools.permutations(parts)))
