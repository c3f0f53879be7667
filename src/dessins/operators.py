r"""Graded differential operators on exact polynomials.

An operator here is a *term generator*, not a stored infinite sum: given a
summary of the input support (maximal weighted degree and maximal t0
exponent) it yields the finitely many terms ``c * t^mu * d^nu`` that can act
nontrivially.  Finiteness of each action is a consequence of the grading,
and the generator interface enforces it structurally.

Every generator keeps the superset contract: for supports S within S'
(componentwise), ``terms(S)`` is a sub-multiset of ``terms(S')``, and every
term in the difference sends every monomial within S to zero.  ``apply``
relies on it: each operator compiles one term table, for the largest
support it has met, grouped by derivative and indexed by the first
derivative variable, and rebuilds it only when a larger support arrives.
Each built-in constructor returns one shared operator per argument value,
so there is one table per operator once per process, never one per
support or per call.

The checks (``commutator_check`` here, ``opmatrix.cutjoin_matrix_check``)
never apply an operator to a multi-term polynomial.  Each operator keeps,
next to its table, the image of every single monomial it has met, as
integer numerators over its table's ``den``; ``composition_residual``
builds a composition such as a(b(m)) as an integer combination of the
memoized images of the monomials of b(m), so each operator acts on each
monomial once per process, however many checks meet it.  ``apply`` does
not fill the memo (a flow meets each monomial once), but it shares the
inner loop ``_image_into`` with it.

Available constructors:

* ``w1()``  -- the quadrivalent cut-and-join operator, homogeneous of
  degree +2:  (1/2) sum (i+1)(j+1) t_{i+1} t_{j+1} d_{i+j}
            + (1/2) sum (i+j+2) t_{i+j+2} d_i d_j.
* ``w0()``  -- the bivalent operator sum (i+1) t_{i+1} d_i, degree +1.
* ``p_plus() / p_minus()`` -- the two halves of ``w1()``.
* ``virasoro_l(i)`` -- L_i = -d_{i+2} + sum_j (j+1) t_{j+1} d_{i+j+1}
                             + sum_{k+l=i} d_k d_l, for i >= -1 (mixed
  grading: shifts -(i+2) and -i).
* ``constraint_c()`` -- C = -d_0 + 1.

``conjugate_shift(op, s)`` replaces every occurrence of d_0 by (d_0 + s),
expanded binomially; with s = 1 this removes t0 from the evolution, with
s = the marker ``t-`` it tracks the number of negative boundary components.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from fractions import Fraction
from functools import wraps
from math import comb, lcm, perm
from typing import Callable, Dict, Iterator, List, Tuple

from .series import MONO_ONE, Monomial, Poly

Ders = Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class DiffTerm:
    """One term c * t^mono * prod d_i^e of a differential operator."""

    coeff: Fraction
    mono: Monomial
    ders: Ders

    @property
    def shift(self) -> int:
        return self.mono.degree - sum(i * e for i, e in self.ders)


@dataclass(frozen=True)
class Support:
    """What the generator needs to know about the polynomial being acted on."""

    max_deg: int
    max_t0: int


GenFn = Callable[[Support], Iterator[DiffTerm]]


# one group of an operator's terms: the shared derivative, its weighted
# degree and the (numerator, mono) pairs that multiply it; each numerator is
# over the denominator of the whole table
TermGroup = Tuple[Ders, int, Tuple[Tuple[int, Monomial], ...]]


@dataclass(frozen=True)
class _TermTable:
    """The terms of ``gen(support)`` grouped by derivative; each group is
    keyed by its first derivative variable, the derivative-free one by None.
    Coefficients are stored as integer numerators over ``den``, the lcm of
    their denominators."""

    support: Support
    groups: Dict[int | None, Tuple[TermGroup, ...]]
    den: int

    @classmethod
    def build(cls, op: "DiffOp", support: Support) -> "_TermTable":
        by_ders: Dict[Ders, List[Tuple[Fraction, Monomial]]] = {}
        for t in op.terms(support):
            by_ders.setdefault(t.ders, []).append((t.coeff, t.mono))
        den = lcm(*(c.denominator for entries in by_ders.values() for c, _ in entries))
        groups: Dict[int | None, List[TermGroup]] = {}
        for ders, entries in by_ders.items():
            key = ders[0][0] if ders else None
            weight = sum(i * e for i, e in ders)
            nums = tuple((c.numerator * (den // c.denominator), mono) for c, mono in entries)
            groups.setdefault(key, []).append((ders, weight, nums))
        return cls(support, {k: tuple(v) for k, v in groups.items()}, den)


# an exact polynomial as integer numerators over one denominator: its
# monomials and their numerators in two parallel tuples, then the denominator
Image = Tuple[Tuple[Monomial, ...], Tuple[int, ...], int]

# one object for each monomial held by some memoized image, so the images
# share their monomials instead of each keeping its own copy
_SHARED_MONOMIALS: Dict[Monomial, Monomial] = {}


@dataclass(frozen=True)
class DiffOp:
    name: str
    shifts: Tuple[int, ...]  # possible degree shifts of generated terms
    gen: GenFn
    # the term table of the largest support met so far (see ``term_table``)
    _table: _TermTable | None = field(
        default=None, init=False, compare=False, hash=False, repr=False
    )
    # the image of each monomial met so far (see ``image``)
    _images: Dict[Monomial, Image] = field(
        default_factory=dict, init=False, compare=False, hash=False, repr=False
    )

    def terms(self, support: Support) -> Iterator[DiffTerm]:
        return self.gen(support)

    def term_table(self, support: Support) -> _TermTable:
        """The grouped terms for every input within ``support``.

        One table per operator: it covers the componentwise-largest support
        met so far and is rebuilt only when a support outside it arrives.
        By the generator contract the extra terms of a larger support send
        every monomial within a smaller one to zero.
        """
        table = self._table
        if table is not None:
            have = table.support
            if support.max_deg <= have.max_deg and support.max_t0 <= have.max_t0:
                return table
            support = Support(
                max(support.max_deg, have.max_deg), max(support.max_t0, have.max_t0)
            )
        table = _TermTable.build(self, support)
        object.__setattr__(self, "_table", table)
        return table

    def image(self, m: Monomial) -> Image:
        """The exact image of the single monomial ``m``, computed once and
        kept for the life of the operator.

        Each image keeps the ``den`` of the table that built it: the table
        can be rebuilt for a larger support later, and its new ``den`` is a
        multiple of the old one.
        """
        hit = self._images.get(m)
        if hit is None:
            table = self.term_table(Support(m.degree, m.t0_exp))
            acc: Dict[Monomial, int] = {}
            _image_into(acc, table.groups, m, 1)
            share = _SHARED_MONOMIALS.setdefault
            hit = (
                tuple(share(k, k) for k, v in acc.items() if v),
                tuple(v for v in acc.values() if v),
                table.den,
            )
            self._images[share(m, m)] = hit
        return hit

    def __repr__(self):
        return f"DiffOp({self.name})"


def _dt(coeff, mono_exps: Dict, ders: Dict[int, int]) -> DiffTerm:
    return DiffTerm(
        Fraction(coeff),
        Monomial(mono_exps),
        tuple(sorted((i, e) for i, e in ders.items() if e)),
    )


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------


def _derive(m: Monomial, ders: Ders, weight: int) -> Tuple[int, Monomial] | None:
    """prod d_i^e applied to ``m``: (integer factor, monomial), or None if zero.

    ``weight`` is the weighted degree of ``ders``.
    """
    exps = dict(m.exps)
    fc = 1
    for i, e in ders:
        have = exps.get(i, 0)
        if have < e:
            return None
        fc *= perm(have, e)
        if have == e:
            del exps[i]
        else:
            exps[i] = have - e
    # lowering or deleting entries keeps the sorted order of m.exps
    return fc, Monomial._raw(tuple(exps.items()), m.degree - weight)


def _image_into(
    acc: Dict[Monomial, int], groups: Dict[int | None, Tuple[TermGroup, ...]],
    m: Monomial, c: int,
) -> None:
    """Add ``c`` times the image of ``m`` under a term table's ``groups`` to
    ``acc``, as numerators over the table's ``den``."""
    # a group can act on m only if m has its first derivative variable
    for key in (None, *(k for k, _ in m.exps)):
        for ders, weight, entries in groups.get(key, ()):
            if ders:
                hit = _derive(m, ders, weight)
                if hit is None:
                    continue
                fc, dm = hit
                cm = c * fc
            else:
                dm, cm = m, c
            for coeff, mono in entries:
                nm = dm.mul(mono)
                acc[nm] = acc.get(nm, 0) + cm * coeff


def apply(op: DiffOp, p: Poly) -> Poly:
    """The exact image of ``p`` under ``op``."""
    return _apply_divided(op, p, 1)


def _apply_divided(op: DiffOp, p: Poly, div: int) -> Poly:
    """The exact image of ``p`` under ``op``, divided by the integer ``div``
    in the one denominator every output coefficient is built over."""
    table = op.term_table(Support(p.max_degree, p.max_t0))
    groups = table.groups
    nums, den = p.lifted()
    acc: Dict[Monomial, int] = {}
    for m, c in nums.items():
        _image_into(acc, groups, m, c)
    return Poly.from_numerators(acc, den * table.den * div)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _one_per_argument(make: Callable[..., DiffOp]) -> Callable[..., DiffOp]:
    """One operator per argument value for the life of the process, so its
    term table and its monomial images are built once and reused by every
    later caller."""
    signature = inspect.signature(make)
    made: Dict[tuple, DiffOp] = {}

    @wraps(make)
    def get(*args, **kwargs) -> DiffOp:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = tuple(bound.arguments.values())
        op = made.get(key)
        if op is None:
            op = made[key] = make(*args, **kwargs)
        return op

    return get


@_one_per_argument
def w0() -> DiffOp:
    def gen(s: Support) -> Iterator[DiffTerm]:
        yield _dt(1, {1: 1}, {0: 1})
        for i in range(1, s.max_deg + 1):
            yield _dt(i + 1, {i + 1: 1}, {i: 1})

    return DiffOp("W0", (1,), gen)


@_one_per_argument
def p_plus() -> DiffOp:
    def gen(s: Support) -> Iterator[DiffTerm]:
        yield _dt(Fraction(1, 2), {1: 2}, {0: 1})  # k = 0 needs d_0
        for k in range(1, s.max_deg + 1):
            for i in range(0, k // 2 + 1):
                j = k - i
                c = Fraction((i + 1) * (j + 1), 2) * (1 if i == j else 2)
                mono = {i + 1: 2} if i == j else {i + 1: 1, j + 1: 1}
                yield _dt(c, mono, {k: 1})

    return DiffOp("P+", (2,), gen)


@_one_per_argument
def p_minus() -> DiffOp:
    def gen(s: Support) -> Iterator[DiffTerm]:
        yield _dt(1, {2: 1}, {0: 2})  # i = j = 0
        for j in range(1, s.max_deg + 1):
            yield _dt(j + 2, {j + 2: 1}, {0: 1, j: 1})  # i = 0 or j = 0, combined
        for i in range(1, s.max_deg + 1):
            for j in range(i, s.max_deg + 1 - i):
                c = Fraction(i + j + 2, 2) * (1 if i == j else 2)
                yield _dt(c, {i + j + 2: 1}, {i: 2} if i == j else {i: 1, j: 1})

    return DiffOp("P-", (2,), gen)


@_one_per_argument
def w1() -> DiffOp:
    pp, pm = p_plus(), p_minus()

    def gen(s: Support) -> Iterator[DiffTerm]:
        yield from pp.gen(s)
        yield from pm.gen(s)

    return DiffOp("W1", (2,), gen)


@_one_per_argument
def virasoro_l(i: int) -> DiffOp:
    """The constraint operator L_i, i >= -1 (sign convention of the loop
    equation section, pinned by the Witt bracket test)."""
    if i < -1:
        raise ValueError("virasoro_l requires i >= -1")

    def gen(s: Support) -> Iterator[DiffTerm]:
        yield _dt(-1, {}, {i + 2: 1})
        for j in range(0, s.max_deg + 1):
            tgt = i + j + 1
            if tgt < 0:
                continue
            yield _dt(j + 1, {j + 1: 1}, {tgt: 1})
        for k in range(0, i + 1):
            l = i - k
            if k > l:
                break
            if k == l:
                yield _dt(1, {}, {k: 2})
            else:
                yield _dt(2, {}, {k: 1, l: 1})

    return DiffOp(f"L{i}", (-(i + 2), -i), gen)


@_one_per_argument
def constraint_c() -> DiffOp:
    def gen(s: Support) -> Iterator[DiffTerm]:
        yield _dt(-1, {}, {0: 1})
        yield _dt(1, {}, {})

    return DiffOp("C", (0,), gen)


def scaled(op: DiffOp, c) -> DiffOp:
    c = Fraction(c)

    def gen(s: Support) -> Iterator[DiffTerm]:
        for t in op.gen(s):
            yield DiffTerm(t.coeff * c, t.mono, t.ders)

    return DiffOp(f"{c}*{op.name}", op.shifts, gen)


def from_terms(name: str, terms: List[DiffTerm], shifts: Tuple[int, ...] | None = None) -> DiffOp:
    """Operator with an explicit finite term list (used for matrix blocks)."""
    terms = tuple(terms)
    if shifts is None:
        shifts = tuple(sorted({t.shift for t in terms})) or (0,)

    def gen(s: Support) -> Iterator[DiffTerm]:
        return iter(terms)

    return DiffOp(name, shifts, gen)


# ---------------------------------------------------------------------------
# conjugation by exp(s * t0)
# ---------------------------------------------------------------------------


@_one_per_argument
def conjugate_shift(op: DiffOp, s) -> DiffOp:
    """Replace every d_0 in ``op`` by (d_0 + s), expanded binomially.

    ``s`` is a scalar or a single-term polynomial in marker variables (1 for
    plain t0 removal, the marker ``t-`` for the genus-refined vacuum).

    The result keeps the generator superset contract only when the d_0
    powers of ``op``'s terms do not grow with ``Support.max_t0``, which holds
    for every built-in operator.  Otherwise (d_0 + s)^k turns the extra
    d_0^k terms of a larger support, which kill every smaller input, into
    parts with no derivative, and those act on smaller inputs.
    """
    if isinstance(s, Poly):
        if len(s.terms) > 1:
            raise ValueError("conjugation shift must be a single term")
        items = list(s.terms.items())
        s_mono, s_coeff = items[0] if items else (MONO_ONE, Fraction(0))
    else:
        s_mono, s_coeff = MONO_ONE, Fraction(s)
    if s_mono.degree != 0:
        raise ValueError("conjugation shift must have weighted degree 0")

    def gen(sup: Support) -> Iterator[DiffTerm]:
        # conjugated d_0-terms can act on inputs with no t0 at all, so the
        # wrapped generator must see a t0 budget matching the operator.
        inner = Support(sup.max_deg, max(sup.max_t0, 2))
        for t in op.gen(inner):
            a = dict(t.ders).get(0, 0)
            if a == 0 or s_coeff == 0:
                yield t
                continue
            rest = tuple((i, e) for i, e in t.ders if i != 0)
            for k in range(a + 1):
                coeff = t.coeff * comb(a, k) * s_coeff**k
                mono = t.mono
                for _ in range(k):
                    mono = mono.mul(s_mono)
                ders = rest if k == a else rest + ((0, a - k),)
                yield DiffTerm(coeff, mono, tuple(sorted(ders)))

    return DiffOp(f"{op.name}'", op.shifts, gen)


def w1_reduced(marker: bool = False) -> DiffOp:
    """W1 conjugated to act on t0-free series (t- refined if ``marker``)."""
    s = Poly.marker("t-") if marker else 1
    return conjugate_shift(w1(), s)


def w0_reduced(marker: bool = False) -> DiffOp:
    s = Poly.marker("t-") if marker else 1
    return conjugate_shift(w0(), s)


# ---------------------------------------------------------------------------
# commutator verification
# ---------------------------------------------------------------------------


def basis_monomials(deg_cap: int, var_cap: int, t0_cap: int = 0) -> Iterator[Monomial]:
    """All monomials t^mu with weighted degree <= deg_cap, max index <= var_cap.

    t0 carries weight 0, so its powers are enumerated separately up to
    ``t0_cap``; the d_0-containing parts of the operators are only exercised
    with ``t0_cap`` > 0.  A negative cap raises ``ValueError`` at the call,
    not at the first item.
    """
    if min(deg_cap, var_cap, t0_cap) < 0:
        raise ValueError(
            f"basis caps must be >= 0, got deg_cap={deg_cap}, var_cap={var_cap}, t0_cap={t0_cap}"
        )

    def rec(max_part: int, budget: int, acc: Dict[int, int]) -> Iterator[Monomial]:
        for a in range(t0_cap + 1):
            if a:
                yield Monomial({0: a, **acc})
            else:
                yield Monomial(dict(acc))
        for part in range(1, min(max_part, budget) + 1):
            acc[part] = acc.get(part, 0) + 1
            yield from rec(part, budget - part, acc)
            acc[part] -= 1
            if not acc[part]:
                del acc[part]

    return rec(min(var_cap, deg_cap), deg_cap, {})


def _combine(parts: List[Tuple[Fraction | int, Image]]) -> Tuple[Dict[Monomial, int], int]:
    """sum c * p over ``parts``, accumulated in integers over one common
    denominator: (numerators, denominator)."""
    den = lcm(*(c.denominator * d for c, (_, _, d) in parts))
    acc: Dict[Monomial, int] = {}
    for c, (monos, nums, d) in parts:
        f = c.numerator * (den // (c.denominator * d))
        for k, v in zip(monos, nums):
            acc[k] = acc.get(k, 0) + f * v
    return acc, den


def _image_of(op: DiffOp, p: Image) -> Image:
    """The image of ``p`` under ``op``, as the integer combination of the
    memoized images of its monomials."""
    monos, nums, den = p
    acc, common = _combine([(c, op.image(m)) for m, c in zip(monos, nums) if c])
    return tuple(acc), tuple(acc.values()), den * common


def composition_residual(
    m: Monomial, parts: List[Tuple[Fraction, Tuple[DiffOp, ...]]]
) -> Poly | None:
    """sum c * (o_1 o_2 ... o_k)(m) over ``parts``, each a coefficient and a
    chain of operators applied right to left; None when it vanishes.

    Every operator acts only on single monomials, through its memoized
    images, and a ``Poly`` is built only for a nonzero residual.
    """
    terms = []
    for c, chain in parts:
        if c:
            p = chain[-1].image(m)
            for op in reversed(chain[:-1]):
                p = _image_of(op, p)
            terms.append((c, p))
    acc, den = _combine(terms)
    if not any(acc.values()):
        return None
    return Poly.from_numerators(acc, den)


def commutator_check(
    a: DiffOp,
    b: DiffOp,
    expect: DiffOp | None,
    scale: Fraction | int,
    deg_cap: int,
    var_cap: int,
    t0_cap: int = 2,
) -> List[Tuple[Monomial, Poly]]:
    """Residuals of (a b - b a - scale*expect) on basis monomials.

    Every application is exact, so a nonzero residual is a genuine finding.
    Each operator acts on each monomial at most once per process (see
    ``composition_residual``).
    """
    scale = Fraction(scale)
    basis = basis_monomials(deg_cap, var_cap, t0_cap)
    # size both tables once for the check: every image of a basis monomial
    # has degree <= top; a t0 that grows still rebuilds them (see DiffOp.image)
    top = deg_cap + max(0, *a.shifts, *b.shifts)
    for op in (a, b):
        op.term_table(Support(top, t0_cap))
    parts = [(Fraction(1), (a, b)), (Fraction(-1), (b, a))]
    if expect is not None and scale != 0:
        parts.append((-scale, (expect,)))
    residuals = []
    for m in basis:
        res = composition_residual(m, parts)
        if res is not None:
            residuals.append((m, res))
    return residuals


def render_terms(op: DiffOp, support: Support) -> str:
    """Canonical text rendering of the generated terms (docs and tests)."""
    bits = []
    for t in sorted(op.terms(support), key=lambda t: (t.ders, t.mono.exps)):
        d = "".join(f"d{i}^{e}" if e > 1 else f"d{i}" for i, e in t.ders)
        m = t.mono.as_str()
        bits.append(f"{t.coeff}*{m}{'*' + d if d else ''}")
    return " + ".join(bits)
