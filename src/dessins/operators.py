r"""Graded differential operators on exact polynomials.

An operator here is its normal-ordered symbol, not a stored infinite sum:
for each derivative pattern d^nu = prod d_i^{nu_i} its *coefficient
function* gives the finite polynomial that multiplies d^nu.  A pattern acts
on a monomial only if it divides it, so each action is finite: ``apply``
enumerates the patterns that divide each input monomial, up to the
operator's ``order`` (its largest total derivative order), and looks up
their coefficients.  Each operator evaluates each pattern's coefficient
once, as integer numerators over its fixed denominator ``den``, and keeps
the group for the life of the operator.  Each built-in constructor returns
one shared operator per argument value, so each group is built once per
process, however many flows and checks meet it.

The checks (``commutator_check`` here, ``opmatrix.cutjoin_matrix_check``)
never apply an operator to a multi-term polynomial.  One table per process
gives an integer id to each exponent tuple an image meets, and each
operator keeps, next to its groups, the image of every monomial it has met,
keyed by id: the ids of its monomials and their integer numerators over its
``den``.  An image builds a ``Monomial`` only for a product no image has
met before.  ``composition_residuals`` takes a whole basis and a list of
parts c * (o_1 ... o_k): it finds their common denominator and integer
factors once, then walks each chain such as a(b(m)) right to left, one
operator at a time, adding every part into one id-keyed accumulator per
basis monomial.  So each operator acts on each monomial once per process,
however many checks meet it, and the hot loop hashes only ints.
``basis_monomials`` builds the basis of each window once per process.
``apply`` keeps no image (a flow meets each monomial once), but it shares
the one per-monomial loop ``_image_into`` with the images.

Available constructors:

* ``w1()``  -- the quadrivalent cut-and-join operator, homogeneous of
  degree +2:  (1/2) sum (i+1)(j+1) t_{i+1} t_{j+1} d_{i+j}
            + (1/2) sum (i+j+2) t_{i+j+2} d_i d_j.
* ``w0()``  -- the bivalent operator sum (i+1) t_{i+1} d_i, degree +1.
* ``p_plus() / p_minus()`` -- the two halves of ``w1()``.
* ``virasoro_l(i)`` -- L_i = -d_{i+2} + sum_j (j+1) t_{j+1} d_{i+j+1}
                             + sum_{k+l=i} d_k d_l, for i >= -1 (mixed
  grading: degree changes -(i+2) and -i).
* ``constraint_c()`` -- C = -d_0 + 1.
* ``from_terms(name, terms)`` -- an explicit finite list of ``DiffTerm``.

``conjugate_shift(op, s)`` replaces every occurrence of d_0 by (d_0 + s),
expanded binomially; with s = 1 this removes t0 from the evolution, with
s = the marker ``t-`` it tracks the number of negative boundary components.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from functools import cache
from math import comb, lcm, perm
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Tuple, TypeVar

from .series import MONO_ONE, Exps, Monomial, Poly, _merged

# a derivative pattern prod d_i^e as sorted (i, e) pairs
Ders = Tuple[Tuple[int, int], ...]

# the polynomial multiplying one pattern: monomial -> coefficient
Coeffs = Dict[Monomial, Fraction]

# one memoized pattern group: the pattern's weighted degree and the
# (numerator over the operator's den, monomial) pairs that multiply it
Group = Tuple[int, Tuple[Tuple[int, Monomial], ...]]

# the key of a product in ``_image_into``: a monomial, or its id
K = TypeVar("K")


class DiffTerm(NamedTuple):
    """One term c * t^mono * prod d_i^e of a differential operator."""

    coeff: Fraction
    mono: Monomial
    ders: Ders


# the image of one monomial: the ids of its monomials and their numerators
# over the operator's den, in two parallel tuples
Image = Tuple[Tuple[int, ...], Tuple[int, ...]]

# the id of each exponent tuple met by an image, and the monomial of each id:
# one table per process, so the images share their monomials, key them by
# plain ints and build the monomial of each product once
_IDS: Dict[Exps, int] = {}
_MONOS: List[Monomial] = []


def _new_id(exps: Exps, degree: int) -> int:
    """The id of a monomial not in ``_IDS`` yet; the caller enters it there."""
    _MONOS.append(Monomial._raw(exps, degree))
    return len(_MONOS) - 1


def _mono_id(m: Monomial) -> int:
    i = _IDS.get(m.exps)
    if i is None:
        i = _IDS[m.exps] = len(_MONOS)
        _MONOS.append(m)
    return i


class DiffOp:
    """The operator sum over patterns D of coeffs(D) * d^D, normal ordered.

    ``coeffs(D)`` is empty for every pattern of total order above ``order``,
    and ``den`` times each of its coefficients is an integer.  Immutable:
    equality and hash are over (name, order, den, coeffs), so an operator is
    a cache key (of ``conjugate_shift``); its memos are in neither.
    """

    __slots__ = ("name", "order", "den", "coeffs", "_groups", "_images")
    name: str
    order: int
    den: int
    coeffs: Callable[[Ders], Coeffs]
    # the group of each pattern met so far (see ``_group``)
    _groups: Dict[Ders, Group]
    # the image of each monomial met so far, by monomial id (see ``image``)
    _images: Dict[int, Image]

    def __init__(self, name: str, order: int, den: int, coeffs: Callable[[Ders], Coeffs]):
        put = object.__setattr__
        put(self, "name", name)
        put(self, "order", order)
        put(self, "den", den)
        put(self, "coeffs", coeffs)
        put(self, "_groups", {})
        put(self, "_images", {})

    def __eq__(self, other):
        if other.__class__ is not DiffOp:
            return NotImplemented
        return (self.name, self.order, self.den, self.coeffs) == (
            other.name, other.order, other.den, other.coeffs)

    def __hash__(self):
        return hash((self.name, self.order, self.den, self.coeffs))

    def __setattr__(self, *a):
        raise AttributeError("DiffOp is immutable")

    __delattr__ = __setattr__

    def _group(self, ders: Ders) -> Group:
        """Evaluate and keep the group of the pattern ``ders``."""
        entries = []
        for mono, c in self.coeffs(ders).items():
            n = c * self.den
            if n.denominator != 1:
                raise ValueError(
                    f"{self.name}: coefficient {c} of {mono.as_str()} at {ders} "
                    f"is not a multiple of 1/{self.den}"
                )
            if n:
                entries.append((n.numerator, mono))
        group = self._groups[ders] = (sum(i * e for i, e in ders), tuple(entries))
        return group

    def image(self, i: int) -> Image:
        """The exact image of the monomial with id ``i``, computed once and
        kept for the life of the operator."""
        hit = self._images.get(i)
        if hit is None:
            acc: Dict[int, int] = {}
            _image_into(acc, _IDS, _new_id, self, _MONOS[i], 1)
            items = [(k, v) for k, v in acc.items() if v]
            hit = self._images[i] = (tuple(k for k, _ in items), tuple(v for _, v in items))
        return hit

    def __repr__(self):
        return f"DiffOp({self.name})"


def _added(*parts: Coeffs) -> Coeffs:
    """The sum of coefficient polynomials, zero coefficients dropped."""
    out: Coeffs = {}
    for part in parts:
        for m, c in part.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _t(*indices: int) -> Monomial:
    """The monomial prod t_i over ``indices`` (each >= 1), with repetition."""
    return Monomial._raw(tuple(sorted(Counter(indices).items())), sum(indices))


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------


def _patterns(m: Monomial, order: int) -> List[Tuple[Ders, int]]:
    """Every pattern of total order <= ``order`` that divides ``m``, with
    the order left after it: the sub-multisets of m's integer variables.
    Markers are never differentiated (they sort after every integer
    variable)."""
    pats: List[Tuple[Ders, int]] = [((), order)]
    for k, e in m.exps:
        if not isinstance(k, int):
            break
        pats += [
            (ders + ((k, a),), left - a)
            for ders, left in pats
            if left
            for a in range(1, min(e, left) + 1)
        ]
    return pats


def _derive(m: Monomial, ders: Ders, weight: int) -> Tuple[int, Monomial]:
    """prod d_i^e applied to ``m``, for a pattern that divides it: (integer
    factor, monomial).  ``weight`` is the weighted degree of ``ders``."""
    exps = dict(m.exps)
    fc = 1
    for i, e in ders:
        have = exps[i]
        fc *= perm(have, e)
        if have == e:
            del exps[i]
        else:
            exps[i] = have - e
    # lowering or deleting entries keeps the sorted order of m.exps
    return fc, Monomial._raw(tuple(exps.items()), m.degree - weight)


def _image_into(
    acc: Dict[K, int], made: Dict[Exps, K], new: Callable[[Exps, int], K],
    op: DiffOp, m: Monomial, c: int,
) -> None:
    """Add ``c`` times the image of ``m`` under ``op`` to ``acc``, as
    numerators over ``op.den``, each product under its key in ``made``.
    ``made`` holds the key of each exponent tuple met so far, and
    ``new(exps, degree)`` makes the key of a new one, so that the key of
    each distinct product is made once: a monomial per call of ``apply``,
    an id per process for the images."""
    groups = op._groups
    for ders, _ in _patterns(m, op.order):
        group = groups.get(ders)
        if group is None:
            group = op._group(ders)
        weight, entries = group
        if not entries:
            continue
        if ders:
            fc, dm = _derive(m, ders, weight)
            cm = c * fc
        else:
            dm, cm = m, c
        de, dd = dm.exps, dm.degree
        for coeff, mono in entries:
            exps = _merged(de, mono.exps)
            nm = made.get(exps)
            if nm is None:
                nm = made[exps] = new(exps, dd + mono.degree)
            acc[nm] = acc.get(nm, 0) + cm * coeff


def apply(op: DiffOp, p: Poly) -> Poly:
    """The exact image of ``p`` under ``op``."""
    return _apply_divided(op, p, 1)


def _apply_divided(op: DiffOp, p: Poly, div: int) -> Poly:
    """The exact image of ``p`` under ``op``, divided by the integer ``div``
    in the one denominator every output coefficient is built over."""
    nums, den = p.lifted()
    acc: Dict[Monomial, int] = {}
    made: Dict[Exps, Monomial] = {}
    for m, c in nums.items():
        _image_into(acc, made, Monomial._raw, op, m, c)
    return Poly.from_numerators(acc, den * op.den * div)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _single(ders: Ders) -> int | None:
    """The index k of a first-order pattern d_k, else None."""
    return ders[0][0] if len(ders) == 1 and ders[0][1] == 1 else None


@cache
def w0() -> DiffOp:
    def coeffs(ders: Ders) -> Coeffs:
        k = _single(ders)
        return {} if k is None else {_t(k + 1): Fraction(k + 1)}

    return DiffOp("W0", 1, 1, coeffs)


@cache
def p_plus() -> DiffOp:
    def coeffs(ders: Ders) -> Coeffs:
        k = _single(ders)
        if k is None:
            return {}
        return {
            _t(i + 1, k - i + 1): Fraction((i + 1) * (k - i + 1), 2 if 2 * i == k else 1)
            for i in range(k // 2 + 1)
        }

    return DiffOp("P+", 1, 2, coeffs)


@cache
def p_minus() -> DiffOp:
    def coeffs(ders: Ders) -> Coeffs:
        if len(ders) == 1 and ders[0][1] == 2:
            i = ders[0][0]
            return {_t(2 * i + 2): Fraction(i + 1)}
        if len(ders) == 2 and ders[0][1] == ders[1][1] == 1:
            s = ders[0][0] + ders[1][0] + 2
            return {_t(s): Fraction(s)}
        return {}

    return DiffOp("P-", 2, 1, coeffs)


@cache
def w1() -> DiffOp:
    pp, pm = p_plus(), p_minus()

    def coeffs(ders: Ders) -> Coeffs:
        return _added(pp.coeffs(ders), pm.coeffs(ders))

    return DiffOp("W1", 2, 2, coeffs)


@cache
def virasoro_l(i: int) -> DiffOp:
    """The constraint operator L_i, i >= -1 (sign convention of the loop
    equation section, pinned by the Witt bracket test)."""
    if i < -1:
        raise ValueError("virasoro_l requires i >= -1")

    def coeffs(ders: Ders) -> Coeffs:
        k = _single(ders)
        if k is not None:
            out = {MONO_ONE: Fraction(-1)} if k == i + 2 else {}
            if k >= i + 1:
                out[_t(k - i)] = Fraction(k - i)
            return out
        if sum(e for _, e in ders) == 2 and sum(j * e for j, e in ders) == i:
            return {MONO_ONE: Fraction(len(ders))}  # d_k d_l twice for k != l
        return {}

    return DiffOp(f"L{i}", 2 if i >= 0 else 1, 1, coeffs)


@cache
def constraint_c() -> DiffOp:
    def coeffs(ders: Ders) -> Coeffs:
        if not ders:
            return {MONO_ONE: Fraction(1)}
        return {MONO_ONE: Fraction(-1)} if ders == ((0, 1),) else {}

    return DiffOp("C", 1, 1, coeffs)


def scaled(op: DiffOp, c) -> DiffOp:
    c = Fraction(c)

    def coeffs(ders: Ders) -> Coeffs:
        return _added({m: v * c for m, v in op.coeffs(ders).items()})

    return DiffOp(f"{c}*{op.name}", op.order, op.den * c.denominator, coeffs)


def from_terms(name: str, terms: List[DiffTerm]) -> DiffOp:
    """Operator with an explicit finite term list (used for matrix blocks)."""
    by_ders: Dict[Ders, Coeffs] = {}
    for t in terms:
        part = by_ders.setdefault(t.ders, {})
        part[t.mono] = part.get(t.mono, 0) + t.coeff
    by_ders = {ders: _added(part) for ders, part in by_ders.items()}
    order = max((sum(e for _, e in ders) for ders in by_ders), default=0)

    def coeffs(ders: Ders) -> Coeffs:
        return by_ders.get(ders, {})

    return DiffOp(name, order, lcm(*(t.coeff.denominator for t in terms)), coeffs)


# ---------------------------------------------------------------------------
# conjugation by exp(s * t0)
# ---------------------------------------------------------------------------


@cache
def conjugate_shift(op: DiffOp, s) -> DiffOp:
    """Replace every d_0 in ``op`` by (d_0 + s), expanded binomially.

    ``s`` is a scalar or a single-term polynomial in marker variables (1 for
    plain t0 removal, the marker ``t-`` for the genus-refined vacuum).  The
    pattern D of the result collects the terms d_0^k s^k of every pattern
    D + d_0^k of ``op``:

        coeffs'(D) = sum_{k <= order - |D|} C(a_0 + k, k) s^k coeffs(D + d_0^k)

    with a_0 the d_0 power of D, exactly, for every operator.
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

    def coeffs(ders: Ders) -> Coeffs:
        a0 = ders[0][1] if ders and ders[0][0] == 0 else 0
        rest = ders[1:] if a0 else ders
        parts = []
        s_pow = MONO_ONE
        for k in range(op.order - sum(e for _, e in ders) + 1):
            if k and not s_coeff:
                break
            part = op.coeffs(((0, a0 + k),) + rest if a0 + k else rest)
            if part:
                f = comb(a0 + k, k) * s_coeff**k
                parts.append({m.mul(s_pow): c * f for m, c in part.items()})
            s_pow = s_pow.mul(s_mono)
        return _added(*parts)

    return DiffOp(f"{op.name}'", op.order, op.den * s_coeff.denominator**op.order, coeffs)


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
    with ``t0_cap`` > 0.  Each window is enumerated once per process and
    every call returns a fresh iterator over it.  A negative cap raises
    ``ValueError`` at the call, not at the first item.
    """
    if min(deg_cap, var_cap, t0_cap) < 0:
        raise ValueError(
            f"basis caps must be >= 0, got deg_cap={deg_cap}, var_cap={var_cap}, t0_cap={t0_cap}"
        )
    return iter(_basis(deg_cap, var_cap, t0_cap))


@cache
def _basis(deg_cap: int, var_cap: int, t0_cap: int) -> Tuple[Monomial, ...]:
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

    return tuple(rec(min(var_cap, deg_cap), deg_cap, {}))


def composition_residuals(
    basis: Iterable[Monomial], parts: List[Tuple[Fraction, Tuple[DiffOp, ...]]]
) -> Iterator[Tuple[Monomial, Poly]]:
    """(m, sum c * (o_1 o_2 ... o_k)(m) over ``parts``) for each monomial m
    of ``basis`` where that sum does not vanish; each part is a coefficient
    and a chain of operators applied right to left.

    The common denominator and the integer factor of each part are found
    once per call.  Each chain is walked right to left, one operator at a
    time, on the memoized images: the first operator's image of m needs no
    merging, the terms after each further inner operator are merged by id,
    and the last operator adds straight into one accumulator for m.  A
    ``Poly`` is built only for a nonzero residual.
    """
    parts = [(c, chain) for c, chain in parts if c]
    dens = []
    for c, chain in parts:
        d = c.denominator
        for op in chain:
            d *= op.den
        dens.append(d)
    den = lcm(*dens)
    # each part's integer factor over den, and its operators in the order
    # they act
    plan = [(c.numerator * (den // d), chain[::-1]) for (c, chain), d in zip(parts, dens)]
    for m in basis:
        i = _mono_id(m)
        acc: Dict[int, int] = defaultdict(int)
        for f, steps in plan:
            first = steps[0]
            ids, nums = first._images.get(i) or first.image(i)
            if len(steps) == 1:
                for k, n in zip(ids, nums):
                    acc[k] += f * n
                continue
            terms = zip(ids, nums)
            for op in steps[1:-1]:
                merged: Dict[int, int] = defaultdict(int)
                images = op._images
                for k, v in terms:
                    ids, nums = images.get(k) or op.image(k)
                    for j, n in zip(ids, nums):
                        merged[j] += v * n
                terms = merged.items()
            last = steps[-1]
            images = last._images
            for k, v in terms:
                fv = f * v
                ids, nums = images.get(k) or last.image(k)
                for j, n in zip(ids, nums):
                    acc[j] += fv * n
        if any(acc.values()):
            yield m, Poly.from_numerators({_MONOS[k]: v for k, v in acc.items()}, den)


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
    ``composition_residuals``).
    """
    scale = Fraction(scale)
    basis = basis_monomials(deg_cap, var_cap, t0_cap)
    parts = [(Fraction(1), (a, b)), (Fraction(-1), (b, a))]
    if expect is not None and scale != 0:
        parts.append((-scale, (expect,)))
    return list(composition_residuals(basis, parts))
