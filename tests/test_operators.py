from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dessins import operators as ops
from dessins import opmatrix
from dessins import partition as pt
from dessins.series import MARKER_NEG, Monomial, Poly
from helpers import fresh_op, parse_poly


def P(*pairs):
    return parse_poly(pairs)


W1P = ops.w1_reduced()


def test_w1_reduced_on_vacuum():
    assert ops.apply(W1P, Poly.one()) == P(({2: 1}, 1), ({1: 2}, Fraction(1, 2)))


def test_w0_single_term():
    assert ops.apply(ops.w0(), Poly.var(1)) == P(({2: 1}, 2))


def test_w1_reduced_second_layer_hand_value():
    layer1 = ops.apply(W1P, Poly.one())
    got = ops.apply(W1P, layer1)
    want = P(
        ({1: 4}, Fraction(1, 4)),
        ({1: 2, 2: 1}, 3),
        ({2: 2}, 3),
        ({1: 1, 3: 1}, 6),
        ({4: 1}, 6),
    )
    assert got == want


def test_conjugate_w0_adds_t1():
    got = ops.apply(ops.conjugate_shift(ops.w0(), 1), Poly.one())
    assert got == Poly.var(1)


def test_conjugate_by_zero_is_identity():
    p = P(({1: 1, 2: 1}, 1), ({0: 2}, 1))
    assert ops.apply(ops.conjugate_shift(ops.w1(), 0), p) == ops.apply(ops.w1(), p)


def test_conjugation_matches_printed_reduced_operator():
    # the conjugated operator, applied on the t0-free space, consists of the
    # i+j>0 quadratic part, the i,j>=1 second-order part, the linear part
    # (i+2) t_{i+2} d_i, and the multiplication part t1^2/2 + t2
    for mono in [Monomial({}), Monomial({1: 1}), Monomial({2: 1}), Monomial({1: 2, 3: 1})]:
        p = Poly.term(mono, 1)
        got = ops.apply(W1P, p)
        manual = ops.apply(ops.w1(), p)
        lin = Poly.zero()
        for i in range(1, mono.degree + 1):
            lin = lin + ops.apply(
                ops.from_terms("lin", [ops.DiffTerm(Fraction(i + 2), Monomial({i + 2: 1}), ((i, 1),))]),
                p,
            )
        mult = (P(({1: 2}, Fraction(1, 2)), ({2: 1}, 1))) * p
        assert got == manual + lin + mult


def test_l0_contains_d0_squared():
    assert ops.virasoro_l(0).coeffs(((0, 2),)) == {Monomial({}): 1}


def test_string_equation_operator_form():
    lm1 = ops.virasoro_l(-1)
    assert lm1.coeffs(((1, 1),)) == {Monomial({}): -1, Monomial({2: 1}): 2}
    assert lm1.coeffs(((0, 1),)) == {Monomial({1: 1}): 1}
    assert lm1.order == 1 and not lm1.coeffs(((0, 1), (1, 1)))


def test_witt_bracket_window():
    for i in range(-1, 3):
        for j in range(i, 3):
            expect = ops.virasoro_l(i + j) if i != j else None
            assert not ops.commutator_check(
                ops.virasoro_l(i), ops.virasoro_l(j), expect, i - j, 6, 8
            )


def test_w0_w1_commute():
    assert not ops.commutator_check(ops.w0(), ops.w1(), None, 0, 6, 8)


def test_self_commutator_zero():
    assert not ops.commutator_check(ops.w1(), ops.w1(), None, 0, 5, 6)


def test_constraint_c_kills_exp_t0():
    # d/dt0 acts as the identity on exp(t0); with the truncated exp the
    # residual is exactly the boundary term of the truncation
    from math import factorial

    t0_cap = 5
    expt0 = Poly({Monomial({0: a}): Fraction(1, factorial(a)) for a in range(t0_cap + 1)})
    img = ops.apply(ops.constraint_c(), expt0)
    assert img == Poly.term(Monomial({0: t0_cap}), Fraction(1, factorial(t0_cap)))


def _exp_t0(k, sign=1):
    from math import factorial

    return Poly(
        {Monomial({0: a}): Fraction(sign**a, factorial(a)) for a in range(k + 1)}
    )


def _t0_free_slice(p):
    return Poly({m: c for m, c in p.terms.items() if m.exp(0) == 0})


def test_conjugation_is_composition_homomorphism():
    # conj(a.b) = conj(a).conj(b): the right side via the conjugated
    # generators, the left side via explicit multiplication by exp(+-t0)
    # truncated deep enough that no boundary term reaches the t0-free slice
    a, b = ops.w0(), ops.w1()
    ca, cb = ops.conjugate_shift(a, 1), ops.conjugate_shift(b, 1)
    k = 8
    for m in ops.basis_monomials(4, 4):
        p = Poly.term(m, 1)
        rhs = ops.apply(ca, ops.apply(cb, p))
        sandwiched = _exp_t0(k, -1) * ops.apply(a, ops.apply(b, _exp_t0(k) * p))
        assert _t0_free_slice(sandwiched) == rhs


def test_conjugation_is_exact_for_a_cubic_d0_term():
    # (d_0 + s)^3 has parts with every power of d_0 below three, and each
    # acts on inputs with fewer than three t0: the t0-free slice of the
    # exp(-+ s t0) sandwich of the unconjugated operator
    op = ops.from_terms("D", [
        ops.DiffTerm(Fraction(1, 3), Monomial({1: 1}), ((0, 3),)),
        ops.DiffTerm(Fraction(-2), Monomial({2: 1}), ((0, 1), (1, 1))),
    ])
    for s in (1, -1):
        conj = ops.conjugate_shift(op, s)
        assert conj.order == 3 and conj.den == 3
        for m in ops.basis_monomials(4, 4):
            p = Poly.term(m, 1)
            sandwiched = _exp_t0(8, -s) * ops.apply(op, _exp_t0(8, s) * p)
            assert _t0_free_slice(sandwiched) == ops.apply(conj, p)
    assert ops.apply(ops.conjugate_shift(op, 1), Poly.one()) == P(({1: 1}, Fraction(1, 3)))


def test_homogeneity_of_application():
    # W1' maps the degree-w component into degree w+2 exactly
    p = P(({1: 2}, 1), ({3: 1, 1: 1}, 2))
    img = ops.apply(W1P, p)
    degs = {m.degree for m in img.terms}
    assert degs <= {4, 6}


def test_globally_flipped_sign_convention_breaks_the_bracket():
    # both signs of L_i appear in print; under the global flip the bracket
    # constant changes sign, so only one convention satisfies
    # [L_i, L_j] = (i - j) L_{i+j}; this pins the implemented one
    li = ops.scaled(ops.virasoro_l(0), -1)
    lj = ops.scaled(ops.virasoro_l(1), -1)
    expect = ops.scaled(ops.virasoro_l(1), -1)
    res = ops.commutator_check(li, lj, expect, 0 - 1, 4, 4)
    assert res  # nonzero residuals: the flipped convention is inconsistent
    assert not ops.commutator_check(
        ops.virasoro_l(0), ops.virasoro_l(1), ops.virasoro_l(1), -1, 4, 4
    )


# ---------------------------------------------------------------------------
# the memoized commutator check against five applications per monomial
# ---------------------------------------------------------------------------


def _reference_commutator_check(a, b, expect, scale, deg_cap, var_cap, t0_cap=2):
    """(a b - b a - scale*expect) on each basis monomial, by ``apply``."""
    scale = Fraction(scale)
    residuals = []
    for m in ops.basis_monomials(deg_cap, var_cap, t0_cap):
        p = Poly.term(m, 1)
        lhs = ops.apply(a, ops.apply(b, p)) - ops.apply(b, ops.apply(a, p))
        if expect is not None and scale != 0:
            lhs = lhs - ops.apply(expect, p).scale(scale)
        if not lhs.is_zero():
            residuals.append((m, lhs))
    return residuals


def _growing_den_op():
    """An operator whose denominators grow with the derivative (1/(i+1) on
    d_i, 1/2^k on d_0^k) and whose t0 d_1 term raises t0, so the other
    operator of a check meets a higher t0 than the basis has."""
    return ops.from_terms("G", [
        ops.DiffTerm(Fraction(1), Monomial({0: 1}), ((1, 1),)),
        *(ops.DiffTerm(Fraction(1, i + 1), Monomial({i + 1: 1}), ((i, 1),)) for i in range(1, 13)),
        *(ops.DiffTerm(Fraction(1, 2**k), Monomial({1: 1}), ((0, k),)) for k in range(1, 7)),
    ])


L = ops.virasoro_l
WRONG_BRACKETS = {
    "[L-1,L2] at scale -2": lambda: (L(-1), L(2), L(1), -2),
    "[L0,L2] without expectation": lambda: (L(0), L(2), None, 0),
    "[W0,W1] against W1 at 1/3": lambda: (ops.w0(), ops.w1(), ops.w1(), Fraction(1, 3)),
    "[W1',W0'] with marker against P+ at -5/7": lambda: (
        ops.w1_reduced(marker=True), ops.w0_reduced(marker=True), ops.p_plus(),
        Fraction(-5, 7),
    ),
    "[P+,P-]": lambda: (ops.p_plus(), ops.p_minus(), None, 0),
    "[L0/2,L1] against L1 at -1": lambda: (ops.scaled(L(0), Fraction(1, 2)), L(1), L(1), -1),
    "[G,W1] with a growing den": lambda: (_growing_den_op(), ops.w1(), None, 0),
    "[L1,G] against G at 2/3": lambda: (L(1), _growing_den_op(), _growing_den_op(), Fraction(2, 3)),
}
PASSING_BRACKETS = {
    **{
        f"[L{i},L{j}]": (lambda i=i, j=j: (L(i), L(j), L(i + j) if i != j else None, i - j))
        for i in range(-1, 4)
        for j in range(i, 4)
    },
    "[W0,W1]": lambda: (ops.w0(), ops.w1(), None, 0),
    "[W0',W1'] with marker": lambda: (
        ops.w0_reduced(marker=True), ops.w1_reduced(marker=True), None, 0
    ),
}


def _as_text(residuals):
    return [(m.as_str(), p.as_str()) for m, p in residuals]


def _cold(args):
    """The operators of ``args`` copied into new ``DiffOp`` objects around
    the same coefficient functions, which start with no groups and no
    images."""
    return tuple(fresh_op(a) if isinstance(a, ops.DiffOp) else a for a in args)


@pytest.mark.parametrize("name", [*WRONG_BRACKETS, *PASSING_BRACKETS])
def test_commutator_check_matches_five_apply_reference(name, monkeypatch):
    make = WRONG_BRACKETS.get(name) or PASSING_BRACKETS[name]
    want = _reference_commutator_check(*make(), 6, 6)
    assert bool(want) == (name in WRONG_BRACKETS)

    def no_apply(*args, **kwargs):
        raise AssertionError("commutator_check called apply")

    # cold operators, so their groups and images start empty inside the check
    monkeypatch.setattr(ops, "apply", no_apply)
    got = ops.commutator_check(*_cold(make()), 6, 6)
    assert got == want
    assert _as_text(got) == _as_text(want)


def test_constructors_return_one_operator_per_argument_value():
    for make in (ops.w0, ops.w1, ops.p_plus, ops.p_minus, ops.constraint_c,
                 ops.w0_reduced, ops.w1_reduced):
        assert make() is make()
    assert ops.virasoro_l(3) is ops.virasoro_l(3) is not ops.virasoro_l(2)
    for make in (ops.w0_reduced, ops.w1_reduced):
        assert make(True) is make(marker=True) is not make(marker=False)
        assert make() is make(False)
    with pytest.raises(ValueError, match="i >= -1"):
        ops.virasoro_l(-2)


def test_second_check_on_warm_operators_adds_no_images():
    a, b, expect = _cold((L(0), L(2), L(2)))
    first = ops.commutator_check(a, b, expect, -2, 6, 6)
    sizes = [len(op._images) for op in (a, b, expect)]
    assert all(sizes)
    second = ops.commutator_check(a, b, expect, -2, 6, 6)
    assert [len(op._images) for op in (a, b, expect)] == sizes
    assert first == second == []
    # a wrong scale leaves residuals, the same on warm operators as on cold ones
    wrong = ops.commutator_check(a, b, expect, 3, 6, 6)
    assert [len(op._images) for op in (a, b, expect)] == sizes
    assert wrong and wrong == ops.commutator_check(*_cold((a, b, expect)), 3, 6, 6)


def test_small_then_large_deg_cap_on_one_operator():
    # images and groups memoized by a small check are reused by a larger one
    g, h = _growing_den_op(), _growing_den_op()
    args = (ops.w1(), Fraction(1, 3))
    for deg_cap, t0_cap in ((3, 1), (6, 3)):
        want = _reference_commutator_check(
            _growing_den_op(), _growing_den_op(), *args, deg_cap, deg_cap, t0_cap
        )
        assert want and ops.commutator_check(g, h, *args, deg_cap, deg_cap, t0_cap) == want


def test_commutator_check_on_operators_with_warm_tables():
    # groups already built by a small input are joined by new ones inside
    # the check: b raises t0, so a meets a higher t0 in the middle
    a, b = _growing_den_op(), _growing_den_op()
    for op in (a, b):
        ops.apply(op, P(({1: 1}, 1)))
    assert a._groups and b._groups
    args = (ops.w1(), 1, 5, 5, 3)
    want = _reference_commutator_check(_growing_den_op(), _growing_den_op(), *args)
    assert want and ops.commutator_check(a, b, *args) == want


@pytest.mark.parametrize("caps", [(-3, 12, 2), (4, -1, 2), (4, 4, -1)])
def test_negative_basis_caps_raise(caps):
    with pytest.raises(ValueError, match="basis caps must be >= 0"):
        ops.basis_monomials(*caps)
    with pytest.raises(ValueError, match="basis caps must be >= 0"):
        ops.commutator_check(ops.w0(), ops.w1(), None, 0, *caps)


# ---------------------------------------------------------------------------
# composition_residuals on chains of each length, and the cached basis
# ---------------------------------------------------------------------------


def _chain_reference(m, parts):
    """sum c * (o_1 ... o_k)(m) over ``parts``, by ``apply``; None if zero."""
    total = Poly()
    for c, chain in parts:
        p = Poly.term(m, 1)
        for op in reversed(chain):
            p = ops.apply(op, p)
        total = total + p.scale(c)
    return None if total.is_zero() else total


def _mixed_chains(length):
    """Parts of ``length`` operators mixing the dens 2 (W1), 3 (L0/3) and
    that of the growing-den operator, one of them with coefficient 0 around
    a cold operator that only it holds."""
    w, l0, g = ops.w1(), ops.scaled(L(0), Fraction(1, 3)), _growing_den_op()
    zero = fresh_op(ops.w0())
    chains = [(w, l0, g, l0), (g, w, l0, g), (l0, g, w, w)]
    coeffs = [Fraction(1), Fraction(-7, 4), Fraction(2, 3)]
    parts = [(c, chain[:length]) for c, chain in zip(coeffs, chains)]
    return parts + [(Fraction(0), (zero,) * length)], zero


# lengths 1 and 2 take the walk's short paths, 3 and 4 merge the terms
# between inner operators by id
@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_composition_residual_matches_apply_on_chains(length):
    parts, zero = _mixed_chains(length)
    basis = list(ops.basis_monomials(5, 5, 2))
    want = [(m, r) for m in basis if (r := _chain_reference(m, parts)) is not None]
    got = list(ops.composition_residuals(basis, parts))
    assert want and got == want
    assert _as_text(got) == _as_text(want)
    assert not zero._images


def _basis_reference(deg_cap, var_cap, t0_cap):
    """The basis by a fresh recursive enumeration, in the package's order."""

    def rec(max_part, budget, parts):
        for a in range(t0_cap + 1):
            yield Monomial({0: a, **Counter(parts)})
        for part in range(1, min(max_part, budget) + 1):
            yield from rec(part, budget - part, parts + [part])

    return list(rec(min(var_cap, deg_cap), deg_cap, []))


@pytest.mark.parametrize("caps", [(0, 0, 0), (4, 4, 2), (6, 3, 1), (5, 9, 0), (8, 8, 3)])
def test_cached_basis_repeats_the_fresh_enumeration(caps):
    want = _basis_reference(*caps)
    assert list(ops.basis_monomials(*caps)) == want
    assert list(ops.basis_monomials(*caps)) == want
    # two iterators over one window, taken at once, advance independently
    first, second = ops.basis_monomials(*caps), ops.basis_monomials(*caps)
    head = [next(first) for _ in range(min(3, len(want)))]
    assert list(second) == want
    assert head + list(first) == want


# ---------------------------------------------------------------------------
# the memoized pattern groups against the naive term-by-monomial loop
# ---------------------------------------------------------------------------

OPERATORS = {
    "w0": ops.w0,
    "w1": ops.w1,
    "p_plus": ops.p_plus,
    "p_minus": ops.p_minus,
    **{f"L{i}": (lambda i=i: ops.virasoro_l(i)) for i in range(-1, 7)},
    "C": ops.constraint_c,
    "w1 conjugated by 1": lambda: ops.conjugate_shift(ops.w1(), 1),
    "w1 reduced with marker": lambda: ops.w1_reduced(marker=True),
    "scaled w1": lambda: ops.scaled(ops.w1(), Fraction(-3, 2)),
    "K_2": lambda: opmatrix.assembled_operator(2, 8),
}


def _reference_apply(op, p):
    """Every term of every derivative pattern up to the degree and t0 power
    of ``p`` against every monomial of ``p``."""
    deg = max((m.degree for m in p.terms), default=0)
    t0 = max((m.exp(0) for m in p.terms), default=0)
    out = {}
    for pattern in ops.basis_monomials(deg, deg, t0):
        for mono, coeff in op.coeffs(pattern.exps).items():
            for m, c in p.terms.items():
                exps = dict(m.exps)
                fc = 1
                for i, e in pattern.exps:
                    have = exps.get(i, 0)
                    if have < e:
                        break
                    for k in range(e):
                        fc *= have - k
                    exps[i] = have - e
                else:
                    nm = Monomial(Counter(exps) + Counter(dict(mono.exps)))
                    out[nm] = out.get(nm, Fraction(0)) + c * fc * coeff
    return Poly(out)


_monomials = st.dictionaries(
    st.sampled_from([0, 1, 2, 3, 4, 5, 6, MARKER_NEG]), st.integers(1, 3), max_size=3
).filter(lambda d: Monomial(d).degree <= 9)
_polys = st.builds(
    parse_poly,
    st.lists(st.tuples(_monomials, st.fractions(max_denominator=4).filter(bool)), max_size=5),
)
# one instance per operator, shared by all examples, so its groups are
# built by inputs in arbitrary order
_SHARED = {}


@pytest.mark.parametrize("name", OPERATORS)
@given(p=_polys)
@settings(max_examples=25, deadline=None)
def test_apply_matches_reference_loop(name, p):
    op = _SHARED.setdefault(name, OPERATORS[name]())
    assert ops.apply(op, p) == _reference_apply(op, p)


@pytest.mark.parametrize("name", OPERATORS)
@given(exps=_monomials)
@example(exps={0: 2, MARKER_NEG: 1, 2: 1})
@settings(max_examples=25, deadline=None)
def test_image_matches_apply(name, exps):
    # the memoized id-keyed image of one monomial, over the operator's den,
    # is the flow's image of that monomial
    op = _SHARED.setdefault(name, OPERATORS[name]())
    m = Monomial(exps)
    ids, nums = op.image(ops._mono_id(m))
    assert all(ops._IDS[ops._MONOS[k].exps] == k for k in ids)
    got = Poly({ops._MONOS[k]: Fraction(n, op.den) for k, n in zip(ids, nums)})
    assert got == ops.apply(op, Poly({m: Fraction(1)}))


def _fresh(name):
    # a copy starts without groups, also for the cached assembled operator
    return fresh_op(OPERATORS[name]())


@pytest.mark.parametrize("name", OPERATORS)
def test_table_reuse_across_supports(name):
    high = P(({1: 2, 4: 1}, 3), ({0: 2, 2: 1}, Fraction(1, 2)), ({MARKER_NEG: 1, 3: 2}, -1))
    low = P(({1: 1}, 1), ({0: 1, 2: 1}, 2), ({}, 5))
    higher = P(({0: 3, 1: 1, 8: 1}, 1), ({5: 2}, Fraction(2, 3)), ({1: 1}, -4))
    op = OPERATORS[name]()
    for p in (high, low, higher):
        got = ops.apply(op, p)
        assert got == ops.apply(_fresh(name), p)
        assert got == _reference_apply(op, p)


def test_term_table_leaves_equality_and_hash_alone():
    # an operator's memoized pattern groups and monomial images change
    # neither its equality, its hash nor its repr
    w0 = ops.w0()
    a, b = ops.DiffOp("W0", 1, 1, w0.coeffs), ops.DiffOp("W0", 1, 1, w0.coeffs)
    before = hash(a)
    ops.apply(a, P(({1: 2}, 1)))
    assert a._groups and not b._groups
    assert not ops.commutator_check(a, a, None, 0, 3, 3) and a._images and not b._images
    assert a == b and hash(a) == before == hash(b) and repr(a) == "DiffOp(W0)"


# ---------------------------------------------------------------------------
# the contract of the coefficient functions, and each group built once
# ---------------------------------------------------------------------------

PATTERNS = list(ops.basis_monomials(8, 8, 3))


@pytest.mark.parametrize("name", OPERATORS)
def test_coefficients_vanish_above_order_and_clear_den(name):
    op = _fresh(name)
    for pattern in PATTERNS:
        ders = pattern.exps
        got = op.coeffs(ders)
        if sum(e for _, e in ders) > op.order:
            assert not got, ders
        assert all((c * op.den).denominator == 1 for c in got.values()), ders


def test_coefficient_off_den_raises():
    bad = ops.DiffOp("B", 1, 2, lambda ders: {Monomial({1: 1}): Fraction(1, 3)})
    with pytest.raises(ValueError, match="not a multiple of 1/2"):
        ops.apply(bad, P(({1: 1}, 1)))


def _counting_copy(op, calls):
    """A cold copy of ``op`` whose coefficient function counts its calls
    per (operator name, pattern)."""

    def coeffs(ders):
        calls[op.name, ders] += 1
        return op.coeffs(ders)

    return fresh_op(op, coeffs)


@pytest.mark.parametrize("flow, names", [
    (lambda: pt.partition_function(6, True), {"W1'"}),
    (lambda: pt.partition_function_bivalent(3, 3), {"W0'", "W1'"}),
], ids=["Z to d=6 with marker", "bivalent Z to (3,3)"])
def test_cold_flow_evaluates_each_group_once(flow, names, monkeypatch):
    # every layer of a flow has a higher degree than the last; its operator
    # still evaluates each pattern's coefficient once over the whole flow
    calls = Counter()
    for make in ("w0_reduced", "w1_reduced"):
        made = getattr(ops, make)
        monkeypatch.setattr(ops, make, lambda marker, made=made: _counting_copy(made(marker), calls))
    flow()
    assert {name for name, _ in calls} == names
    assert len(calls) > 10 and set(calls.values()) == {1}
