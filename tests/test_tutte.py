import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial

from hypothesis import given, settings
from hypothesis import strategies as st

from dessins import partition as pt
from dessins import tutte
from dessins.series import mu_factorial, sorted_multi
from helpers import catalan


def test_seed_and_disc_values():
    assert tutte.r_tilde(0, 1, (0,)) == 1
    assert tutte.r_tilde(0, 1, (4,)) == 2
    assert tutte.r_tilde(0, 1, (3,)) == 0
    assert [tutte.r_tilde(0, 1, (2 * k,)) for k in range(7)] == [
        catalan(k) for k in range(7)
    ]


def test_zero_perimeter_policy():
    assert tutte.r_tilde(0, 2, (0, 2)) == 0
    assert tutte.r_tilde(1, 1, (0,)) == 0


def test_parity_vanishing():
    for alpha in [(1,), (1, 2), (3, 2, 2), (5,)]:
        for g in range(3):
            assert tutte.r_tilde(g, len(alpha), alpha) == 0


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_symmetry_under_permutation(alpha):
    alpha = tuple(alpha)
    vals = {tutte.r_tilde(1, len(alpha), p) for p in itertools.permutations(alpha)}
    assert len(vals) == 1


def test_nc_examples():
    assert tutte.r_tilde_nc((), 0) == 1
    assert tutte.r_tilde_nc((4,), 2) == 3
    # non-connected value: connected 2 plus the split pair 1
    assert tutte.r_tilde_nc((2, 2), 2) == 3
    assert tutte.r_tilde_nc((2,), 2) == 0  # wrong degree
    assert tutte.r_tilde_nc((3,), 2) == 0  # parity


def test_nc_zero_parts_are_cylinders():
    assert tutte.r_tilde_nc([0, 0, 4], 2) == tutte.r_tilde_nc([4], 2)


def test_nc_matches_partition_layers():
    z = pt.partition_function(4)
    for d in range(5):
        for mono, coeff in z.layer(d).terms.items():
            parts = mono.partition()
            mu_fact = 1
            for v in set(parts):
                mu_fact *= factorial(parts.count(v))
            assert tutte.r_tilde_nc(parts, d) == coeff * mu_fact


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def test_nc_equals_exponential_formula_over_set_partitions():
    # mu! [t^mu] exp(c) expanded by hand: sum over set partitions of the
    # slots of mu into connected blocks, each block summed over genus
    for parts in [(2, 2), (1, 1, 2), (4, 2), (1, 1, 1, 1), (2, 2, 2)]:
        d = sum(parts) // 2
        want = tutte.r_tilde_nc(parts, d)
        total = Fraction(0)
        for sp in _set_partitions(list(range(len(parts)))):
            prod = Fraction(1)
            for block in sp:
                alpha = tuple(sorted(parts[i] for i in block))
                block_sum = sum(
                    (tutte.r_tilde(g, len(alpha), alpha) for g in range(d + 1)),
                    Fraction(0),
                )
                prod *= block_sum
            total += prod
        assert total == want


def test_route_agreement_with_partition_counts():
    c = pt.connected(pt.partition_function(4, with_marker=True))
    for total in range(2, 9, 2):
        d = total // 2
        for n in range(1, total + 1):
            for alpha in _sorted_partitions(total, n):
                for n_minus in range(1, d + 2):
                    g2 = d + 2 - n - n_minus
                    if g2 < 0 or g2 % 2:
                        continue
                    g = g2 // 2
                    prod = 1
                    for a in alpha:
                        prod *= a
                    assert tutte.r_tilde(g, n, alpha) == prod * pt.count(
                        c, pt.CountKey(g, n, n_minus, alpha)
                    )


def _sorted_partitions(total, n):
    def rec(tot, k, lo):
        if k == 0:
            if tot == 0:
                yield ()
            return
        for v in range(lo, tot // k + 1):
            for rest in rec(tot - v, k - 1, v):
                yield (v,) + rest

    yield from rec(total, n, 1)


def test_shared_enumerator_and_mu_factorial_match_reference():
    for total in range(1, 11):
        for n in range(1, total + 1):
            ref = list(_sorted_partitions(total, n))
            assert list(sorted_multi(total, n, 1)) == ref
            for alpha in ref:
                mu_fact = 1
                for v in set(alpha):
                    mu_fact *= factorial(alpha.count(v))
                assert mu_factorial(alpha) == mu_fact


@lru_cache(maxsize=None)
def _unbounded_r_tilde(g, n, alpha):
    """The recursion without the early zero for a genus too large for
    sum(alpha): the splitting sum walks every genus up to g."""
    alpha = tuple(sorted(alpha))
    if g < 0 or n < 1 or len(alpha) != n or any(a < 0 for a in alpha):
        return 0
    if (g, alpha) == (0, (0,)):
        return 1
    if 0 in alpha or sum(alpha) % 2:
        return 0
    a1, rest = alpha[-1], alpha[:-1]
    total = 0
    for i, ai in enumerate(rest):
        total += ai * _unbounded_r_tilde(g, n - 1, (a1 + ai - 2,) + rest[:i] + rest[i + 1:])
    for k in range(0, a1 - 1):
        l = a1 - 2 - k
        total += _unbounded_r_tilde(g - 1, n + 1, (k, l) + rest)
        for mask in range(1 << len(rest)):
            i1 = tuple(a for j, a in enumerate(rest) if mask >> j & 1)
            i2 = tuple(a for j, a in enumerate(rest) if not mask >> j & 1)
            for g1 in range(g + 1):
                total += (_unbounded_r_tilde(g1, len(i1) + 1, (k,) + i1)
                          * _unbounded_r_tilde(g - g1, len(i2) + 1, (l,) + i2))
    return total


def test_genus_bound_keeps_every_value():
    # every key with sum(alpha) <= 14 and g <= 4, odd sums included
    nonzero = 0
    for total in range(1, 15):
        for n in range(1, total + 1):
            for alpha in sorted_multi(total, n, 1):
                for g in range(5):
                    want = _unbounded_r_tilde(g, n, alpha)
                    assert tutte.r_tilde(g, n, alpha) == want, (g, alpha)
                    nonzero += bool(want)
    assert nonzero > 400


def test_genus_too_large_for_the_perimeters_is_zero_at_once():
    before = tutte.r_tilde.cache_info().currsize
    assert tutte.r_tilde(10**6, 1, (4,)) == 0
    assert tutte.r_tilde(2, 1, (4,)) == 0 and tutte.r_tilde(1, 1, (4,)) == 1
    assert tutte.r_tilde.cache_info().currsize <= before + 3
