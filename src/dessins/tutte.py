r"""Memoized Tutte-style recursions for weighted dessin counts.

``r_tilde(g, n, alpha)`` evaluates the three-term recursion for the
edge-weighted connected counts R~_{g,n}(alpha) = prod(alpha_i) * R_{g,n}(alpha):

    R~_{g,n}(a1, rest) =
        sum_{i in rest} a_i R~_{g,n-1}(a1 + a_i - 2, rest \ {a_i})
      + sum_{k+l=a1-2} [ R~_{g-1,n+1}(k, l, rest)
                        + sum_{ordered (g1,I1),(g2,I2)} R~(k, I1) R~(l, I2) ]

with the single formal seed R~_{0,1}(0) = 1.  Any other key containing a
zero entry evaluates to 0: a boundary of an actual graph has positive
perimeter.  The splitting sum is over ordered pairs (no 1/2) and the
zero-policy silently removes the unstable pieces; this normalization is
pinned by exact agreement with the partition-function route and the
brute-force oracle.

``r_tilde_nc(mu, d)`` is the non-connected, partition-indexed variant:
mu!\,[t^mu q^d] of the full (non-connected) partition function.  Parts of
size 0 correspond to cylinder components and can be stripped freely.

Both recursions only add and multiply integers from the seed 1, so they
return ``int``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

Partition = Tuple[int, ...]  # sorted parts, multiplicities expanded


def _subsets(items: Tuple[int, ...]):
    """All 2^n (subset, complement) pairs of positions."""
    n = len(items)
    for mask in range(1 << n):
        a = tuple(items[i] for i in range(n) if mask >> i & 1)
        b = tuple(items[i] for i in range(n) if not mask >> i & 1)
        yield a, b


@lru_cache(maxsize=None)
def r_tilde(g: int, n: int, alpha: Partition) -> int:
    alpha = tuple(sorted(alpha))
    if g < 0 or n < 1 or len(alpha) != n or any(a < 0 for a in alpha):
        return 0
    if (g, alpha) == (0, (0,)):
        return 1
    if 0 in alpha:
        return 0
    if sum(alpha) % 2:
        return 0
    # a genus-g surface with n positive boundaries has d = 2g - 2 + n + n-
    # vertices with n- >= 1 and sum(alpha) = 2d edges; without this bound the
    # splitting sum would walk every genus below g
    if sum(alpha) // 2 < 2 * g - 1 + n:
        return 0
    # recurse on the largest entry; the value is symmetric in alpha
    a1 = alpha[-1]
    rest = alpha[:-1]
    total = 0
    for i, ai in enumerate(rest):
        merged = tuple(sorted((a1 + ai - 2,) + rest[:i] + rest[i + 1 :]))
        total += ai * r_tilde(g, n - 1, merged)
    for k in range(0, a1 - 1):
        l = a1 - 2 - k
        total += r_tilde(g - 1, n + 1, tuple(sorted((k, l) + rest)))
        for i1, i2 in _subsets(rest):
            for g1 in range(g + 1):
                t1 = r_tilde(g1, len(i1) + 1, tuple(sorted((k,) + i1)))
                if t1:
                    total += t1 * r_tilde(g - g1, len(i2) + 1, tuple(sorted((l,) + i2)))
    return total


def _strip_zeros(mu: Partition) -> Partition:
    return tuple(a for a in mu if a > 0)


@lru_cache(maxsize=None)
def _r_nc(mu: Partition) -> int:
    """Non-connected R~(mu), mu sorted, no zero parts."""
    if not mu:
        return 1
    if sum(mu) % 2:
        return 0
    i = mu[-1]
    lam = mu[:-1]  # mu - delta_i

    def lam_count(j):
        return sum(1 for a in lam if a == j)

    total = 0
    seen = set()
    for j in lam:
        if j in seen or j < 1:
            continue
        seen.add(j)
        merged = list(lam)
        merged.remove(j)
        if i + j - 2 > 0:
            merged.append(i + j - 2)
        total += j * lam_count(j) * _r_nc(tuple(sorted(merged)))
    for k in range(0, i - 1):
        l = i - 2 - k
        total += _r_nc(_strip_zeros(tuple(sorted(lam + (k, l)))))
    return total


def r_tilde_nc(mu: Sequence[int], d: int) -> int:
    """mu! [t^mu q^d] of the non-connected partition function.

    ``mu`` is the parts of a partition; zero whenever sum(mu) != 2d.
    """
    if any(p < 0 for p in mu) or d < 0:
        return 0
    parts = tuple(sorted(p for p in mu if p > 0))
    if sum(parts) != 2 * d:
        return 0
    return _r_nc(parts)

