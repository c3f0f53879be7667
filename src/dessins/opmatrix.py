r"""Matrix coefficients of the gluing operators from graph enumeration.

The operator attached to a connected directed surface of type (g, n+, n-)
acts on symmetric functions; on the multi-index basis e_alpha(L) =
prod L_i^{alpha_i}/alpha_i! its matrix is assembled from the enumerated
quadrivalent directed maps R of that type and their lattice-point counts:

    K[a+|a-] = prod(a+_i) * sum_R Pbar_R(a+ - a+(R) | a-) / (n-! #Aut(R))

so a nonzero entry forces d(a+) = d(a-) + 2 d_{g,n+,n-} (the lattice offset
a+(R) has degree 2 d).  The sum over R with both boundary labelings fixed is
a free sum over labeled structures divided by the centralizer order |Z(s0)|
of the canonical vertex rotation.  The structures come from the sign-pattern
walk of ``maps`` (+ on the even darts), walked once per degree d for all
its types: structures with the same face counts, edge incidences and
positive perimeters have the same lattice counts, so each is kept once with
its multiplicity (at d = 4, 570 distinct incidences among 33,888 connected
maps).  The centralizer carries the sign pattern onto each of the 2^d
patterns of the d vertices, so every count is scaled by 2^d.  For one
structure the lattice counts of all face sums at once are the coefficients
of the edge generating function

    sum_beta Pbar(beta+ | beta-) x^beta+ y^beta- = prod_e 1/(1 - x_{f+(e)} y_{f-(e)}),

expanded through total degree cap - 2d (entry sum 2(cap - 2d)) by
``maps.lattice_series``, the one lattice-point counter of the package, which
also gives the Norbury counts.  Each coefficient, times the multiplicity of
its structure, is added to the sorted key (sort(beta+ + a+(R)), sort(beta-)),
which counts every distinct ordering of both boundaries once; the sum over
all labelings counts it mu(a+)! mu(a-)! times, so with acc the accumulated
coefficients

    K[a+|a-] = prod(a+) mu(a+)! mu(a-)! 2^d acc[a+|a-] / (n-! |Z(s0)|).

The blocks of all types of degree j make the connected layer

    C_j = sum K^s[mu+|mu-] t^{mu+} d_{mu-} / mu+!

of the evolution operator.  Its degree-d layer K_d, disconnected surfaces
included, is the q^d part of K = exp(sum_j C_j q^j): normal-ordered symbols
multiply as commuting polynomials, so d K_d = sum_j j C_j K_{d-j}, and the
coefficient function of K_d is, pattern by pattern,

    coeffs_{K_d}(D) = sum_{j=1..d} (j/d) sum_{D1+D2=D} C_j(D1) K_{d-j}(D2).

Each K_d evaluates only the patterns a check meets, each once.  From them
the module verifies the cut-and-join equation d K_d = W1 K_{d-1} entrywise
and the vacuum layers, and checks the Gram adjointness between the
(g, n+, n-) and (g, n-, n+) blocks.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

from . import maps, operators as ops, partition as pt
from .series import Monomial, Poly, distinct_permutations, mu_factorial, sorted_multi

MultiIndex = Tuple[int, ...]


def euler_degree(g: int, n_plus: int, n_minus: int) -> int:
    return 2 * g - 2 + n_plus + n_minus


class KernelBlock(NamedTuple):
    g: int
    n_plus: int
    n_minus: int
    cap: int
    entries: Dict[Tuple[MultiIndex, MultiIndex], Fraction]

    def value(self, a_plus: Sequence[int], a_minus: Sequence[int]) -> Fraction:
        key = (tuple(sorted(a_plus)), tuple(sorted(a_minus)))
        return self.entries.get(key, Fraction(0))

    def partition_entries(self) -> Iterator[Tuple[MultiIndex, MultiIndex, Fraction]]:
        """(a+, a-, K[a+|a-] n-!/mu-!) for each entry: the value with the
        negative boundaries read in the partition basis instead of the
        labeled multi-index basis."""
        n_minus_fact = factorial(self.n_minus)
        for (a_plus, a_minus), val in self.entries.items():
            yield a_plus, a_minus, val * Fraction(n_minus_fact, mu_factorial(a_minus))

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "n_plus": self.n_plus,
            "n_minus": self.n_minus,
            "cap": self.cap,
            "entries": [
                {"alpha_plus": list(ap), "alpha_minus": list(am), "value": str(v)}
                for (ap, am), v in sorted(self.entries.items())
            ],
        }


@lru_cache(maxsize=None)
def _structures(d: int) -> Tuple[Tuple[tuple, int], ...]:
    """((n+, n-, sorted edges, positive perimeters), multiplicity) of each
    distinct connected quadrivalent structure with d vertices on the fixed
    sign pattern.  Faces are numbered positive first, then negative, each
    group by smallest dart; each edge borders the face of its even dart and
    the face of its odd dart."""
    valences = (4,) * d
    n = sum(valences)
    found: Dict[tuple, int] = {}
    for first_image in range(1, n, 2):
        for s1, face, first, perim in maps.sign_pattern_maps(valences, first_image):
            # a face is positive when its smallest dart is even
            order = [i for i, f in enumerate(first) if f % 2 == 0]
            n_pos = len(order)
            order += [i for i, f in enumerate(first) if f % 2]
            rank = [0] * len(order)
            for r, i in enumerate(order):
                rank[i] = r
            edges = tuple(sorted(
                ((rank[face[p]], 1), (rank[face[s1[p]]], 1)) for p in range(0, n, 2)
            ))
            key = (n_pos, len(order) - n_pos, edges, tuple(perim[i] for i in order[:n_pos]))
            found[key] = found.get(key, 0) + 1
    return tuple(found.items())


@lru_cache(maxsize=None)
def kernel_block(g: int, n_plus: int, n_minus: int, cap: int) -> KernelBlock:
    d = euler_degree(g, n_plus, n_minus)
    if d <= 0 or g < 0 or n_plus < 1 or n_minus < 1:
        raise ValueError("stability 2g - 2 + n+ + n- > 0 required")
    if cap < 2 * d:
        raise ValueError(
            f"--cap {cap} is below the minimal degree {2 * d} of the "
            f"({g},{n_plus},{n_minus}) block"
        )
    # (sorted a+, sorted a-) -> sum of Pbar over the structures and over the
    # distinct orderings of both boundaries
    acc: Dict[Tuple[MultiIndex, MultiIndex], int] = {}
    for (np_, nm, edges, perims), mult in _structures(d):
        if (np_, nm) != (n_plus, n_minus):
            continue
        series = maps.lattice_series(edges, n_plus + n_minus, 2 * (cap - 2 * d))
        for beta, c in series.items():
            a_plus = tuple(sorted(b + p for b, p in zip(beta, perims)))
            key = (a_plus, tuple(sorted(beta[n_plus:])))
            acc[key] = acc.get(key, 0) + c * mult
    scale = Fraction(1 << d, factorial(n_minus) * maps.centralizer_order((4,) * d))
    entries = {
        (ap, am): math.prod(ap) * mu_factorial(ap) * mu_factorial(am) * total * scale
        for (ap, am), total in sorted(acc.items())
    }
    return KernelBlock(g, n_plus, n_minus, cap, entries)


def stable_types(d: int) -> List[Tuple[int, int, int]]:
    """All (g, n+, n-) with 2g - 2 + n+ + n- = d."""
    out = []
    for g in range(d // 2 + 1):
        for n_plus in range(1, d + 2 - 2 * g):
            n_minus = d + 2 - 2 * g - n_plus
            if n_minus >= 1:
                out.append((g, n_plus, n_minus))
    return out


def _block_diffterms(block: KernelBlock) -> List[ops.DiffTerm]:
    """Terms K^part[mu+|mu-]/mu+!  t^{mu+} d_{mu-} of one connected block."""
    return [
        ops.DiffTerm(
            part_entry / mu_factorial(a_plus),
            Monomial(Counter(a_plus)),
            tuple(sorted(Counter(a_minus).items())),
        )
        for a_plus, a_minus, part_entry in block.partition_entries()
    ]


@lru_cache(maxsize=None)
def assembled_operator(d: int, cap: int) -> ops.DiffOp:
    """The q^d layer K_d of the evolution operator, disconnected surfaces
    included, from enumeration data only (see the module docstring)."""
    if d == 0:
        return ops.from_terms("K_0", [ops.DiffTerm(Fraction(1), Monomial({}), ())])
    # (j/d, C_j, K_{d-j}); the lower layers come through ``_assembled``, not
    # the module attribute, so replacing that changes only the layers it returns
    steps = [
        (Fraction(j, d), ops.from_terms(f"C_{j}", [
            t for g, np_, nm in stable_types(j)
            for t in _block_diffterms(kernel_block(g, np_, nm, cap))
        ]), _assembled(d - j, cap))
        for j in range(1, d + 1)
    ]

    @lru_cache(maxsize=None)
    def coeffs(ders: ops.Ders) -> ops.Coeffs:
        out: ops.Coeffs = {}
        for split in itertools.product(*(range(e + 1) for _, e in ders)):
            ders1 = tuple((i, a) for (i, _), a in zip(ders, split) if a)
            ders2 = tuple((i, e - a) for (i, e), a in zip(ders, split) if e - a)
            for w, c_j, k_rest in steps:
                part1 = c_j.coeffs(ders1)
                if not part1:
                    continue
                for m2, c2 in k_rest.coeffs(ders2).items():
                    for m1, c1 in part1.items():
                        m = m1.mul(m2)
                        out[m] = out.get(m, 0) + w * c1 * c2
        return {m: c for m, c in out.items() if c}

    order = max(c_j.order + k_rest.order for _, c_j, k_rest in steps)
    den = math.lcm(*(d * c_j.den * k_rest.den for _, c_j, k_rest in steps))
    return ops.DiffOp(f"K_{d}", order, den, coeffs)


_assembled = assembled_operator


def cutjoin_matrix_check(d_max: int, cap: int, deg_cap: int = 4, t0_cap: int = 4) -> List[str]:
    """Residuals of d K_d = (W1 K_{d-1}) on basis monomials (expected none)."""
    w1 = ops.w1()
    k = [assembled_operator(d, cap) for d in range(d_max + 1)]
    findings = []
    for d in range(1, d_max + 1):
        deg = min(deg_cap, cap - 2 * d)
        parts = [(Fraction(d), (k[d],)), (Fraction(-1), (w1, k[d - 1]))]
        basis = ops.basis_monomials(deg, deg_cap, t0_cap)
        for m, diff in ops.composition_residuals(basis, parts):
            findings.append(f"d={d} monomial {m.as_str()}: residual {diff.as_str()}")
    return findings


def vacuum_consistency_check(d_max: int, cap: int) -> List[str]:
    """Assembled operator applied to the reduced vacuum must reproduce the
    partition-function layers."""
    findings = []
    z = pt.partition_function(d_max)
    for d in range(d_max + 1):
        op = ops.conjugate_shift(assembled_operator(d, cap), 1)
        got = ops.apply(op, Poly.one())
        want = z.layer(d)
        if got != want:
            findings.append(
                f"layer {d}: operator route {got.as_str()} vs flow route {want.as_str()}"
            )
    return findings


# ---------------------------------------------------------------------------
# adjointness with respect to the exponential-weight pairing
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _gram(mu1: MultiIndex, mu2: MultiIndex) -> Fraction:
    """(e_mu1, e_mu2) under (f, g) = (1/n!) int f g exp(-|x|) dx on R+^n."""
    n = len(mu1)
    assert len(mu2) == n
    total = Fraction(0)
    for a in distinct_permutations(mu1):
        for b in distinct_permutations(mu2):
            prod = Fraction(1)
            for ai, bi in zip(a, b):
                prod *= Fraction(factorial(ai + bi), factorial(ai) * factorial(bi))
            total += prod
    return total / factorial(n)


def _v_matrix(block: KernelBlock) -> Dict[Tuple[MultiIndex, MultiIndex], Fraction]:
    """Partition-basis matrix of the kernel with the boundary-length
    prefactor removed: V e_{mu-} = sum_nu V[nu|mu-] e_nu."""
    out: Dict[Tuple[MultiIndex, MultiIndex], Fraction] = {}
    for a_plus, a_minus, part_entry in block.partition_entries():
        nu = tuple(sorted(a - 1 for a in a_plus))
        key = (nu, a_minus)
        out[key] = out.get(key, Fraction(0)) + part_entry / math.prod(a_plus)
    return out


def adjoint_check(g: int, n_plus: int, n_minus: int, cap: int) -> List[str]:
    """Verify (f, V_{g,n+,n-} h) = (V_{g,n-,n+} f, h) on the partition basis."""
    d = euler_degree(g, n_plus, n_minus)
    if cap < 2 * d:
        return []
    fwd = _v_matrix(kernel_block(g, n_plus, n_minus, cap))
    bwd = _v_matrix(kernel_block(g, n_minus, n_plus, cap))
    findings = []
    in_cap = cap - 2 * d
    for dp in range(in_cap + 1):
        for mu_p in sorted_multi(dp, n_plus, minimum=0):
            for dm in range(in_cap + 1):
                for mu_m in sorted_multi(dm, n_minus, minimum=0):
                    lhs = Fraction(0)
                    for (nu, src), v in fwd.items():
                        if src == mu_m:
                            lhs += _gram(mu_p, nu) * v
                    rhs = Fraction(0)
                    for (rho, src), v in bwd.items():
                        if src == mu_p:
                            rhs += _gram(mu_m, rho) * v
                    if lhs != rhs:
                        findings.append(f"mu+={mu_p} mu-={mu_m}: {lhs} != {rhs}")
    return findings
