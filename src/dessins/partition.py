r"""Partition function of the cut-and-join flow and exact count extraction.

Everything is stored t0-reduced: the vacuum exp(t0) is represented by the
constant layer 1, and the flow operators act in conjugated form.  A layer of
q-order d (quadrivalent) is a homogeneous polynomial of weighted degree 2d;
bivalent layers of bi-order (m, d) have degree 2d + m.

With the marker enabled, the modified vacuum exp(t- * t0) is used instead
and the power of the marker ``t-`` in a monomial records the number of
negative boundary components of the surfaces being counted.  The dictionary
between a coefficient of the *connected* series and an automorphism-weighted
count of dessins with labeled positive boundaries is::

    h_{g,n+,n-}(alpha) = mu_alpha! * [t^mu q^d t-^n-] log Z / prod(alpha_i)

with d = 2g - 2 + n+ + n- and sum(alpha) = 2d (+ m in the bivalent case).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm, prod
from typing import Dict, List, NamedTuple, Tuple

from . import operators as ops
from .series import MARKER_NEG, Monomial, Poly, accumulate_product, mu_factorial


class QSeries:
    """Layered series: ``layers[(m, d)]`` is the coefficient of q0^m q1^d.

    Quadrivalent-only series live on the m = 0 row.  ``connected`` records
    whether the layers are the logarithm (connected counts) already.
    Compared by value, and unhashable, since ``layers`` can change.
    """

    __slots__ = ("layers", "marker", "connected_form")

    def __init__(
        self, layers: Dict[Tuple[int, int], Poly], marker: bool = False,
        connected_form: bool = False,
    ):
        self.layers = layers
        self.marker = marker
        self.connected_form = connected_form

    def __eq__(self, other):
        if other.__class__ is not QSeries:
            return NotImplemented
        return (self.layers, self.marker, self.connected_form) == (
            other.layers, other.marker, other.connected_form)

    __hash__ = None

    def __repr__(self):
        return (f"QSeries(layers={self.layers!r}, marker={self.marker!r}, "
                f"connected_form={self.connected_form!r})")

    def layer(self, d: int, m: int = 0) -> Poly:
        return self.layers.get((m, d), Poly.zero())

    @property
    def d_max(self) -> int:
        return max((d for (_, d) in self.layers), default=-1)

    @property
    def m_max(self) -> int:
        return max((m for (m, _) in self.layers), default=-1)

    def items(self):
        return sorted(self.layers.items())


def partition_function(d_max: int, with_marker: bool = False) -> QSeries:
    """Layers of Z, computed by (d+1) Z_{d+1} = W1' Z_d, Z_0 = 1: the m = 0
    row of the bivalent series."""
    if d_max < 0:
        raise ValueError("d_max must be >= 0")
    return partition_function_bivalent(0, d_max, with_marker)


def _flow_step(op: ops.DiffOp, layer: Poly, k: int) -> Poly:
    """Layer k + 1 of a flow from layer k: op(layer) / (k + 1), with the
    division folded into the denominator of the image."""
    return ops._apply_divided(op, layer, k + 1)


def partition_function_bivalent(
    d0_max: int, d1_max: int, with_marker: bool = False, q1_first: bool = False
) -> QSeries:
    """Bi-graded layers satisfying both flows.

    The two flows commute; ``q1_first`` switches the order in which they are
    integrated, which must not change any layer.
    """
    if d0_max < 0 or d1_max < 0:
        raise ValueError("d0_max and d1_max must be >= 0")
    w0p = ops.w0_reduced(marker=with_marker)
    w1p = ops.w1_reduced(marker=with_marker)
    layers: Dict[Tuple[int, int], Poly] = {(0, 0): Poly.one()}
    if not q1_first:
        for m in range(d0_max):
            layers[(m + 1, 0)] = _flow_step(w0p, layers[(m, 0)], m)
        for m in range(d0_max + 1):
            for d in range(d1_max):
                layers[(m, d + 1)] = _flow_step(w1p, layers[(m, d)], d)
    else:
        for d in range(d1_max):
            layers[(0, d + 1)] = _flow_step(w1p, layers[(0, d)], d)
        for d in range(d1_max + 1):
            for m in range(d0_max):
                layers[(m + 1, d)] = _flow_step(w0p, layers[(m, d)], m)
    return QSeries(layers, marker=with_marker)


def connected(z: QSeries) -> QSeries:
    """Bi-graded logarithm F = log Z; layer (m, d) collects connected counts.

    With the weight w(m, d) = m + d, the Euler operator q0 d/dq0 + q1 d/dq1
    applied to Z = exp F gives w(k) Z_k = sum_{0 < j <= k} w(j) F_j Z_{k-j}
    componentwise, hence the recurrence

        F_k = Z_k - sum_{0 < j < k} (w(j) / w(k)) F_j Z_{k-j}

    over the rectangle m <= m_max, d <= d_max of ``z``: one product per pair
    (j, k - j).  Every F_j it reads has j < k componentwise, so the layers
    are filled in lexicographic order of (m, d).  Each layer is summed in
    integer numerators over one common denominator.
    """
    if z.layer(0, 0).constant_term() != 1 or len(z.layer(0, 0).terms) != 1:
        raise ValueError("layer (0,0) must equal 1")
    z_lift = {k: p.lifted() for k, p in z.layers.items() if k != (0, 0)}
    f: Dict[Tuple[int, int], Poly] = {}
    f_lift: Dict[Tuple[int, int], Tuple[Dict[Monomial, int], int]] = {}
    for k in itertools.product(range(z.m_max + 1), range(z.d_max + 1)):
        if k == (0, 0):
            continue
        w = sum(k)
        pairs = [(j, i) for j in f if (i := (k[0] - j[0], k[1] - j[1])) in z_lift]
        zk_nums, zk_den = z_lift.get(k, ({}, 1))
        # a multiple of den(Z_k) and of every w(k) den(F_j) den(Z_{k-j})
        den = lcm(zk_den, *(w * f_lift[j][1] * z_lift[i][1] for j, i in pairs))
        acc = {m: n * (den // zk_den) for m, n in zk_nums.items()}
        for j, i in pairs:
            (fj_nums, fj_den), (zi_nums, zi_den) = f_lift[j], z_lift[i]
            accumulate_product(acc, fj_nums, zi_nums, -sum(j) * (den // (w * fj_den * zi_den)))
        fk = Poly.from_numerators(acc, den)
        if not fk.is_zero():
            f[k] = fk
            f_lift[k] = fk.lifted()
    return QSeries(f, marker=z.marker, connected_form=True)


class CountKey(NamedTuple):
    g: int
    n_plus: int
    n_minus: int
    alpha: Tuple[int, ...]
    m: int = 0

    @property
    def euler_degree(self) -> int:
        return 2 * self.g - 2 + self.n_plus + self.n_minus

    def is_stable(self) -> bool:
        return self.euler_degree > 0 or (
            (self.g, self.n_plus, self.n_minus) == (0, 1, 1) and self.m >= 1
        )


def count(c: QSeries, key: CountKey) -> Fraction:
    """Automorphism-weighted dessin count with labeled positive boundaries.

    Returns 0 (not an error) for keys violating parity or stability.
    """
    if not c.connected_form:
        raise ValueError("count extracts from the connected series; apply connected() first")
    if not c.marker:
        raise ValueError("n_minus resolution needs the t- marker enabled")
    if key.g < 0 or key.n_minus < 1 or key.n_plus < 1 or key.m < 0:
        return Fraction(0)
    if len(key.alpha) != key.n_plus or any(a <= 0 for a in key.alpha):
        return Fraction(0)
    d = key.euler_degree
    if not key.is_stable():
        return Fraction(0)
    if sum(key.alpha) != 2 * d + key.m:
        return Fraction(0)
    if d > c.d_max or key.m > (c.m_max if c.m_max >= 0 else 0):
        raise ValueError(f"layer ({key.m},{d}) not computed")
    exps: Dict[object, int] = {MARKER_NEG: key.n_minus}
    for a in key.alpha:
        exps[a] = exps.get(a, 0) + 1
    coeff = c.layer(max(d, 0), key.m).coeff(Monomial(exps))
    return coeff * mu_factorial(key.alpha) / prod(key.alpha)


def integral_points_series(d_max: int, with_marker: bool = False) -> QSeries:
    """Diagonal specialization q0 = q1 = q of the bivalent series."""
    biv = partition_function_bivalent(d_max, d_max, with_marker=with_marker)
    layers: Dict[Tuple[int, int], Poly] = {}
    for n in range(d_max + 1):
        total = Poly.zero()
        for m in range(n + 1):
            total = total + biv.layer(n - m, m)
        layers[(0, n)] = total
    return QSeries(layers, marker=with_marker)


def virasoro_residuals(z: QSeries, i_max: int = 6) -> List[Tuple[int, int, Poly]]:
    """Apply the conjugated L_i to the q = 1 combination of layers, with the
    marker t- (if any) set to 1.

    Returns (i, degree, residual) triples for every nonzero residual in a
    degree that the mixed-grading bookkeeping guarantees exact: degree w is
    determined once layers (w + i + 2)/2 and (w + i)/2 are both available.
    """
    d_max = z.d_max
    total = Poly.zero()
    for (_, _), p in z.items():
        q = p
        if z.marker:
            q = _substitute_marker(p, MARKER_NEG, Fraction(1))
        total = total + q
    out = []
    for i in range(-1, i_max + 1):
        li = ops.conjugate_shift(ops.virasoro_l(i), 1)
        img = ops.apply(li, total)
        w_exact = 2 * d_max - i - 2
        for w in range(0, w_exact + 1):
            part = img.homogeneous_part(w)
            if not part.is_zero():
                out.append((i, w, part))
    return out


def _substitute_marker(p: Poly, name: str, value: Fraction) -> Poly:
    out: Dict[Monomial, Fraction] = {}
    for m, c in p.terms.items():
        e = m.exp(name)
        rest = Monomial({k: v for k, v in m.exps if k != name}) if e else m
        val = c * value**e
        out[rest] = out.get(rest, Fraction(0)) + val
    return Poly(out)
