r"""Brute-force enumeration of connected ribbon graphs as permutation data.

A combinatorial map on darts 0..N-1 is a pair (s0, s1): s0 is the vertex
rotation (cycle type = the vertex valences), s1 the fixed-point-free edge
involution.  Faces are the orbits of (s0 s1)^-1.  A *direction* is a dart
sign map with eps(s0 d) = -eps(d) and eps(s1 d) = -eps(d); it exists iff the
dual is bipartite, is constant on faces, and on a connected map is unique up
to the global flip.

Every walk here is a walk over connected maps: all of them share one step,
``_connected_maps``, which keeps the s1 for which <s0, s1> is transitive and
labels its faces.  Transitivity is tested on the vertex graph, not on the
darts: its vertices are the s0 cycles and each dart d joins the cycle of d
to the cycle of s1[d].  The face labelling is one pass over the darts: the
face index of every dart, and each face's smallest dart and perimeter, the
faces numbered by their smallest dart.  The count tables, the kernel
structures and the Norbury cells read only these labels; the dump alone
lists each face's darts in cycle order, with ``face_orbits``.  A connected
map with Euler characteristic chi has genus (2 - chi)/2.

Counting convention: automorphism-weighted counts sum 1/#Aut over
isomorphism classes.  They are computed without ever listing automorphisms,
via orbit counting: fix s0 as the canonical representative of its cycle
type, enumerate the remaining data freely, and divide by the centralizer
order of s0.  Automorphisms fix each labeled positive boundary and may
permute unlabeled negative boundaries, which is exactly what enumerating
positive-face labelings realizes.

The count tables never enumerate all N!! involutions.  A direction
alternates around every vertex cycle, so each even-valence vertex carries
one of two sign patterns, 2^v in all.  The centralizer of s0 acts
transitively on them (rotating one vertex cycle by one step flips that
vertex's pattern) and preserves genus, face perimeters and face signs.  So
the tables fix one pattern (+ on even cycle positions), let s1 range over the
(N/2)! bijections from the + darts to the - darts, each of which is a
direction by construction, and multiply every count by 2^v.  That one
walk, ``sign_pattern_maps``, feeds both the count tables here and the kernel
structures of ``opmatrix``.

Lattice points of metric ribbon graphs (integer edge lengths with
prescribed face perimeters) are counted in one place, ``lattice_series``,
which reads every face-sum vector at once off the edge generating function.
It gives both the kernel blocks of ``opmatrix`` (lengths >= 0) and the
Norbury counts here (lengths >= 1).

This module is the ground truth the operator routes are tested against; it
must stay independent of them, so it shares no code with the Fock-space
side.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

Perm = Tuple[int, ...]


def canonical_s0(valences: Sequence[int]) -> Perm:
    """Representative of the cycle type: consecutive cycles 0..v1-1, ..."""
    n = sum(valences)
    s0 = list(range(n))
    start = 0
    for v in valences:
        for i in range(v):
            s0[start + i] = start + (i + 1) % v
        start += v
    return tuple(s0)


def centralizer_order(valences: Sequence[int]) -> int:
    """|Z(s0)| in S_N for cycle type ``valences``."""
    out = 1
    for v in set(valences):
        m = list(valences).count(v)
        out *= v**m * factorial(m)
    return out


def fpf_involutions(n: int) -> Iterator[Perm]:
    """All fixed-point-free involutions of range(n); n must be even."""
    if n % 2:
        return
    pairing = [-1] * n

    def rec(a: int) -> Iterator[Perm]:
        while a < n and pairing[a] >= 0:
            a += 1
        if a == n:
            yield tuple(pairing)
            return
        for b in range(a + 1, n):
            if pairing[b] < 0:
                pairing[a], pairing[b] = b, a
                yield from rec(a + 1)
                pairing[b] = -1
        pairing[a] = -1

    yield from rec(0)


def orbits(perm: Perm) -> List[Tuple[int, ...]]:
    n = len(perm)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        cyc = []
        d = start
        while not seen[d]:
            seen[d] = True
            cyc.append(d)
            d = perm[d]
        out.append(tuple(cyc))
    return out


def direction_coloring(s0: Perm, s1: Perm) -> Optional[List[int]]:
    """A sign map with eps(s0 d) = eps(s1 d) = -eps(d), or None.

    The coloring starts from eps(0) = +1, so on a connected map it is the
    only one besides its global flip.
    """
    eps = [0] * len(s0)
    eps[0] = 1
    stack = [0]
    while stack:
        d = stack.pop()
        for e in (s0[d], s1[d]):
            want = -eps[d]
            if eps[e] == 0:
                eps[e] = want
                stack.append(e)
            elif eps[e] != want:
                return None
    return eps


def face_orbits(s0: Perm, s1: Perm) -> List[Tuple[int, ...]]:
    """Orbits of the face permutation (the inverse of d -> s0(s1(d)))."""
    n = len(s0)
    p = tuple(s0[s1[d]] for d in range(n))
    return orbits(p)


# one connected map: (s1, face index per dart, smallest dart per face,
# perimeter per face)
LabelledMap = Tuple[Sequence[int], List[int], List[int], List[int]]


def _connected_maps(s0: Perm, involutions: Iterable[Sequence[int]]) -> Iterator[LabelledMap]:
    """(s1, face, first, perim) for each s1 of ``involutions`` with <s0, s1>
    transitive.

    The vertices reached from the s0 cycle of dart 0 grow, one bit per
    cycle, until nothing new is added; s1 is kept when they are all reached.
    Its faces are then labelled in one pass over the darts: dart d lies on
    face ``face[d]``, and face i has smallest dart ``first[i]`` and
    ``perim[i]`` darts.  Faces are numbered by their smallest dart, the
    order of ``face_orbits``.
    """
    n = len(s0)
    cycles = orbits(s0)
    bit = [0] * n
    for i, cyc in enumerate(cycles):
        for d in cyc:
            bit[d] = 1 << i
    every = (1 << len(cycles)) - 1
    vertices = [(1 << i, cyc) for i, cyc in enumerate(cycles)]
    for s1 in involutions:
        reached, grown = 1, 0
        while grown != reached:
            grown = reached
            for b, cyc in vertices:
                if b & reached:
                    for d in cyc:
                        reached |= bit[s1[d]]
        if reached != every:
            continue
        face = [-1] * n
        first: List[int] = []
        perim: List[int] = []
        for start in range(n):
            if face[start] < 0:
                i = len(first)
                first.append(start)
                d, k = start, 0
                while face[d] < 0:
                    face[d] = i
                    d = s0[s1[d]]
                    k += 1
                perim.append(k)
        yield s1, face, first, perim


class DirectedMap(NamedTuple):
    """A connected directed map with its face data."""

    s0: Perm
    s1: Perm
    eps: Tuple[int, ...]
    faces: Tuple[Tuple[int, ...], ...]
    face_sign: Tuple[int, ...]
    genus: int

    @property
    def pos_perims(self) -> Tuple[int, ...]:
        return tuple(sorted(len(f) for f, s in zip(self.faces, self.face_sign) if s > 0))

    @property
    def n_minus(self) -> int:
        return sum(1 for s in self.face_sign if s < 0)


def directed_maps(valences: Sequence[int]) -> Iterator[DirectedMap]:
    """All connected directed maps with the given vertex valences, s0 canonical.

    Each consistent underlying map is emitted once per direction, its
    coloring from dart 0 and then the global flip, so weighted counts are
    sums over the results divided by the centralizer order of s0.
    """
    n = sum(valences)
    if n == 0:
        return
    s0 = canonical_s0(valences)
    for s1, _face, _first, _perim in _connected_maps(s0, fpf_involutions(n)):
        eps = direction_coloring(s0, s1)
        if eps is None:
            continue
        faces = face_orbits(s0, s1)
        sign = [eps[f[0]] for f in faces]
        if any(eps[d] != s for f, s in zip(faces, sign) for d in f):
            raise AssertionError("direction not constant on a face")
        genus = (2 - len(valences) + n // 2 - len(faces)) // 2
        for flip in (1, -1):
            yield DirectedMap(
                s0, s1, tuple(flip * e for e in eps), tuple(faces),
                tuple(flip * s for s in sign), genus,
            )


class EnumSpec(NamedTuple):
    """A request for a weighted count of directed quadri/bivalent maps."""

    v4: int
    v2: int
    n_plus: int
    n_minus: int
    alpha: Tuple[int, ...]
    g: Optional[int] = None


# worker count for the parallel slice scan; set via configure_threads()
_SCAN_THREADS = 1

TableKey = Tuple[int, int, Tuple[int, ...]]


def configure_threads(threads: int) -> None:
    """Set the number of fork workers of the brute-force scan (at least 1)."""
    global _SCAN_THREADS
    if threads < 1:
        raise ValueError(f"thread count must be >= 1, got {threads}")
    _SCAN_THREADS = threads


def sign_pattern_maps(valences: Sequence[int], first_image: int) -> Iterator[LabelledMap]:
    """Walk one slice of the connected directed maps on the fixed sign pattern.

    All valences are even, so every cycle of the canonical s0 starts at an
    even dart and the pattern with + on even cycle positions is + on the
    even darts.  ``s1`` pairs the even darts with the odd darts bijectively,
    so every map is directed by construction; the slice holds the
    bijections sending dart 0 to ``first_image``.  Yields the face labelling
    (s1, face, first, perim) of ``_connected_maps`` per connected map.
    ``s1`` is one list updated in place, valid until the next step.  A
    face's sign is the sign of any of its darts, so + when its smallest
    dart is even.
    """
    n = sum(valences)
    s1 = [0] * n
    s1[0], s1[first_image] = first_image, 0
    rest = [m for m in range(1, n, 2) if m != first_image]

    def bijections() -> Iterator[List[int]]:
        for images in itertools.permutations(rest):
            for p, m in zip(range(2, n, 2), images):
                s1[p] = m
                s1[m] = p
            yield s1

    yield from _connected_maps(canonical_s0(valences), bijections())


def _scan_slice(valences: Tuple[int, ...], first_image: int) -> Dict[TableKey, int]:
    """Count one slice of the sign-pattern walk.  Keys are (genus, n_minus,
    sorted positive perimeters); counts are per sign pattern."""
    n = sum(valences)
    n_vert = len(valences)
    table: Dict[TableKey, int] = {}
    for _s1, _face, first, perim in sign_pattern_maps(valences, first_image):
        pos_perims = tuple(sorted(k for d, k in zip(first, perim) if d % 2 == 0))
        chi = n_vert - n // 2 + len(perim)
        key = ((2 - chi) // 2, len(perim) - len(pos_perims), pos_perims)
        table[key] = table.get(key, 0) + 1
    return table


@lru_cache(maxsize=None)
def _dessin_table(v4: int, v2: int) -> Dict[TableKey, int]:
    """Connected directed-map counts keyed by (genus, n_minus, sorted
    positive perims).

    One slice per image of the first + dart (dart 0); the slice counts are
    summed and scaled by the 2^v sign patterns.  Independent of the worker
    count: the parallel path sums the same slice tables as the sequential one.
    """
    valences = (4,) * v4 + (2,) * v2
    n = sum(valences)
    if n == 0:
        return {}
    jobs = [(valences, m) for m in range(1, n, 2)]
    if _SCAN_THREADS > 1 and n >= 10:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(min(_SCAN_THREADS, len(jobs))) as pool:
            slices = pool.starmap(_scan_slice, jobs)
    else:
        slices = itertools.starmap(_scan_slice, jobs)
    patterns = 1 << len(valences)
    table: Dict[TableKey, int] = {}
    for part in slices:
        for k, c in part.items():
            table[k] = table.get(k, 0) + c * patterns
    return table


def _mu_factorial(alpha: Sequence[int]) -> int:
    """mu(alpha)!: the product of the factorials of the multiplicities of
    the entries of ``alpha``, the number of relabelings that fix it."""
    out = 1
    for v in set(alpha):
        out *= factorial(alpha.count(v))
    return out


def count_dessins(spec: EnumSpec) -> Fraction:
    """Sum of 1/#Aut over iso classes matching ``spec``.

    Positive boundaries are labeled with perimeters ``alpha``; negative
    boundaries are unlabeled; automorphisms fix each positive boundary.
    """
    if spec.v4 < 0 or spec.v2 < 0 or min(spec.alpha, default=1) <= 0:
        return Fraction(0)
    if sum(spec.alpha) != 2 * spec.v4 + spec.v2 or len(spec.alpha) != spec.n_plus:
        return Fraction(0)
    table = _dessin_table(spec.v4, spec.v2)
    perims = tuple(sorted(spec.alpha))
    total = 0
    for (g, n_minus, pp), cnt in table.items():
        if n_minus != spec.n_minus or pp != perims:
            continue
        if spec.g is not None and g != spec.g:
            continue
        total += cnt
    valences = (4,) * spec.v4 + (2,) * spec.v2
    return Fraction(total * _mu_factorial(spec.alpha), centralizer_order(valences))


# one edge of a ribbon graph: (face, multiplicity) pairs, ((f, 2),) for an
# edge that borders face f on both sides
Edge = Tuple[Tuple[int, int], ...]


def lattice_series(
    edges: Sequence[Edge], n_faces: int, top: int, min_length: int = 0
) -> Dict[Tuple[int, ...], int]:
    """Face-sum vector -> number of integer edge lengths >= ``min_length``
    with those face sums, for every vector with entry sum <= ``top``.

    These are the coefficients of prod_e x^(min_length inc(e)) / (1 - x^inc(e)),
    x^inc(e) = prod_f x_f^mult, expanded one edge at a time from the vector
    of the shortest lengths.
    """
    low = [0] * n_faces
    for edge in edges:
        for f, mult in edge:
            low[f] += min_length * mult
    series = {tuple(low): 1} if sum(low) <= top else {}
    for edge in edges:
        step = sum(mult for _, mult in edge)
        out = dict(series)
        for mono, c in series.items():
            m = list(mono)
            for _ in range((top - sum(mono)) // step):
                for f, mult in edge:
                    m[f] += mult
                key = tuple(m)
                out[key] = out.get(key, 0) + c
        series = out
    return series


# ---------------------------------------------------------------------------
# Norbury lattice counts for ordinary ribbon graphs
# ---------------------------------------------------------------------------

NORBURY_SUPPORTED = {(0, 3), (1, 1), (0, 4), (1, 2)}


def _valence_types(g: int, n: int) -> List[Tuple[int, ...]]:
    """Vertex-valence multisets (parts >= 3) of cells of M_{g,n}^comb."""

    def partitions(total, parts, mx):
        if parts == 0:
            if total == 0:
                yield ()
            return
        for p in range(min(total - 3 * (parts - 1), mx), 2, -1):
            for rest in partitions(total - p, parts - 1, p):
                yield (p,) + rest

    out = []
    e_max = 3 * (2 * g - 2 + n)
    for e in range(1, e_max + 1):
        v = e - (2 * g - 2 + n)
        if v < 1:
            continue
        out.extend(sorted(t) for t in partitions(2 * e, v, 2 * e))
    return [tuple(t) for t in out]


@lru_cache(maxsize=None)
def _norbury_cells(g: int, n: int) -> Tuple[Tuple[Tuple[Edge, ...], Fraction], ...]:
    """(edges, weight) of the connected ribbon graphs of type (g, n) with
    valences >= 3 and s0 canonical, faces numbered by their smallest dart.
    Each graph weighs 1/|Z(s0)|; graphs with the same edge incidences are
    kept once, with their weights summed."""
    if (g, n) not in NORBURY_SUPPORTED:
        raise ValueError(f"unsupported (g, n) = {(g, n)}; supported: {sorted(NORBURY_SUPPORTED)}")
    cells: Dict[Tuple[Edge, ...], Fraction] = {}
    for valences in _valence_types(g, n):
        s0 = canonical_s0(valences)
        w = Fraction(1, centralizer_order(valences))
        for s1, face, _first, perim in _connected_maps(s0, fpf_involutions(len(s0))):
            # v - e = 2 - 2g - n by the valence type, so n faces fix the genus
            if len(perim) != n:
                continue
            edges = tuple(sorted(
                tuple(sorted(Counter((face[d], face[s1[d]])).items()))
                for d in range(len(s0))
                if d < s1[d]
            ))
            cells[edges] = cells.get(edges, 0) + w
    return tuple(cells.items())


@lru_cache(maxsize=None)
def _norbury_table(g: int, n: int, total: int) -> Dict[Tuple[int, ...], Fraction]:
    """Sorted perimeter vector with entry sum ``total`` -> sum over the cells
    of the cell's weight times its lattice counts of every distinct ordering
    of the vector."""
    table: Dict[Tuple[int, ...], Fraction] = {}
    for edges, w in _norbury_cells(g, n):
        for perims, c in lattice_series(edges, n, total, min_length=1).items():
            if sum(perims) == total:
                key = tuple(sorted(perims))
                table[key] = table.get(key, 0) + w * c
    return table


def norbury_N(g: int, n: int, alpha: Sequence[int]) -> Fraction:
    """Weighted number of integer metric ribbon graphs of type (g, n) with
    labeled boundary perimeters ``alpha`` (edge lengths are positive
    integers; weight 1/#Aut).

    Orbit counting sums over the n! labelings of each cell's faces, which
    count every distinct ordering of ``alpha`` mu(alpha)! times.
    """
    if len(alpha) != n or any(a < 1 for a in alpha):
        raise ValueError("alpha must list one positive perimeter per boundary")
    count = _norbury_table(g, n, sum(alpha)).get(tuple(sorted(alpha)), Fraction(0))
    return count * _mu_factorial(alpha)


# ---------------------------------------------------------------------------
# text dump (external regression format)
# ---------------------------------------------------------------------------


def _cycles_str(perm: Perm) -> str:
    return "".join(
        "(" + " ".join(str(d) for d in cyc) + ")" for cyc in orbits(perm) if len(cyc) > 1
    ) or "()"


def map_dump_lines(valences: Sequence[int]) -> Iterator[str]:
    """Line-oriented dump of the connected directed maps: dart count, s0
    cycles, s1 pairs, genus, signed faces."""
    for dm in directed_maps(valences):
        faces = " ".join(
            ("+" if s > 0 else "-") + "(" + " ".join(str(d) for d in f) + ")"
            for f, s in zip(dm.faces, dm.face_sign)
        )
        yield (
            f"darts={len(dm.s0)} s0={_cycles_str(dm.s0)} s1={_cycles_str(dm.s1)} "
            f"genus={dm.genus} faces={faces}"
        )
