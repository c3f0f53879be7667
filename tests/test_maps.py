import hashlib
import itertools
from fractions import Fraction

import pytest

from dessins import maps, opmatrix
from lattice_reference import lattice_points
from map_reference import components


def test_count_dessins_spec_examples():
    assert maps.count_dessins(maps.EnumSpec(1, 0, 1, 2, (2,), g=0)) == Fraction(1, 2)
    assert maps.count_dessins(maps.EnumSpec(2, 0, 1, 1, (4,), g=1)) == Fraction(1, 4)
    assert maps.count_dessins(maps.EnumSpec(1, 0, 2, 1, (1, 1), g=0)) == 1
    # edge-count identity violated
    assert maps.count_dessins(maps.EnumSpec(2, 0, 1, 2, (3,), g=0)) == 0


def test_count_invariant_under_alpha_reordering():
    a = maps.count_dessins(maps.EnumSpec(3, 0, 2, 1, (2, 4), g=1))
    b = maps.count_dessins(maps.EnumSpec(3, 0, 2, 1, (4, 2), g=1))
    assert a == b == Fraction(1, 2)


def test_direction_constraints_and_biparticity():
    directions = {}
    for dm in maps.directed_maps((4, 4)):
        n = len(dm.s0)
        assert len(set(components(dm.s0, dm.s1))) == 1
        directions.setdefault(dm.s1, []).append(dm.eps)
        for d in range(n):
            assert dm.eps[dm.s0[d]] == -dm.eps[d]
            assert dm.eps[dm.s1[d]] == -dm.eps[d]
        for f, s in zip(dm.faces, dm.face_sign):
            assert all(dm.eps[d] == s for d in f)
        pos = sum(len(f) for f, s in zip(dm.faces, dm.face_sign) if s > 0)
        neg = sum(len(f) for f, s in zip(dm.faces, dm.face_sign) if s < 0)
        assert pos == neg == n // 2
        assert dm.genus >= 0
        assert 2 * dm.genus == 2 - len(maps.orbits(dm.s0)) + n // 2 - len(dm.faces)
    # every connected map once per direction: a coloring, then its global flip
    assert directions
    for eps_list in directions.values():
        assert len(eps_list) == 2
        assert eps_list[1] == tuple(-e for e in eps_list[0])


@pytest.mark.parametrize(
    "valences", [(4, 4), (4, 2, 2), (2, 2, 2, 2), (3, 3, 3, 3), (3, 3, 2, 2, 2)], ids=str
)
def test_connected_maps_keep_exactly_the_connected_involutions(valences):
    s0 = maps.canonical_s0(valences)
    every = list(maps.fpf_involutions(len(s0)))
    want = [s1 for s1 in every if len(set(components(s0, s1))) == 1]
    got = list(maps._connected_maps(s0, every))
    assert [s1 for s1, *_ in got] == want
    # some involutions leave a vertex unreached, and they are dropped
    assert len(want) < len(every)
    for s1, face, first, perim in got:
        faces = maps.face_orbits(s0, s1)
        # face i of the labelling holds the darts of the i-th orbit, so the
        # faces are numbered by their smallest dart
        assert [sorted(d for d in range(len(s0)) if face[d] == i) for i in range(len(faces))] == [
            sorted(f) for f in faces
        ]
        assert first == [min(f) for f in faces] == sorted(first)
        assert perim == [len(f) for f in faces]


def _centralizer_elements(valences):
    """All permutations commuting with the canonical s0."""
    starts = []
    pos = 0
    for v in valences:
        starts.append(pos)
        pos += v
    n = pos
    by_len = {}
    for i, v in enumerate(valences):
        by_len.setdefault(v, []).append(i)
    for rots in itertools.product(*(range(v) for v in valences)):
        blocks = [list(itertools.permutations(idxs)) for idxs in by_len.values()]
        for choice in itertools.product(*blocks):
            perm_of_cycles = {}
            for idxs, tgt in zip(by_len.values(), choice):
                for src, dst in zip(idxs, tgt):
                    perm_of_cycles[src] = dst
            g = [0] * n
            for i, v in enumerate(valences):
                j = perm_of_cycles[i]
                for p in range(v):
                    g[starts[i] + p] = starts[j] + (p + rots[i]) % v
            yield tuple(g)


def test_centralizer_order_matches_enumeration():
    for val in [(4,), (4, 4), (2, 2), (4, 2), (2, 2, 2)]:
        elems = set(_centralizer_elements(val))
        s0 = maps.canonical_s0(val)
        assert all(
            tuple(g[s0[i]] for i in range(len(s0)))
            == tuple(s0[g[i]] for i in range(len(s0)))
            for g in elems
        )
        assert len(elems) == maps.centralizer_order(val)


def test_orbit_stabilizer_consistency_small():
    # direct isomorph-class enumeration with explicit stabilizers agrees
    # with the structures/|Z(s0)| quotient used by count_dessins
    for spec in [
        maps.EnumSpec(1, 0, 1, 2, (2,), g=0),
        maps.EnumSpec(2, 0, 1, 1, (4,), g=1),
        maps.EnumSpec(2, 0, 2, 2, (2, 2), g=0),
        maps.EnumSpec(2, 0, 1, 3, (4,), g=0),
        maps.EnumSpec(1, 2, 2, 1, (2, 1), g=0),
    ]:
        valences = (4,) * spec.v4 + (2,) * spec.v2
        elems = list(_centralizer_elements(valences))
        inv = {g: tuple(sorted(range(len(g)), key=lambda i: g[i])) for g in elems}
        structures = []
        for dm in maps.directed_maps(valences):
            if dm.genus != spec.g or dm.n_minus != spec.n_minus:
                continue
            pos_faces = [f for f, s in zip(dm.faces, dm.face_sign) if s > 0]
            perims = [len(f) for f in pos_faces]
            for lab in itertools.permutations(range(spec.n_plus)):
                if tuple(perims[lab.index(k)] for k in range(spec.n_plus)) != spec.alpha:
                    continue
                labeled = tuple(
                    frozenset(pos_faces[lab.index(k)]) for k in range(spec.n_plus)
                )
                structures.append((dm.s1, dm.eps, labeled))
        univ = set(structures)
        assert len(univ) == len(structures)

        def act(g, s):
            s1, eps, labeled = s
            gi = inv[g]
            n = len(g)
            new_s1 = tuple(g[s1[gi[d]]] for d in range(n))
            new_eps = tuple(eps[gi[d]] for d in range(n))
            new_lab = tuple(frozenset(g[d] for d in fs) for fs in labeled)
            return (new_s1, new_eps, new_lab)

        seen = set()
        weighted = Fraction(0)
        for s in structures:
            if s in seen:
                continue
            orbit = {act(g, s) for g in elems}
            assert orbit <= univ
            seen |= orbit
            stab = sum(1 for g in elems if act(g, s) == s)
            assert stab * len(orbit) == len(elems)
            weighted += Fraction(1, stab)
        assert weighted == maps.count_dessins(spec)


def test_lattice_points_examples():
    # the (0,1,2) structure: one + face of perimeter 2, two - faces, and
    # each edge joins the + face to one - face
    structures = [
        (edges, perims)
        for (n_plus, n_minus, edges, perims), _ in opmatrix._structures(1)
        if (n_plus, n_minus) == (1, 2)
    ]
    assert structures
    edges, perims = structures[0]
    assert perims == (2,)
    table = maps.lattice_series(edges, 3, 10)
    assert table[(0, 0, 0)] == 1  # all-zero targets
    assert table[(3, 1, 2)] == 1  # forced labeling
    assert table[(5, 2, 3)] == 1
    assert (1, 2, 0) not in table  # unbalanced


def test_lattice_points_single_edge_forced():
    # one edge between one positive and one negative face: unique labeling
    for k in range(5):
        assert lattice_points([{0: 1, 1: 1}], [k, k]) == 1
        assert lattice_points([{0: 1, 1: 1}], [k, k + 1]) == 0
        series = maps.lattice_series([((0, 1), (1, 1))], 2, 2 * k + 1)
        assert series[(k, k)] == 1 and (k, k + 1) not in series


def test_norbury_values():
    assert maps.norbury_N(1, 1, (3,)) == 0
    assert maps.norbury_N(1, 1, (2,)) == 0
    assert maps.norbury_N(1, 1, (4,)) == Fraction(1, 4)
    assert maps.norbury_N(1, 1, (6,)) == Fraction(2, 3)
    assert maps.norbury_N(1, 1, (8,)) == Fraction(5, 4)
    assert maps.norbury_N(0, 3, (1, 1, 2)) == 1
    # the (0,3) fibre is a single point; these values are pinned end to end
    # by the substitution identity against the correlator route
    assert maps.norbury_N(0, 3, (1, 2, 3)) == 1
    assert maps.norbury_N(0, 3, (2, 2, 2)) == 1
    assert maps.norbury_N(0, 3, (1, 1, 1)) == 0  # odd total
    # Norbury's closed forms: N_{0,4} = (b1^2 + ... + b4^2)/4 - 1 for even b_i and,
    # for odd b1, b2, N_{1,2} = (b1^2 + b2^2 - 2)(b1^2 + b2^2 - 10)/384
    assert maps.norbury_N(0, 4, (2, 2, 2, 2)) == 3
    assert maps.norbury_N(1, 2, (3, 3)) == Fraction(1, 3)


@pytest.mark.parametrize("g,n", [(0, 3), (1, 1)])
def test_lattice_series_equals_search_on_every_norbury_cell(g, n):
    top = 10
    cells = maps._norbury_cells(g, n)
    assert cells
    # every (1,1) edge borders the one face twice; (0,3) has such edges too
    assert any(mult == 2 for edges, _ in cells for edge in edges for _, mult in edge)
    want_n = {}
    for edges, w in cells:
        series = maps.lattice_series(edges, n, top, min_length=1)
        incidence = [dict(edge) for edge in edges]
        for alpha in itertools.product(range(1, top + 1), repeat=n):
            if sum(alpha) > top:
                continue
            cnt = lattice_points(incidence, alpha, min_value=1)
            assert series.get(alpha, 0) == cnt, (edges, alpha)
            # summed over the n! labelings of the cell's faces
            for perm in itertools.permutations(alpha):
                want_n[alpha] = want_n.get(alpha, 0) + w * lattice_points(
                    incidence, perm, min_value=1
                )
    assert any(want_n.values())
    for alpha, want in want_n.items():
        assert maps.norbury_N(g, n, alpha) == want, alpha


def test_norbury_unsupported_type():
    with pytest.raises(ValueError):
        maps.norbury_N(2, 1, (4,))


def test_dump_format_golden():
    lines = list(maps.map_dump_lines((4,)))
    assert lines == [
        "darts=4 s0=(0 1 2 3) s1=(0 1)(2 3) genus=0 faces=+(0 2) -(1) -(3)",
        "darts=4 s0=(0 1 2 3) s1=(0 1)(2 3) genus=0 faces=-(0 2) +(1) +(3)",
        "darts=4 s0=(0 1 2 3) s1=(0 3)(1 2) genus=0 faces=+(0) -(1 3) +(2)",
        "darts=4 s0=(0 1 2 3) s1=(0 3)(1 2) genus=0 faces=-(0) +(1 3) -(2)",
    ]


def test_parallel_scan_matches_sequential():
    maps._dessin_table.cache_clear()
    seq = maps._dessin_table(2, 1)
    maps._dessin_table.cache_clear()
    maps.configure_threads(2)
    try:
        par = maps._dessin_table(2, 1)
    finally:
        maps.configure_threads(1)
        maps._dessin_table.cache_clear()
    assert seq == par


def _reference_table(valences):
    """Per-direction table over all N!! involutions, via ``directed_maps``."""
    table = {}
    for dm in maps.directed_maps(valences):
        key = (dm.genus, dm.n_minus, dm.pos_perims)
        table[key] = table.get(key, 0) + 1
    return table


def test_sign_pattern_table_matches_all_involutions():
    pairs = [(v4, v2) for v4 in range(4) for v2 in range(7) if 0 < 4 * v4 + 2 * v2 <= 12]
    assert len(pairs) == 15
    for v4, v2 in pairs:
        want = _reference_table((4,) * v4 + (2,) * v2)
        assert want
        assert maps._dessin_table(v4, v2) == want, (v4, v2)


# sha256 of repr(sorted(table.items())) for the 14- and 16-dart tables, which
# the all-involution reference above does not reach; pinned from the tables of
# commit 2932322, whose scan read the faces off ``face_orbits``
TABLE_SHA256 = {
    (3, 1): "9a6031f4aa3ce5cb8473cc45a169f12fc1e1c2ec74997df1f41ec11fe676958a",
    (2, 3): "3149f6abb77fba7433d8d601065d8e815c7e04d2cf843005144d1d84655a1716",
    (1, 5): "b99e995d23b46c350fb8a04b74f5e5565a132c459592c98563cc54df0c33706e",
    (0, 7): "169b071a784116da1759ce17055b7c866cbb8aed8aec35a2ed53028572966e03",
    (4, 0): "d4988560918fe50466bf8a21c74bb17d2714e15ffdf134f5506196eba3f0558b",
    (3, 2): "0f2ebe8c1423d9cf9df4f6984129b11891978ab08026a5bb284f907f0e63c4d1",
    (2, 4): "93ea36986b0ecb015b674f475c135a82f7364bd940e3d4fb47aa8ea243f933ea",
    (1, 6): "9d15201c20936c1884086b2e196bfcb7b373cc71fba7b3d087e87581f90b96be",
    (0, 8): "e0378e56830c255b3af0876bd8881d4d8f7d19b12464efa15a0e5fccc023b6d7",
}


@pytest.mark.parametrize("v4,v2", list(TABLE_SHA256))
def test_dessin_table_golden(v4, v2):
    assert set(TABLE_SHA256) == {
        (a, b) for a in range(5) for b in range(9) if 4 * a + 2 * b in (14, 16)
    }
    table = maps._dessin_table(v4, v2)
    got = hashlib.sha256(repr(sorted(table.items())).encode()).hexdigest()
    assert got == TABLE_SHA256[(v4, v2)]
