import hashlib
import itertools
import json
import math
from collections import Counter
from fractions import Fraction

import pytest

from dessins import maps
from dessins import operators as ops
from dessins import opmatrix as om
from dessins import partition as pt
from dessins.series import Monomial, Poly, sorted_multi
from helpers import fresh_op
from lattice_reference import lattice_points


def test_pair_of_pants_blocks_match_operator_structure_constants():
    # dictionary: coefficient of t^mu+ d_mu- equals
    # (n-!/mu-!) * entry / mu+!, compared against the P+/P- formulas
    b = om.kernel_block(0, 2, 1, 6)
    assert b.value((1, 1), (0,)) * Fraction(1, 2) == Fraction(1, 2)  # t1^2 d0
    assert b.value((1, 2), (1,)) == 2  # t1 t2 d1: (i+1)(j+1), {i,j} = {0,1}
    assert b.value((2, 2), (2,)) * Fraction(1, 2) == 2  # t2^2 d2: (1/2)(2)(2)
    b2 = om.kernel_block(0, 1, 2, 6)
    assert b2.value((2,), (0, 0)) * Fraction(2, 2) == 1  # t2 d0^2
    assert b2.value((3,), (0, 1)) * Fraction(2, 1) == 3  # t3 d0 d1: (i+j+2)
    assert b2.value((4,), (1, 1)) * Fraction(2, 2) == 2  # t4 d1^2: (1/2)(4)


def test_block_offset_homogeneity():
    b = om.kernel_block(0, 2, 1, 6)
    for (ap, amn), v in b.entries.items():
        assert sum(ap) == sum(amn) + 2
        assert v != 0
    assert b.value((1, 1), (2,)) == 0  # degree mismatch


def test_block_symmetry_under_entry_access():
    b = om.kernel_block(1, 1, 1, 8)
    assert b.value((6,), (1, )) == b.entries.get(((6,), (1,)), 0)
    b2 = om.kernel_block(0, 2, 2, 8)
    assert b2.value((3, 1), (0, 2)) == b2.value((1, 3), (2, 0))


def test_cap_below_minimal_degree_raises():
    with pytest.raises(ValueError, match="minimal degree 2"):
        om.kernel_block(0, 2, 1, 1)


def test_cutjoin_matrix_check_passes():
    assert om.cutjoin_matrix_check(3, 8) == []


def _reference_cutjoin_matrix_check(d_max, cap, deg_cap=4, t0_cap=4):
    """d K_d - W1 K_{d-1} on each basis monomial, by ``apply``."""
    findings = []
    w1 = ops.w1()
    for d in range(1, d_max + 1):
        kd = om.assembled_operator(d, cap)
        kprev = om.assembled_operator(d - 1, cap)
        for m in ops.basis_monomials(min(deg_cap, cap - 2 * d), deg_cap, t0_cap):
            p = Poly.term(m, 1)
            diff = ops.apply(kd, p).scale(d) - ops.apply(w1, ops.apply(kprev, p))
            if not diff.is_zero():
                findings.append(f"d={d} monomial {m.as_str()}: residual {diff.as_str()}")
    return findings


@pytest.mark.parametrize("wrong_d", [1, 2])
def test_cutjoin_matrix_check_matches_apply_reference(wrong_d, monkeypatch):
    # K_wrong_d doubled: it breaks the equation at d = wrong_d and, through
    # W1 K_{d-1}, at d = wrong_d + 1
    assembled = om.assembled_operator

    def perturbed(d, cap):
        kd = assembled(d, cap)
        return ops.scaled(kd, 2) if d == wrong_d else kd

    monkeypatch.setattr(om, "assembled_operator", perturbed)
    want = _reference_cutjoin_matrix_check(3, 8)
    assert {f.split()[0] for f in want} == {f"d={wrong_d}", f"d={wrong_d + 1}"}
    assert om.cutjoin_matrix_check(3, 8) == want


def _counting_copy(op, calls):
    """A cold copy of ``op`` whose coefficient function counts its calls
    per (operator name, pattern)."""

    def coeffs(ders):
        calls[op.name, ders] += 1
        return op.coeffs(ders)

    return fresh_op(op, coeffs)


def test_cutjoin_matrix_check_builds_each_table_once(monkeypatch):
    # cold copies of W1 and of every K_d, so each pattern group is built
    # inside the check, once, however many basis monomials meet it
    calls = Counter()
    assembled, w1 = om.assembled_operator, _counting_copy(ops.w1(), calls)
    monkeypatch.setattr(om, "assembled_operator",
                        lambda d, cap: _counting_copy(assembled(d, cap), calls))
    monkeypatch.setattr(ops, "w1", lambda: w1)
    assert om.cutjoin_matrix_check(2, 8) == []
    assert {name for name, _ in calls} == {"K_0", "K_1", "K_2", "W1"}
    assert set(calls.values()) == {1}


def _eager_assembled(d, cap):
    """K_d expanded term by term: for every composition (d_1, ..., d_k) of
    d, the normal-ordered product of the connected layers of degrees d_i,
    weighted 1/k!.  Pattern -> coefficient polynomial."""
    layers = {
        j: [t for g, n_plus, n_minus in om.stable_types(j)
            for t in om._block_diffterms(om.kernel_block(g, n_plus, n_minus, cap))]
        for j in range(1, d + 1)
    }

    def compositions(tot):
        if tot == 0:
            yield ()
            return
        for first in range(1, tot + 1):
            for rest in compositions(tot - first):
                yield (first,) + rest

    total = {}
    for combo in compositions(d):
        prod = {(Monomial({}), ()): Fraction(1)}
        for j in combo:
            out = {}
            for (mono, ders), c in prod.items():
                for t in layers[j]:
                    both = Counter(dict(ders)) + Counter(dict(t.ders))
                    m = Monomial(Counter(dict(mono.exps)) + Counter(dict(t.mono.exps)))
                    key = (m, tuple(sorted(both.items())))
                    out[key] = out.get(key, 0) + c * t.coeff
            prod = out
        for (mono, ders), c in prod.items():
            part = total.setdefault(ders, {})
            part[mono] = part.get(mono, 0) + c / math.factorial(len(combo))
    return {ders: {m: c for m, c in part.items() if c} for ders, part in total.items()}


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_assembled_operator_matches_eager_expansion(d):
    want = _eager_assembled(d, 8)
    got = om.assembled_operator(d, 8)
    assert got.order == max(sum(e for _, e in ders) for ders in want)
    for ders, part in want.items():
        assert got.coeffs(ders) == part, ders


def test_kernel_blocks_of_one_degree_share_one_walk(monkeypatch):
    # 12 darts: one slice per image 1, 3, ..., 11 of dart 0, for all six
    # stable types of degree 3 together
    slices = []
    walk = maps.sign_pattern_maps

    def counting(valences, first_image):
        slices.append(first_image)
        return walk(valences, first_image)

    monkeypatch.setattr(maps, "sign_pattern_maps", counting)
    om._structures.cache_clear()
    for g, n_plus, n_minus in om.stable_types(3):
        assert om.kernel_block.__wrapped__(g, n_plus, n_minus, 8) == om.kernel_block(
            g, n_plus, n_minus, 8)
    assert sorted(slices) == [1, 3, 5, 7, 9, 11]
    om.kernel_block.__wrapped__(0, 3, 2, 9)
    assert len(slices) == 6


def test_vacuum_consistency():
    assert om.vacuum_consistency_check(3, 8) == []


def test_conjugated_tables_are_built_once_over_two_calls(monkeypatch):
    # conjugate_shift returns one operator per argument value, so the second
    # call of each check finds the conjugated groups built; L_7' and the
    # cap-6 K_d' are used by no other test, so the first call builds them
    built = Counter()
    group = ops.DiffOp._group

    def counting(op, ders):
        built[op, ders] += 1
        return group(op, ders)

    monkeypatch.setattr(ops.DiffOp, "_group", counting)
    z = pt.partition_function(3)
    for _ in range(2):
        pt.virasoro_residuals(z, i_max=7)
        om.vacuum_consistency_check(2, 6)
    conjugated = {(op, ders): n for (op, ders), n in built.items() if op.name.endswith("'")}
    assert {op.name for op, _ in conjugated} >= {"L7'", "K_0'", "K_1'", "K_2'"}
    assert set(conjugated.values()) == {1}


def test_degree_one_operator_equals_w1_on_window():
    k1 = om.assembled_operator(1, 8)
    w1 = ops.w1()
    for m in ops.basis_monomials(4, 4, t0_cap=2):
        p = Poly.term(m, 1)
        assert ops.apply(k1, p) == ops.apply(w1, p)


def test_adjointness_pair_and_self():
    assert om.adjoint_check(0, 2, 1, 6) == []
    assert om.adjoint_check(0, 1, 2, 6) == []
    assert om.adjoint_check(0, 2, 2, 6) == []
    assert om.adjoint_check(0, 3, 2, 10) == []
    assert om.adjoint_check(1, 2, 1, 10) == []


def test_adjoint_vacuous_below_degree():
    assert om.adjoint_check(0, 2, 1, 1) == []


def test_json_export_roundtrip():
    b = om.kernel_block(0, 1, 2, 4)
    payload = b.to_json_dict()
    text = json.dumps(payload, sort_keys=True)
    back = json.loads(text)
    assert back["g"] == 0 and back["n_plus"] == 1 and back["n_minus"] == 2
    entries = {
        (tuple(e["alpha_plus"]), tuple(e["alpha_minus"])): e["value"] for e in back["entries"]
    }
    assert entries[((2,), (0, 0))] == "1"


def _reference_block(g, n_plus, n_minus, cap):
    """Entries summed as written in the module docstring: every directed map
    over all N!! involutions (``directed_maps``), every labeling of both
    boundaries, one ``lattice_points`` search per labeled face-sum vector."""
    d = om.euler_degree(g, n_plus, n_minus)
    valences = (4,) * d
    structures = []
    for dm in maps.directed_maps(valences):
        pos = [i for i, s in enumerate(dm.face_sign) if s > 0]
        neg = [i for i, s in enumerate(dm.face_sign) if s < 0]
        if dm.genus != g or len(pos) != n_plus or len(neg) != n_minus:
            continue
        face_of = {dart: i for i, f in enumerate(dm.faces) for dart in f}
        incidence = [
            {face_of[p]: 1, face_of[dm.s1[p]]: 1} for p in range(len(dm.s0)) if dm.eps[p] > 0
        ]
        structures.append((incidence, pos, neg, [len(dm.faces[i]) for i in pos]))
    denom = math.factorial(n_minus) * maps.centralizer_order(valences)
    entries = {}
    for dtot in range(2 * d, cap + 1):
        for a_plus in sorted_multi(dtot, n_plus, minimum=1):
            for a_minus in sorted_multi(dtot - 2 * d, n_minus, minimum=0):
                total = 0
                for incidence, pos, neg, perims in structures:
                    for lp in itertools.permutations(a_plus):
                        for lm in itertools.permutations(a_minus):
                            targets = [0] * (n_plus + n_minus)
                            for i, a, p in zip(pos, lp, perims):
                                targets[i] = a - p
                            for i, a in zip(neg, lm):
                                targets[i] = a
                            if min(targets) >= 0:
                                total += lattice_points(incidence, targets)
                if total:
                    entries[(a_plus, a_minus)] = Fraction(math.prod(a_plus) * total, denom)
    return entries


@pytest.mark.parametrize(
    "g,n_plus,n_minus",
    [(0, 1, 2), (0, 2, 1), (0, 2, 2), (0, 3, 1), (1, 1, 1), (0, 1, 3), (1, 1, 2)],
)
def test_kernel_block_matches_reference(g, n_plus, n_minus):
    want = _reference_block(g, n_plus, n_minus, 8)
    assert want
    assert om.kernel_block(g, n_plus, n_minus, 8).entries == want


def test_edge_series_equals_lattice_points_on_every_structure():
    top = 4
    structures = [
        (edges, perims)
        for (n_plus, n_minus, edges, perims), _ in om._structures(2)
        if (n_plus, n_minus) == (2, 2)
    ]
    assert structures
    for edges, _perims in structures:
        table = maps.lattice_series(edges, 4, 2 * top)
        incidence = [dict(edge) for edge in edges]
        for beta in itertools.product(range(top + 1), repeat=4):
            if sum(beta[:2]) > top or sum(beta[2:]) > top:
                continue
            assert table.get(beta, 0) == lattice_points(incidence, list(beta)), beta


# sha256 of json.dumps(kernel_block(...).to_json_dict(), sort_keys=True),
# pinned from the per-labeling lattice-point search the blocks were first
# computed with
KERNEL_DIGESTS = {
    (0, 1, 2, 8): "07b5a598a276066235c79ae6ac05fbf328bddce1fa700465cac9d8ff52c77419",
    (0, 2, 1, 8): "8ed6c736268f23fd970fed76673193bd42f4d06dad359230eb67d31e152258ce",
    (0, 2, 2, 8): "e79553cc5ade20d964f84d434873aec1fa5f31cae5060ec8b3cc2a087dea3204",
    (0, 3, 1, 8): "17fef343a33fa23cd417af9f0d391cab0741811045dda383c85ebbe74518941f",
    (1, 1, 1, 8): "53e9ba29131b8d34afcd579b08014a155afcd9970c998fe76f667aeda375e1ff",
    (0, 3, 2, 10): "acda13014454a04d96640d267f7ae5a36c70c4f042ef58d4c03a86ad1ff6c2ba",
    (1, 2, 1, 10): "c4c255aed9c7e4de9e1845c5f48afe15420112ab4cc1c3baf33d8987df92655f",
    (2, 1, 1, 10): "861df1c636677c4234ab5b83904e253048c357c5fc02ce2b47af3d1e6ad091f8",
    (1, 1, 3, 10): "855a488e3a941910664af86b846623222b9eafba2a7713b1e4f0d6f7ba8bebac",
    (0, 4, 2, 10): "4f994d569a9d53b34439f5615d5205a222cd6444a2b8117ce4f6701a71ba5ae1",
    (0, 2, 4, 10): "47f7dbc875ac9305c3dae4967fb7f3ddc7b8802ae317e5b718fca4ff0c587717",
}


@pytest.mark.parametrize("block", sorted(KERNEL_DIGESTS), ids=str)
def test_kernel_block_golden(block):
    text = json.dumps(om.kernel_block(*block).to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == KERNEL_DIGESTS[block]
