"""Benchmark workloads, written against the public functions of ``dessins``.

A workload is a list of groups; a group is a list of operations that must
run in the order given (a later one reads what an earlier one built).  The
workload seed shuffles the groups, never the operations inside a group.

An operation is ``(item, kind, fn)``.  ``fn(tracer)`` makes its calls into
the package through ``tracer.call`` and returns the canonical text of its
exact output ("p/q" fractions, sorted keys).  It raises ``Residual`` when a
check call returns findings or two routes disagree.  ``item`` names the
output for the pinned digests, so a digest does not depend on the order in
which the seed runs the operations.

Every size is fixed here, not taken from ``verify`` defaults, so widening a
verify suite cannot change a workload.  Importing this module imports
``dessins``; only worker processes do that.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

from dessins import cli, maps, opmatrix, spectral, tutte
from dessins import operators as ops
from dessins import partition as pt


class Residual(Exception):
    """A check returned findings, or two routes disagreed."""


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _require_empty(what: str, findings) -> str:
    if findings:
        raise Residual(f"{what}: {len(findings)} residuals, first {findings[0]!r}")
    return ""


def _series_text(z: pt.QSeries) -> str:
    return "\n".join(f"{k}: {p.as_str()}" for k, p in z.items())


def _partitions(total: int, largest: int):
    if total == 0:
        yield ()
        return
    for p in range(min(total, largest), 0, -1):
        for rest in _partitions(total - p, p):
            yield (p,) + rest


def _prod(xs) -> int:
    out = 1
    for x in xs:
        out *= x
    return out


# ---------------------------------------------------------------------------
# census: brute-force oracle window, sum(alpha) <= 8 (up to 16 darts)
# ---------------------------------------------------------------------------

CENSUS_SUM_MAX = 8


def census_keys():
    """Every stable key with even sum(alpha) <= CENSUS_SUM_MAX (49 keys)."""
    for tot in range(2, CENSUS_SUM_MAX + 1, 2):
        d = tot // 2
        for alpha in _partitions(tot, tot):
            for n_minus in range(1, d + 2):
                g2 = d + 2 - len(alpha) - n_minus
                if g2 >= 0 and g2 % 2 == 0:
                    yield pt.CountKey(g2 // 2, len(alpha), n_minus, alpha)


def _key_item(key: pt.CountKey) -> str:
    return f"g={key.g} n+={key.n_plus} n-={key.n_minus} alpha={' '.join(map(str, key.alpha))}"


def _brute_force(t, key: pt.CountKey) -> Fraction:
    spec = maps.EnumSpec(key.euler_degree, 0, key.n_plus, key.n_minus, key.alpha, g=key.g)
    return t.call("maps.count_dessins", maps.count_dessins, spec)


def _three_routes(t, c: pt.QSeries, key: pt.CountKey) -> str:
    """The count of ``key`` by the flow, checked against Tutte and brute force."""
    want = t.call("partition.count", pt.count, c, key)
    r = t.call("tutte.r_tilde", tutte.r_tilde, key.g, key.n_plus, key.alpha)
    got = _brute_force(t, key)
    if got != want:
        raise Residual(f"brute force {got} != flow {want}")
    if r != _prod(key.alpha) * want:
        raise Residual(f"tutte {r} != prod(alpha) * flow {want}")
    return _frac(want)


def _census(rng: random.Random):
    state = {}

    def flow(t):
        z = t.call("partition.partition_function", pt.partition_function, CENSUS_SUM_MAX // 2, True)
        state["c"] = t.call("partition.connected", pt.connected, z)
        return _series_text(state["c"])

    def key_op(key):
        return lambda t: _three_routes(t, state["c"], key)

    keys = [[(_key_item(k), "key", key_op(k))] for k in census_keys()]
    rng.shuffle(keys)
    # every key reads the connected series, so the flow runs first
    return [[("flow d=4", "flow", flow)]] + keys


# ---------------------------------------------------------------------------
# algebra: Fock-space operator algebra
# ---------------------------------------------------------------------------

WITT_DEG_CAP, WITT_VAR_CAP = 10, 12


def _witt_op(i: int, j: int):
    def fn(t):
        expect = ops.virasoro_l(i + j) if i != j else None
        res = t.call(
            "operators.commutator_check", ops.commutator_check,
            ops.virasoro_l(i), ops.virasoro_l(j), expect, i - j, WITT_DEG_CAP, WITT_VAR_CAP,
        )
        return _require_empty(f"[L{i},L{j}]", [m.as_str() for m, _ in res])
    return (f"witt {i} {j}", "witt", fn)


def _flow_ops(state: dict, d: int):
    """Z to depth d with the marker, then its logarithm."""

    def z_op(t):
        z = t.call("partition.partition_function", pt.partition_function, d, True)
        t.count("partition.z_terms", sum(len(p.terms) for p in z.layers.values()))
        state["z"] = z
        return _series_text(z)

    def f_op(t):
        f = t.call("partition.connected", pt.connected, state["z"])
        t.count("partition.f_terms", sum(len(p.terms) for p in f.layers.values()))
        return _series_text(f)

    return [(f"Z d={d}", "flow", z_op), (f"log Z d={d}", "flow", f_op)]


def _virasoro(t):
    z = t.call("partition.partition_function", pt.partition_function, 6)
    res = t.call("partition.virasoro_residuals", pt.virasoro_residuals, z, 6)
    return _require_empty("virasoro", [f"L{i} degree {w}" for i, w, _ in res])


def _bivalent(t):
    b1 = t.call("partition.partition_function_bivalent", pt.partition_function_bivalent, 3, 3)
    b2 = t.call("partition.partition_function_bivalent", pt.partition_function_bivalent, 3, 3,
                q1_first=True)
    if b1.layers != b2.layers:
        raise Residual("bivalent flows disagree between the two orders")
    return _series_text(b1)


def _cutjoin(t):
    return _require_empty("cutjoin", t.call(
        "opmatrix.cutjoin_matrix_check", opmatrix.cutjoin_matrix_check, 2, 8))


def _vacuum(t):
    return _require_empty("vacuum", t.call(
        "opmatrix.vacuum_consistency_check", opmatrix.vacuum_consistency_check, 2, 8))


def _algebra(rng: random.Random):
    groups = [[_witt_op(i, j)] for i in range(-1, 5) for j in range(i, 5)]
    groups.append(_flow_ops({}, 8))
    groups.append([("virasoro d=6", "check", _virasoro)])
    groups.append([("bivalent 3 3", "flow", _bivalent)])
    groups.append([("cutjoin 2 8", "check", _cutjoin)])
    groups.append([("vacuum 2 8", "check", _vacuum)])
    rng.shuffle(groups)
    return groups


# ---------------------------------------------------------------------------
# spectral: topological recursion, loop equation, Norbury substitution
# ---------------------------------------------------------------------------

TR_TYPES = ((0, 3), (1, 1), (0, 4), (1, 2), (2, 1), (1, 3))
TR_HI = 8
LOOP_TYPES = ((0, 1), (0, 2), (1, 1), (0, 3), (1, 2), (0, 4))
LOOP_CAP = 10


def _omega_op(g: int, n: int):
    def fn(t):
        om = t.call(f"spectral.tr_omega.g{g}n{n}", spectral.tr_omega, g, n)
        t.count("spectral.omega_terms", len(om.value))
        return json.dumps(om.to_json_dict(), sort_keys=True)
    return (f"omega {g} {n}", "omega", fn)


def _agreement_op(g: int, n: int):
    def fn(t):
        return _require_empty(f"tr ({g},{n})", t.call(
            "spectral.tr_agreement_check", spectral.tr_agreement_check, g, n, TR_HI))
    return (f"tr agreement {g} {n} hi={TR_HI}", "check", fn)


def _loop_ops(g: int, n: int):
    def table(t):
        w = t.call("spectral.laplace_W", spectral.laplace_W, g, n, LOOP_CAP)
        return json.dumps(w.to_json_dict(), sort_keys=True)

    def loop(t):
        return _require_empty(f"loop ({g},{n})", t.call(
            "spectral.loop_check", spectral.loop_check, g, n, LOOP_CAP))

    return [(f"W {g} {n} cap={LOOP_CAP}", "table", table),
            (f"loop {g} {n} cap={LOOP_CAP}", "check", loop)]


def _norbury_op(g: int, n: int, cap: int):
    def fn(t):
        return _require_empty(f"norbury ({g},{n})", t.call(
            "spectral.norbury_substitution_check", spectral.norbury_substitution_check, g, n, cap))
    return (f"norbury {g} {n} cap={cap}", "check", fn)


def _spectral(rng: random.Random):
    # TR for (g, n) reuses the differentials of smaller types, so the chain
    # keeps the order of TR_TYPES
    groups = [[op for g, n in TR_TYPES for op in (_omega_op(g, n), _agreement_op(g, n))]]
    groups.extend(_loop_ops(g, n) for g, n in LOOP_TYPES)
    groups.append([_norbury_op(1, 1, 9)])
    groups.append([_norbury_op(0, 3, 8)])
    rng.shuffle(groups)
    return groups


# ---------------------------------------------------------------------------
# tables: many small requests through the command line, one process
# ---------------------------------------------------------------------------

TABLES_SUM_MAX = 10
TABLES_TR = ((0, 3), (1, 1), (0, 4), (1, 2))
KERNEL_BLOCKS = ((0, 1, 2), (0, 2, 1), (0, 2, 2), (0, 3, 1), (1, 1, 1))
KERNEL_CAP = 8


class CliFailed(Exception):
    """A command-line request exited non-zero."""


def _cli_op(kind: str, argv):
    def fn(t):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = t.call(f"cli.{kind}", cli.main, list(argv))
        if code != 0:
            raise CliFailed(f"exit {code}: {err.getvalue().strip()[:200]}")
        return out.getvalue()
    return (" ".join(argv), kind, fn)


def _counts_request(alpha):
    return _cli_op("counts", ["counts", "--alpha", " ".join(map(str, alpha)), "--format", "json"])


def _tr_request(g: int, n: int):
    return _cli_op("tr", ["tr", "--g", str(g), "--n", str(n)])


def _kernel_request(g: int, n_plus: int, n_minus: int, cap: int):
    return _cli_op("export_kernel", [
        "export", "--what", "kernel", "--g", str(g), "--nplus", str(n_plus),
        "--nminus", str(n_minus), "--cap", str(cap)])


def _tables(rng: random.Random):
    # odd sums have no surfaces, so only even sums are requested
    groups = [[_counts_request(a)] for tot in range(2, TABLES_SUM_MAX + 1, 2)
              for a in _partitions(tot, tot)]
    groups.extend([_tr_request(g, n)] for g, n in TABLES_TR)
    groups.extend([_kernel_request(*b, KERNEL_CAP)] for b in KERNEL_BLOCKS)
    rng.shuffle(groups)
    return groups


# ---------------------------------------------------------------------------
# probes: fixed calls that give every per-layer metric a value in a traced
# run, also on workloads whose body never calls that function
# ---------------------------------------------------------------------------

PROBE_KEYS = (pt.CountKey(0, 1, 4, (6,)), pt.CountKey(0, 2, 3, (3, 3)))


def _probe(rng: random.Random):
    state = {}

    def small_census(t):
        c = t.call("partition.connected", pt.connected,
                   t.call("partition.partition_function", pt.partition_function, 3, True))
        return "\n".join(f"{_key_item(k)}: {_three_routes(t, c, k)}" for k in PROBE_KEYS)

    def apply_step(t):
        # (d+1) Z_{d+1} = W1' Z_d, timed on its own for d = 7
        z7 = state["z"].layer(7)
        img = t.call("operators.apply", ops.apply, ops.w1_reduced(marker=True), z7)
        if img.scale(Fraction(1, 8)) != state["z"].layer(8):
            raise Residual("one W1' step on Z_7 does not give layer 8")
        return img.as_str()

    def poly_mul(t):
        z4 = state["z"].layer(4)
        return t.call("series.poly_mul", z4.__mul__, z4).as_str()

    def kernels(t):
        blocks = [t.call("opmatrix.kernel_block", opmatrix.kernel_block, *b, KERNEL_CAP)
                  for b in KERNEL_BLOCKS]
        return "\n".join(json.dumps(b.to_json_dict(), sort_keys=True) for b in blocks)

    return [
        [("census d<=3", "key", small_census)],
        _flow_ops(state, 8) + [("apply W1' Z7", "flow", apply_step),
                               ("Z4 * Z4", "flow", poly_mul)],
        [_witt_op(1, 2)],
        [("virasoro d=6", "check", _virasoro)],
        [("bivalent 3 3", "flow", _bivalent)],
        # the cut-and-join check assembles these blocks, so they come first
        [("kernel blocks cap=8", "table", kernels)],
        [("cutjoin 2 8", "check", _cutjoin)],
        [("vacuum 2 8", "check", _vacuum)],
        [_omega_op(g, n) for g, n in TR_TYPES] + [_agreement_op(0, 3)],
        _loop_ops(0, 3),
        [_norbury_op(1, 1, 9)],
    ]


def _probe_cli(rng: random.Random):
    """One cold request of each command-line kind."""
    return [[_counts_request((2, 2, 2, 2))], [_tr_request(1, 1)],
            [_kernel_request(0, 2, 1, KERNEL_CAP)]]


TABLE16_KEY = pt.CountKey(0, 1, 5, (8,))


def _table16(rng: random.Random):
    """The 16-dart brute-force table, built by whatever worker count is set."""
    return [[(_key_item(TABLE16_KEY), "key", lambda t: _frac(_brute_force(t, TABLE16_KEY)))]]


WORKLOADS = {
    "census": _census,
    "algebra": _algebra,
    "spectral": _spectral,
    "tables": _tables,
    "probe": _probe,
    "probe_cli": _probe_cli,
    "table16": _table16,
}

# lru caches whose hit and miss counts show whether a worker started cold;
# looked up by name, so a cache that a later version drops is skipped
CACHES = (
    (tutte, "r_tilde"),
    (maps, "_dessin_table"),
    (opmatrix, "kernel_block"),
    (opmatrix, "assembled_operator"),
    (spectral, "tr_omega"),
    (spectral, "laplace_W"),
)


def build(workload: str, seed: int):
    return WORKLOADS[workload](random.Random(seed))


def cache_counts() -> dict:
    out = {}
    for module, name in CACHES:
        fn = getattr(module, name, None)
        if hasattr(fn, "cache_info"):
            out[f"{module.__name__}.{name}"] = list(fn.cache_info()[:2])
    return out
