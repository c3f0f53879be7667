r"""Command-line front end.

Subcommands:

* ``zfun``    -- print partition-function layers (t0-reduced).
* ``counts``  -- exact weighted dessin counts for a boundary profile.
* ``verify``  -- run verification suites; exit status 1 on any residual.
* ``tr``      -- topological-recursion differentials with pole data.
* ``export``  -- JSON/CSV dumps (kernel blocks, map lists, count tables).

Exit codes: 0 success, 1 verification residual, 2 usage error, 3 resource
budget exceeded.  All numeric output is exact; fractions are rendered as
"p/q" strings, never floats.  Output is deterministic for a fixed
configuration, independent of the worker count.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import Callable, Dict, Iterable, List, Sequence

from . import maps, opmatrix, partition as pt, spectral, tutte
from . import operators as ops
from .series import Monomial, mu_factorial, sorted_multi


EXIT_OK = 0
EXIT_RESIDUAL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# largest dart count N of any brute-force map walk, of verify and export alike;
# export --what maps --v4 4 walks all 15!! ~ 2.0e6 edge pairings of 16 darts in
# about a minute on a 2-core VM, and each 2 more darts multiply that by N + 1
DART_BUDGET = 16

# deepest flow a zfun, counts or export-counts request may run, in q-order
# m + d of its top layer; at depth 10 a cold `counts --alpha "10 10"` takes
# 0.6-1.0 s and a cold `zfun --dmax 10 --marker` 0.6-0.9 s on a 2-core
# 2.1 GHz VM (Python 3.11), and each step deeper roughly doubles the time
FLOW_DEPTH_BUDGET = 10

# largest --deg-cap a verify request may give the commutator suites (witt,
# bivalent), which also cap each variable index at it; a verify --suites witt
# process takes 1.2-1.5 s at 14 on a 2-core 2.0 GHz Intel Xeon VM (Python
# 3.11.7), and each 2 more multiply the time by about 1.7
COMMUTATOR_DEG_BUDGET = 14

# largest Euler degree 2g - 2 + n a tr request may ask for;
# cold, (0,6) takes about 4 s on a 2-core VM, and (2,3) at degree 5 about 8 s
TR_DEGREE_BUDGET = 4

# largest --order a tr or verify request may give; cold, tr
# (0,6) takes about 5 s at order 12 and 11 s at 16 on a 2-core VM, and
# verify --suites tr 1.2 s at 12, 25 s at 24 and 130 s at 30
ORDER_BUDGET = 12

# largest --cap an export-correlator request may give; cold, (2,10) takes
# about 4 s at cap 20 on a 2-core VM, (0,10) about 7 s at cap 24, and (4,4)
# about 11 s at cap 30 and more than 20 s at cap 40
CORRELATOR_CAP_BUDGET = 20

# largest --cap an export-kernel request may give; cold, the (0,3,3) block
# takes about 0.9 s at cap 12, 1.9 s at 16 and 5-7 s at 20 on a 2-core
# 2.0 GHz Xeon VM (Python 3.11.7), and each 4 more multiply the time by about 3
KERNEL_CAP_BUDGET = 20


def _emit(text: str | Iterable[str], out_path: str | None):
    """Write ``text``, or its pieces one at a time as they come, to
    ``out_path`` or stdout."""
    pieces = [text] if isinstance(text, str) else text
    if out_path:
        with open(out_path, "w") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _out_problem(out_path: str) -> str | None:
    """Why ``--out out_path`` cannot be written, or None; found without
    creating or truncating any file."""
    folder = os.path.dirname(out_path) or "."
    if os.path.isdir(out_path):
        return f"--out {out_path} is a directory"
    if not os.path.isdir(folder):
        return f"--out {out_path}: no directory {folder}"
    if not os.access(out_path if os.path.exists(out_path) else folder, os.W_OK):
        return f"--out {out_path} is not writable"
    return None


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


class BudgetExceeded(Exception):
    """A request asks for more than a budget; ``main`` exits 3."""


def _check_budget(what: str, value: int, budget: int):
    """Exit 3, through ``main``, when a request asks for more than a budget."""
    if value > budget:
        raise BudgetExceeded(f"{what} is {value}, over the budget of {budget}")


# ---------------------------------------------------------------------------
# zfun
# ---------------------------------------------------------------------------


def cmd_zfun(args) -> int:
    _check_budget("flow depth m + d", args.dmax + (args.dmax0 if args.bivalent else 0),
                  FLOW_DEPTH_BUDGET)
    if args.bivalent:
        z = pt.partition_function_bivalent(args.dmax0, args.dmax, with_marker=args.marker)
    else:
        z = pt.partition_function(args.dmax, with_marker=args.marker)
    rows = [
        {"m": m, "d": d, "poly": poly.as_str()}
        for (m, d), poly in z.items()
    ]
    if args.format == "json":
        _emit(_json_dumps({"marker": args.marker, "layers": rows}), args.out)
    else:
        buf = io.StringIO()
        for r in rows:
            buf.write(f"q0^{r['m']} q1^{r['d']}: {r['poly']}\n" if args.bivalent else f"q^{r['d']}: {r['poly']}\n")
        _emit(buf.getvalue(), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# counts
# ---------------------------------------------------------------------------


def _connected_series(d: int, m: int) -> pt.QSeries:
    """Connected marked series to quadrivalent depth ``d`` with ``m`` bivalent vertices."""
    _check_budget("flow depth m + d", d + m, FLOW_DEPTH_BUDGET)
    return pt.connected(pt.partition_function_bivalent(m, d, with_marker=True))


def _count_rows(
    alpha: Sequence[int], g_filter: int | None, m: int, c: pt.QSeries | None = None
) -> List[dict]:
    """Count rows of one profile with sum(alpha) - m even and >= 0; ``c`` is
    the connected series at its depth, built here when not given."""
    rows = []
    d = (sum(alpha) - m) // 2
    n_plus = len(alpha)
    if c is None:
        c = _connected_series(d, m)
    for g in range(0, d // 2 + 2):
        n_minus = d + 2 - 2 * g - n_plus
        if n_minus < 1:
            continue
        if g_filter is not None and g != g_filter:
            continue
        key = pt.CountKey(g, n_plus, n_minus, tuple(sorted(alpha)), m)
        val = pt.count(c, key)
        rows.append(
            {
                "g": g,
                "n_plus": n_plus,
                "n_minus": n_minus,
                "m": m,
                "alpha": " ".join(str(a) for a in alpha),
                "count": str(val),
            }
        )
    return rows


def _emit_rows(rows: List[dict], fmt: str, out_path: str | None):
    """Write a count table as JSON or CSV."""
    if fmt == "json":
        _emit(_json_dumps({"rows": rows}), out_path)
    else:
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=["g", "n_plus", "n_minus", "m", "alpha", "count"])
        w.writeheader()
        w.writerows(rows)
        _emit(buf.getvalue(), out_path)


def cmd_counts(args) -> int:
    alpha = tuple(int(a) for a in args.alpha.replace(",", " ").split())
    if not alpha or any(a < 1 for a in alpha):
        return _usage_error("alpha must be positive integers")
    profile = f"alpha = {alpha}, m = {args.m}"
    # the positive perimeters sum to the edge count 2 v4 + m
    if sum(alpha) < args.m or (sum(alpha) - args.m) % 2:
        return _usage_error(f"no map has the profile {profile}: sum(alpha) - m is odd or negative")
    rows = _count_rows(alpha, args.g, args.m)
    if args.g is not None and not rows:
        return _usage_error(f"no map has the profile {profile} at genus {args.g}")
    _emit_rows(rows, args.format, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _suite_witt(args) -> List[str]:
    out = []
    for i in range(-1, 9):
        for j in range(i, 9):
            expect = ops.virasoro_l(i + j) if i != j else None
            res = ops.commutator_check(
                ops.virasoro_l(i), ops.virasoro_l(j), expect, i - j,
                args.deg_cap, args.deg_cap,
            )
            out.extend(f"[L{i},L{j}] residual at {m.as_str()}" for m, _ in res)
    return out


def _suite_virasoro(args) -> List[str]:
    z = pt.partition_function(args.dmax)
    res = pt.virasoro_residuals(z, i_max=6)
    return [f"L{i} residual at degree {w}: {p.as_str()}" for i, w, p in res]


def _suite_cutjoin(args) -> List[str]:
    return opmatrix.cutjoin_matrix_check(4, 10)


def _suite_opmatrix(args) -> List[str]:
    return opmatrix.vacuum_consistency_check(4, 10)


def _suite_adjoint(args) -> List[str]:
    blocks = [(0, 2, 1, 6), (0, 2, 2, 6), (0, 3, 2, 10), (1, 2, 1, 10),
              (0, 4, 2, 10), (2, 1, 1, 10)]
    return [f for block in blocks for f in opmatrix.adjoint_check(*block)]


def _agree(keys: Iterable, routes: Dict[str, Callable]) -> List[str]:
    """One finding "<key>: <route> <got> != flow <want>" per key and route that
    disagrees with the first route, the flow; in key order, then route order."""
    (ref, reference), *others = routes.items()
    out = []
    for key in keys:
        want = reference(key)
        for name, route in others:
            got = route(key)
            if got != want:
                out.append(f"{key}: {name} {got} != {ref} {want}")
    return out


def _oracle_keys(s_max: int, m: int = 0):
    """Every stable key with ``m`` bivalent vertices and at most s_max // 2
    quadrivalent ones; the quadrivalent count is the Euler degree."""
    for d in range(s_max // 2 + 1):
        for g, n_plus, n_minus in opmatrix.stable_types(d):
            for alpha in sorted_multi(2 * d + m, n_plus, 1):
                yield pt.CountKey(g, n_plus, n_minus, alpha, m)


def _enumerated(key: pt.CountKey):
    """The brute-force count of ``key``."""
    return maps.count_dessins(
        maps.EnumSpec(key.euler_degree, key.m, key.n_plus, key.n_minus, key.alpha, g=key.g)
    )


def _tutte_count(key: pt.CountKey) -> Fraction:
    """The Tutte route's count of ``key``: for fixed (g, alpha) the edge-count
    identity pins n_minus, so r_tilde(g, n, alpha) = prod(alpha) * count(key)."""
    return Fraction(tutte.r_tilde(key.g, key.n_plus, key.alpha), prod(key.alpha))


TUTTE_CONNECTED_SUM_MAX = 16


def _suite_tutte(args) -> List[str]:
    # mu! [t^mu q^d] Z against the non-connected recursion on every partition
    # mu of 2d, so a monomial the flow lost is a finding too
    d_max = min(args.dmax, 4)
    z = pt.partition_function(d_max)
    partitions = [mu for d in range(d_max + 1) for n in range(2 * d + 1)
                  for mu in sorted_multi(2 * d, n, 1)]
    out = _agree(partitions, {
        "flow": lambda mu: z.layer(sum(mu) // 2).coeff(Monomial(Counter(mu))) * mu_factorial(mu),
        "tutte": lambda mu: tutte.r_tilde_nc(mu, sum(mu) // 2),
    })
    # the connected series against the connected recursion on every stable
    # key with sum(alpha) <= 16 (1,003 keys), past the brute-force window
    c = _connected_series(TUTTE_CONNECTED_SUM_MAX // 2, 0)
    return out + _agree(_oracle_keys(TUTTE_CONNECTED_SUM_MAX),
                        {"flow": lambda key: pt.count(c, key), "tutte": _tutte_count})


# the oracle window: every stable key with sum(alpha) <= 8, the widest whose
# top keys, 4 darts per quadrivalent vertex, fit the dart budget
ORACLE_SUM_MAX = 2 * (DART_BUDGET // 4)


def _suite_oracle(args) -> List[str]:
    # three-route agreement on every key of the oracle window
    c = _connected_series(ORACLE_SUM_MAX // 2, 0)
    return _agree(_oracle_keys(ORACLE_SUM_MAX), {
        "flow": lambda key: pt.count(c, key), "brute force": _enumerated, "tutte": _tutte_count,
    })


def _suite_bivalent(args) -> List[str]:
    # every stable key the flow below reaches, v4 <= 2 and m = v2 <= 4 (57
    # keys, up to 16 darts), so a key the map walk misses is a finding too
    v4_max, v2_max = 2, 4
    out = []
    res = ops.commutator_check(ops.w0(), ops.w1(), None, 0, args.deg_cap, args.deg_cap)
    out.extend(f"[W0,W1] residual at {m.as_str()}" for m, _ in res)
    b1 = pt.partition_function_bivalent(3, 3)
    b2 = pt.partition_function_bivalent(3, 3, q1_first=True)
    out += _agree(sorted(b1.layers.keys() | b2.layers.keys()),
                  {"flow": b1.layers.get, "q1-first flow": b2.layers.get})
    c = _connected_series(v4_max, v2_max)
    keys = (key for v2 in range(v2_max + 1) for key in _oracle_keys(2 * v4_max, v2))
    return out + _agree(keys, {"flow": lambda key: pt.count(c, key), "brute force": _enumerated})


def _suite_loop(args) -> List[str]:
    # each type through at least its lowest total exponent 2(2g - 1 + n) + n - 1,
    # so it compares a nonzero coefficient at any --order
    out = []
    for g, n in [(0, 1), (0, 2), (1, 1), (0, 3), (1, 2), (0, 4)]:
        out.extend(spectral.loop_check(g, n, max(args.order, 2 * (2 * g - 1 + n) + n - 1)))
    return out


def _suite_bergman(args) -> List[str]:
    return spectral.bergman_check(max(args.order, 10))


def _suite_tr(args) -> List[str]:
    # each type through at least its lowest total exponent 2(2g - 1 + n) + n,
    # so it compares a nonzero coefficient at any --order; (1,1) one further
    out = []
    for g, n in [(0, 3), (1, 1), (0, 4), (1, 2), (2, 1), (1, 3), (0, 5), (2, 2)]:
        hi = args.order + ((g, n) == (1, 1))
        out.extend(spectral.tr_agreement_check(g, n, max(hi, 2 * (2 * g - 1 + n) + n)))
    return out


def _suite_norbury(args) -> List[str]:
    out = spectral.tree_series_check(8)
    for g, n, cap in [(1, 1, 9), (0, 3, 8), (0, 4, 8), (1, 2, 8)]:
        out.extend(spectral.norbury_substitution_check(g, n, cap))
    return out


# each verify suite, in the order of --suites all; every map walk a suite
# makes has a fixed size within DART_BUDGET: 16 darts for the d = 4 kernel
# structures of the matrix suites, the oracle's top keys and the bivalent
# tables to (v4, v2) = (2, 4), 12 for the Norbury cells of (0,4) and (1,2)
VERIFY_SUITES = {
    "cutjoin": _suite_cutjoin,
    "witt": _suite_witt,
    "virasoro": _suite_virasoro,
    "tutte": _suite_tutte,
    "oracle": _suite_oracle,
    "opmatrix": _suite_opmatrix,
    "loop": _suite_loop,
    "bergman": _suite_bergman,
    "tr": _suite_tr,
    "norbury": _suite_norbury,
    "adjoint": _suite_adjoint,
    "bivalent": _suite_bivalent,
}


def cmd_verify(args) -> int:
    _check_budget("--order", args.order, ORDER_BUDGET)
    _check_budget("--deg-cap", args.deg_cap, COMMUTATOR_DEG_BUDGET)
    _check_budget("flow depth m + d", args.dmax, FLOW_DEPTH_BUDGET)
    any_residual = False
    report = {}
    for name in args.suites:
        findings = VERIFY_SUITES[name](args)
        report[name] = findings
        status = "PASS" if not findings else "FAIL"
        print(f"{status} {name}" + (f" ({len(findings)} residuals)" if findings else ""))
        for f in findings[:20]:
            print(f"    {f}")
        any_residual = any_residual or bool(findings)
    if args.out:
        _emit(_json_dumps(report), args.out)
    return EXIT_RESIDUAL if any_residual else EXIT_OK


# ---------------------------------------------------------------------------
# tr
# ---------------------------------------------------------------------------


def cmd_tr(args) -> int:
    _check_budget("tr degree 2g - 2 + n", 2 * args.g - 2 + args.n, TR_DEGREE_BUDGET)
    _check_budget("--order", args.order, ORDER_BUDGET)
    om = spectral.tr_omega(args.g, args.n)
    payload = om.to_json_dict()
    payload["expansion"] = {
        " ".join(str(x) for x in e): str(c)
        for e, c in sorted(om.expand_at_infinity(args.order).items())
    }
    _emit(_json_dumps(payload), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def cmd_export(args) -> int:
    if args.what == "kernel":
        _check_budget("the kernel map walk 4(2g - 2 + n+ + n-)",
                      4 * opmatrix.euler_degree(args.g, args.nplus, args.nminus), DART_BUDGET)
        _check_budget("kernel --cap", args.cap, KERNEL_CAP_BUDGET)
        block = opmatrix.kernel_block(args.g, args.nplus, args.nminus, args.cap)
        _emit(_json_dumps(block.to_json_dict()), args.out)
    elif args.what == "maps":
        if args.v4 == args.v2 == 0:
            return _usage_error("--v4 and --v2 must give at least one vertex")
        _check_budget("the map walk 4 v4 + 2 v2", 4 * args.v4 + 2 * args.v2, DART_BUDGET)
        valences = (4,) * args.v4 + (2,) * args.v2
        _emit((line + "\n" for line in maps.map_dump_lines(valences)), args.out)
    elif args.what == "counts":
        # a row needs a total 2d <= --s-max, d >= 1, with n+ <= d + 1 (genus 0, n- >= 1)
        if args.s_max // 2 < max(args.nplus - 1, 1):
            nplus = f" and {args.nplus} positive boundaries" if args.nplus else ""
            return _usage_error(f"no map has a perimeter total <= --s-max {args.s_max}{nplus}")
        # the lower layers of a flow do not depend on its top depth, so one
        # series serves every total
        c = _connected_series(args.s_max // 2, 0)
        rows = []
        for tot in range(2, args.s_max + 1, 2):
            n_range = [args.nplus] if args.nplus else range(1, tot + 1)
            for n_plus in n_range:
                for alpha in sorted_multi(tot, n_plus, 1):
                    rows.extend(_count_rows(alpha, None, 0, c))
        _emit_rows(rows, args.format, args.out)
    elif args.what == "correlator":
        _check_budget("correlator --cap", args.cap, CORRELATOR_CAP_BUDGET)
        w = spectral.laplace_W(args.g, args.n, args.cap)
        _emit(_json_dumps(w.to_json_dict()), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _at_least(low: int):
    """argparse type of an integer option with lower bound ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _suite_names(text: str) -> List[str]:
    """argparse type of --suites: the comma list, each suite once in
    first-seen order, so stdout agrees with --out; a lone ``all`` is every
    suite."""
    names = list(dict.fromkeys(s.strip() for s in text.split(",") if s.strip()))
    if names == ["all"]:
        return list(VERIFY_SUITES)
    unknown = [s for s in names if s not in VERIFY_SUITES]
    if not names or unknown:
        got = f"unknown suites {unknown}" if unknown else "no suites given"
        raise argparse.ArgumentTypeError(f"{got}; known: {', '.join(VERIFY_SUITES)}")
    return names


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dessins",
        description="Exact counts of directed ribbon graphs / dessins, four ways.",
    )
    ap.add_argument("--threads", type=_at_least(1), default=1, help="brute-force worker count")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zfun", help="partition-function layers")
    p.add_argument("--dmax", type=_at_least(0), default=3)
    p.add_argument("--dmax0", type=_at_least(0), default=2, help="q0 depth for --bivalent")
    p.add_argument("--bivalent", action="store_true")
    p.add_argument("--marker", action="store_true", help="track negative boundaries with t-")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_zfun)

    p = sub.add_parser("counts", help="weighted dessin counts for a profile")
    p.add_argument("--g", type=_at_least(0), default=None)
    p.add_argument("--alpha", required=True, help="positive perimeters, e.g. '1 1 2'")
    p.add_argument("--m", type=_at_least(0), default=0, help="bivalent vertex count")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_counts)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument(
        "--suites", type=_suite_names, default="all",
        help=f"comma list from: {','.join(VERIFY_SUITES)},all; a suite named twice runs once",
    )
    p.add_argument("--deg-cap", dest="deg_cap", type=_at_least(0), default=10)
    p.add_argument("--dmax", type=_at_least(1), default=4)
    p.add_argument("--order", type=_at_least(0), default=8)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("tr", help="topological-recursion differential")
    p.add_argument("--g", type=_at_least(0), required=True)
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--order", type=_at_least(0), default=8)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_tr)

    p = sub.add_parser("export", help="JSON/CSV dumps")
    p.add_argument("--what", choices=["kernel", "maps", "counts", "correlator"], required=True)
    p.add_argument("--g", type=_at_least(0), default=0)
    p.add_argument("--n", type=_at_least(1), default=3)
    p.add_argument("--nplus", type=_at_least(0), default=0)
    p.add_argument("--nminus", type=_at_least(1), default=1)
    p.add_argument("--cap", type=_at_least(0), default=6)
    p.add_argument("--v4", type=_at_least(0), default=1)
    p.add_argument("--v2", type=_at_least(0), default=0)
    p.add_argument("--s-max", dest="s_max", type=_at_least(0), default=6)
    p.add_argument("--format", choices=["csv", "json"], default="json")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_export)
    return ap


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` request, built once per process; each
    ``parse_args`` call still returns a fresh namespace."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 2 after its usage message, 0 after --help
        return exc.code
    # every command has --out; an unwritable one fails before any work
    problem = args.out and _out_problem(args.out)
    if problem:
        return _usage_error(problem)
    try:
        maps.configure_threads(args.threads)
        return args.fn(args)
    except (OSError, ValueError) as exc:
        return _usage_error(str(exc))
    except BudgetExceeded as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
