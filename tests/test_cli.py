import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dessins import cli, maps, opmatrix, spectral, tutte
from dessins import partition as pt
from dessins.series import Poly


def run_cli(*argv):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def test_zfun_dmax0():
    code, out = run_cli("zfun", "--dmax", "0")
    assert code == 0
    assert out.strip() == "q^0: 1"


def test_zfun_layers_text():
    code, out = run_cli("zfun", "--dmax", "2")
    assert code == 0
    assert "q^1: 1/2*t1^2 + t2" in out
    assert "q^2: 3*t1*t3 + 3/2*t1^2*t2 + 1/8*t1^4 + 3/2*t2^2 + 3*t4" in out


def test_counts_table():
    code, out = run_cli("counts", "--alpha", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "g,n_plus,n_minus,m,alpha,count"
    assert "0,1,3,0,4,1/2" in lines
    assert "1,1,1,0,4,1/4" in lines


def test_counts_rejects_bad_alpha():
    code, _ = run_cli("counts", "--alpha", "0")
    assert code == cli.EXIT_USAGE


def test_verify_witt_exit_zero():
    code, out = run_cli("verify", "--suites", "witt", "--deg-cap", "6")
    assert code == 0
    assert "PASS witt" in out


def test_verify_unknown_suite_usage_error():
    code, _ = run_cli("verify", "--suites", "nonsense")
    assert code == cli.EXIT_USAGE


def test_verify_aggregates_without_short_circuit(monkeypatch):
    calls = []

    def fake_fail(args):
        calls.append("first")
        return ["residual"]

    def fake_pass(args):
        calls.append("second")
        return []

    monkeypatch.setitem(cli.VERIFY_SUITES, "witt", fake_fail)
    monkeypatch.setitem(cli.VERIFY_SUITES, "bergman", fake_pass)
    code, out = run_cli("verify", "--suites", "witt,bergman")
    assert code == cli.EXIT_RESIDUAL
    assert calls == ["first", "second"]
    assert "FAIL witt" in out and "PASS bergman" in out


def test_verify_runs_a_repeated_suite_once(monkeypatch, tmp_path):
    calls = []

    def fake(name):
        def suite(args):
            calls.append(name)
            return []

        return suite

    for name in ("witt", "bergman"):
        monkeypatch.setitem(cli.VERIFY_SUITES, name, fake(name))
    out_path = tmp_path / "report.json"
    code, out = run_cli("verify", "--suites", "witt, bergman,witt,,bergman", "--out", str(out_path))
    assert code == 0
    assert calls == ["witt", "bergman"]
    assert out == "PASS witt\nPASS bergman\n"
    assert json.loads(out_path.read_text()) == {"witt": [], "bergman": []}


def test_budget_exit_code():
    code, _ = run_cli("verify", "--suites", "oracle", "--dmax", "11")
    assert code == cli.EXIT_BUDGET


def test_tr_json_deterministic_and_exact():
    code1, out1 = run_cli("tr", "--g", "1", "--n", "1", "--order", "7")
    code2, out2 = run_cli("tr", "--g", "1", "--n", "1", "--order", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["expansion"]["5"] == "1"
    assert all(p["at"] in (1, -1) for p in payload["poles"] for p in [p] for p in p["factors"])


def test_json_independent_of_threads(tmp_path, monkeypatch):
    # the oracle suite scans tables of up to 16 darts, which open the fork
    # pool at two workers; each run starts from empty tables
    import multiprocessing

    contexts = []
    get_context = multiprocessing.get_context

    def counting(method=None):
        contexts.append(method)
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", counting)
    outs = {}
    try:
        for threads in ("1", "2"):
            maps._dessin_table.cache_clear()
            outs[threads] = tmp_path / f"t{threads}.json"
            code, text = run_cli("--threads", threads, "verify", "--suites", "oracle",
                                 "--out", str(outs[threads]))
            assert code == 0 and text == "PASS oracle\n"
            assert bool(contexts) == (threads == "2")
    finally:
        maps.configure_threads(1)
        maps._dessin_table.cache_clear()
    assert outs["1"].read_bytes() == outs["2"].read_bytes() == b'{\n  "oracle": []\n}\n'


# sha256 of the `export --what maps` stdout, pinned from commit 2932322, when
# the shared connected-map step still listed each face's darts
MAP_DUMP_SHA256 = {
    (1, 0): "45d0d62c290af6b36df9115d8acf48d85d158d8833962c9e2ef21bdba6e149eb",
    (2, 0): "f3b84829e61b05596a7bdcb37c7aefcc901f5e4fbe72e914f678094d09525afb",
    (1, 2): "3745bb8b9a3cc06e8a23fe010fdc0a993c94c26977f7e83ccf17d7c1528ce2f8",
    (2, 2): "75090342d618a34341b32b6aa53b7c153b6cecf04ec7e9635b318fb0d913ce9f",
    (3, 1): "2083282aeeae2757b9ca567a0bc6ae18e1d500f1d74c32293bf85ee038613cd1",
}


@pytest.mark.parametrize("v4,v2", list(MAP_DUMP_SHA256))
def test_export_maps_dump_golden(v4, v2):
    code, out = run_cli("export", "--what", "maps", "--v4", str(v4), "--v2", str(v2))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MAP_DUMP_SHA256[(v4, v2)]


def test_export_maps_dump(tmp_path):
    out = tmp_path / "maps.txt"
    code, _ = run_cli("export", "--what", "maps", "--v4", "1", "--v2", "0", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4
    assert all(line.startswith("darts=4 s0=(0 1 2 3)") for line in lines)


def test_export_counts_csv(tmp_path):
    out = tmp_path / "counts.csv"
    code, _ = run_cli("export", "--what", "counts", "--s-max", "4", "--format", "csv",
                      "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "g,n_plus,n_minus,m,alpha,count"
    assert "0,1,2,0,2,1/2" in lines


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dessins.cli", "zfun", "--dmax", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "q^1" in proc.stdout


def test_export_correlator_json(tmp_path):
    out = tmp_path / "w.json"
    code, _ = run_cli("export", "--what", "correlator", "--g", "0", "--n", "1",
                      "--cap", "6", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    table = {tuple(e["alpha"]): e["value"] for e in payload["coefficients"]}
    assert table[(4,)] == "2" and table[(6,)] == "5"


@pytest.mark.parametrize(
    "argv",
    [
        ("export", "--what", "kernel", "--g", "0", "--nplus", "1", "--nminus", "1"),
        ("export", "--what", "kernel", "--g", "0", "--nplus", "2", "--nminus", "1", "--cap", "1"),
        ("zfun", "--dmax", "-1"),
        ("zfun", "--bivalent", "--dmax", "-1"),
        ("counts", "--alpha", "x"),
        ("counts", "--alpha", "2", "--m", "-1"),
        ("counts", "--alpha", "4", "--g", "-1"),
        ("export", "--what", "correlator", "--n", "0"),
        ("export", "--what", "correlator", "--g", "-1", "--n", "1"),
        ("counts", "--alpha", "4", "--dmax", "4"),
        ("export", "--what", "counts", "--s-max", "-1"),
        ("export", "--what", "counts", "--nplus", "-1"),
        ("export", "--what", "correlator", "--cap", "-1"),
        ("export", "--what", "maps", "--v4", "-1"),
        ("export", "--what", "maps", "--v2", "-1"),
        ("export", "--what", "maps", "--v4", "0", "--v2", "0"),
        ("counts", "--alpha", "2", "--nplus", "1"),
        ("tr", "--g", "0", "--n", "3", "--order", "-1"),
        ("tr", "--g", "-1", "--n", "5"),
        ("verify", "--suites", "tr", "--order", "-1"),
        ("verify", "--suites", "loop", "--order", "-3"),
        ("verify", "--suites", "witt", "--deg-cap", "-3"),
        ("verify", "--suites", "bivalent", "--deg-cap", "-1"),
        ("verify", "--suites", ","),
        ("verify", "--suites", "all,witt"),
        ("verify", "--suites", "witt", "--dmax", "-5"),
        ("verify", "--suites", "virasoro", "--dmax", "-5"),
        # a window that would compare nothing: Virasoro checks no degree at
        # --dmax 0
        ("verify", "--suites", "virasoro", "--dmax", "0"),
        # every map walk is bounded by the fixed cli.DART_BUDGET, and the
        # oracle window by it
        ("verify", "--s-max", "8"),
        ("verify", "--n-budget", "16"),
        ("export", "--what", "maps", "--n-budget", "16"),
        ("--threads", "0", "zfun", "--dmax", "1"),
        ("--threads", "-1", "zfun", "--dmax", "1"),
        ("zfun", "--dmax0", "-5"),
        ("export", "--what", "maps", "--cap", "-3"),
        ("export", "--what", "kernel", "--g", "0", "--nplus", "1", "--nminus", "2", "--n", "-4"),
        ("export", "--what", "omega"),
        # no map has the profile: an odd total, a genus out of reach, more
        # positive boundaries than a total of at most --s-max can carry
        ("counts", "--alpha", "3"),
        ("counts", "--alpha", "1 1", "--g", "5"),
        ("export", "--what", "counts", "--s-max", "4", "--nplus", "9"),
        ("export", "--what", "counts", "--s-max", "6", "--nplus", "5"),
        # a usage error comes before any budget check
        ("verify", "--suites", "nosuch", "--order", "99"),
        ("verify", "--suites", ",", "--deg-cap", "99"),
        # an --out that cannot be written fails before any work
        ("verify", "--suites", "witt", "--out", "/nonexistent/dir/v.json"),
    ],
    ids=" ".join,
)
def test_bad_input_exits_usage_with_message(argv):
    _assert_usage_error(argv)


@pytest.mark.parametrize("argv", [("zfun", "--dmax", "-1"), ("zfun", "--nosuch")], ids=" ".join)
def test_main_returns_usage_code_in_process(argv, capsys):
    assert cli.main(list(argv)) == cli.EXIT_USAGE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("zfun", "--dmax", "1"),
    ("counts", "--alpha", "2"),
    ("verify", "--suites", "witt"),
    ("tr", "--g", "0", "--n", "3"),
    ("export", "--what", "kernel"),
], ids=" ".join)
def test_unwritable_out_exits_usage_before_any_work(argv, tmp_path, capsys):
    # a folder, and a file in a missing folder; verify would print PASS
    for out in (tmp_path, tmp_path / "missing" / "o.json"):
        assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: --out {out}" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_budget_exit_creates_no_out_file(tmp_path):
    out = tmp_path / "v.json"
    argv = ["verify", "--suites", "witt", "--deg-cap", "99", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_BUDGET
    assert not out.exists()


def test_export_counts_at_the_largest_nplus_of_its_s_max():
    # --s-max 6 carries n+ <= 4: alpha = (1, 1, 1, 3), (1, 1, 2, 2) at genus 0
    code, out = run_cli("export", "--what", "counts", "--s-max", "6", "--nplus", "4")
    assert code == 0
    assert {(r["g"], r["n_plus"], r["n_minus"]) for r in json.loads(out)["rows"]} == {(0, 4, 1)}


def test_kernel_over_budget_exits_budget_with_message():
    # (0,4,3) needs 20 darts, over cli.DART_BUDGET = 16
    _assert_budget_error(
        ("export", "--what", "kernel", "--g", "0", "--nplus", "4", "--nminus", "3", "--cap", "10")
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("zfun", "--dmax", "11"),
        ("zfun", "--bivalent", "--dmax0", "5", "--dmax", "6"),
        ("counts", "--alpha", "22"),
        ("counts", "--alpha", "21", "--m", "1"),
        ("export", "--what", "counts", "--s-max", "22"),
        ("verify", "--suites", "virasoro", "--dmax", "11"),
        ("verify", "--suites", "witt", "--dmax", "11"),
    ],
    ids=" ".join,
)
def test_flow_over_depth_budget_exits_budget_with_message(argv):
    # one step past cli.FLOW_DEPTH_BUDGET = 10 in q-order m + d
    _assert_budget_error(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suites", "witt", "--deg-cap", "15"),
        ("verify", "--suites", "bivalent", "--deg-cap", "15"),
    ],
    ids=" ".join,
)
def test_deg_cap_over_budget_exits_budget_with_message(argv):
    # one past cli.COMMUTATOR_DEG_BUDGET = 14
    _assert_budget_error(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ("export", "--what", "maps", "--v4", "4", "--v2", "1"),
        ("tr", "--g", "5", "--n", "1"),
        ("tr", "--g", "0", "--n", "7"),
        ("tr", "--g", "0", "--n", "6", "--order", "13"),
        ("verify", "--suites", "tr", "--order", "13"),
        ("export", "--what", "correlator", "--g", "4", "--n", "4", "--cap", "21"),
        ("export", "--what", "correlator", "--g", "4", "--n", "4", "--cap", "40"),
        ("export", "--what", "kernel", "--g", "0", "--nplus", "3", "--nminus", "3", "--cap", "40"),
    ],
    ids=" ".join,
)
def test_scan_and_tr_over_budget_exit_budget_with_message(argv):
    # the map dump needs 18 darts, over cli.DART_BUDGET = 16; tr is one past
    # cli.TR_DEGREE_BUDGET = 4 in 2g - 2 + n, or one past cli.ORDER_BUDGET = 12;
    # a correlator is past cli.CORRELATOR_CAP_BUDGET = 20, and the (0,3,3)
    # kernel, its 16 darts within cli.DART_BUDGET, past cli.KERNEL_CAP_BUDGET = 20
    _assert_budget_error(argv)


def test_bivalent_suite_finds_a_key_the_map_walk_lost(monkeypatch):
    args = cli.build_parser().parse_args(["verify", "--suites", "bivalent"])
    real_table = maps._dessin_table
    lost = next(iter(real_table(1, 2)))

    def table_without_one_key(v4, v2):
        table = real_table(v4, v2)
        return {k: c for k, c in table.items() if (v4, v2, k) != (1, 2, lost)}

    monkeypatch.setattr(maps, "_dessin_table", table_without_one_key)
    findings = cli._suite_bivalent(args)
    assert len(findings) == 1 and ": brute force 0 != flow " in findings[0]


def test_bivalent_suite_finds_a_layer_the_flow_order_changed(monkeypatch):
    args = cli.build_parser().parse_args(["verify", "--suites", "bivalent"])
    real_flow = pt.partition_function_bivalent

    def q1_first_off(d0_max, d1_max, with_marker=False, q1_first=False):
        z = real_flow(d0_max, d1_max, with_marker, q1_first)
        if q1_first:
            z.layers[(1, 1)] = z.layer(1, 1) + Poly.one()
        return z

    monkeypatch.setattr(pt, "partition_function_bivalent", q1_first_off)
    findings = cli._suite_bivalent(args)
    assert len(findings) == 1 and findings[0].startswith("(1, 1): q1-first flow ")


def test_tr_at_degree_budget_runs():
    code, out = run_cli("tr", "--g", "2", "--n", "2", "--order", "2")
    assert code == 0 and json.loads(out)["g"] == 2


def test_order_and_correlator_cap_at_budget_run():
    code, out = run_cli("tr", "--g", "1", "--n", "1", "--order", str(cli.ORDER_BUDGET))
    assert code == 0 and json.loads(out)["expansion"]
    code, out = run_cli(
        "export", "--what", "correlator", "--g", "0", "--n", "1",
        "--cap", str(cli.CORRELATOR_CAP_BUDGET),
    )
    assert code == 0 and json.loads(out)["cap"] == cli.CORRELATOR_CAP_BUDGET


def test_correlator_at_a_huge_genus_exits_at_once():
    # no surface of genus 10^6 has perimeter 4, so the table is empty; the
    # timeout turns a walk over every lower genus into a failure
    argv = ("export", "--what", "correlator", "--g", "1000000", "--n", "1", "--cap", "4")
    proc = _run_module(argv, timeout=20)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"cap": 4, "coefficients": [], "g": 1000000, "n": 1}


def test_parser_built_once_with_a_fresh_namespace_per_request():
    first = cli._parser().parse_args(["verify", "--suites", "witt", "--deg-cap", "3"])
    first.deg_cap = -1
    second = cli._parser().parse_args(["verify"])
    assert cli._parser() is cli._parser()
    assert second is not first
    assert (second.suites, second.deg_cap) == (list(cli.VERIFY_SUITES), 10)


def test_export_counts_builds_one_connected_series(monkeypatch):
    calls = []
    real_connected = pt.connected

    def counting(z):
        calls.append(z)
        return real_connected(z)

    monkeypatch.setattr(pt, "connected", counting)
    code, out = run_cli("export", "--what", "counts", "--s-max", "8")
    assert code == 0 and json.loads(out)["rows"]
    assert len(calls) == 1


# the suites that walk maps
MAP_WALKING_SUITES = {"cutjoin", "oracle", "opmatrix", "norbury", "adjoint", "bivalent"}


def test_each_suite_walks_at_most_the_dart_budget(monkeypatch):
    darts = []

    def recording(walk, size):
        def call(*key):
            darts.append(size(*key))
            return walk(*key)

        return call

    monkeypatch.setattr(maps, "_dessin_table",
                        recording(maps._dessin_table, lambda v4, v2: 4 * v4 + 2 * v2))
    monkeypatch.setattr(opmatrix, "_structures", recording(opmatrix._structures, lambda d: 4 * d))
    monkeypatch.setattr(maps, "_norbury_cells", recording(
        maps._norbury_cells, lambda g, n: max(sum(t) for t in maps._valence_types(g, n))
    ))
    args = cli.build_parser().parse_args(["verify"])
    largest = {}
    for name in MAP_WALKING_SUITES:
        # the cached callers of the walks, so each suite walks again
        for cached in (opmatrix.kernel_block, opmatrix.assembled_operator, maps._norbury_table):
            cached.cache_clear()
        darts.clear()
        assert cli.VERIFY_SUITES[name](args) == []
        largest[name] = max(darts)
    assert max(largest.values()) <= cli.DART_BUDGET, largest
    # the oracle window is the widest the budget allows
    assert largest["oracle"] == cli.DART_BUDGET


def test_tutte_suite_checks_connected_series_through_sum_16(monkeypatch):
    args = cli.build_parser().parse_args(["verify", "--suites", "tutte"])
    assert cli._suite_tutte(args) == []
    keys = list(cli._oracle_keys(cli.TUTTE_CONNECTED_SUM_MAX))
    assert len(keys) == 1003 and max(sum(k.alpha) for k in keys) == 16
    # one coefficient of the connected series off by one, at sum(alpha) = 16
    bumped = pt.CountKey(2, 1, 5, (16,))
    real_count = pt.count
    monkeypatch.setattr(pt, "count", lambda c, key: real_count(c, key) + (key == bumped))
    want = Fraction(tutte.r_tilde(2, 1, (16,)), 16)
    assert cli._suite_tutte(args) == [f"{bumped}: tutte {want} != flow {want + 1}"]


def test_tutte_suite_finds_a_partition_the_flow_lost(monkeypatch):
    args = cli.build_parser().parse_args(["verify", "--suites", "tutte"])
    real_flow = pt.partition_function

    def flow_without_t2_squared(d_max, with_marker=False):
        z = real_flow(d_max, with_marker)
        kept = {m: c for m, c in z.layer(2).terms.items() if m.partition() != (2, 2)}
        return pt.QSeries({**z.layers, (0, 2): Poly(kept)}, marker=z.marker)

    monkeypatch.setattr(pt, "partition_function", flow_without_t2_squared)
    # 2! [t2^2 q^2] Z = 3: the connected 2 and the split pair of discs
    assert cli._suite_tutte(args) == ["(2, 2): tutte 3 != flow 0"]


def test_agree_names_each_key_and_route_off_the_flow():
    keys = range(4)
    one_off = {"flow": lambda k: k, "a": lambda k: k + (k == 2), "b": lambda k: k}
    assert cli._agree(keys, one_off) == ["2: a 3 != flow 2"]
    # a reference that is off disagrees with every other route
    flow_off = {"flow": lambda k: k + (k == 1), "a": lambda k: k, "b": lambda k: k}
    assert cli._agree(keys, flow_off) == ["1: a 1 != flow 2", "1: b 1 != flow 2"]


@pytest.mark.parametrize("route, name", [("_enumerated", "brute force"), ("_tutte_count", "tutte")])
def test_oracle_suite_finds_one_route_off_on_one_key(monkeypatch, route, name):
    args = cli.build_parser().parse_args(["verify", "--suites", "oracle"])
    bumped = pt.CountKey(1, 1, 1, (4,))
    assert bumped in set(cli._oracle_keys(cli.ORACLE_SUM_MAX))
    real_route = getattr(cli, route)
    monkeypatch.setattr(cli, route, lambda key: real_route(key) + (key == bumped))
    want = real_route(bumped)
    assert cli._suite_oracle(args) == [f"{bumped}: {name} {want + 1} != flow {want}"]


@pytest.mark.parametrize("order", [["--order", "0"], []], ids=["order 0", "default order"])
@pytest.mark.parametrize("suite, types", [("tr", 8), ("loop", 6)])
def test_each_tr_and_loop_type_compares_a_nonzero_coefficient(monkeypatch, suite, types, order):
    # per type, the nonzero coefficients its one table comparison sees
    seen = []
    check = {"tr": "tr_agreement_check", "loop": "loop_check"}[suite]
    real_check, real_mismatches = getattr(spectral, check), spectral._mismatches

    def recording_check(g, n, hi):
        seen.append([(g, n), 0])
        return real_check(g, n, hi)

    def counting_mismatches(lhs, rhs, hi):
        seen[-1][1] += sum(1 for t in (lhs, rhs) for e, v in t.items() if v and sum(e) <= hi)
        return real_mismatches(lhs, rhs, hi)

    monkeypatch.setattr(spectral, check, recording_check)
    monkeypatch.setattr(spectral, "_mismatches", counting_mismatches)
    args = cli.build_parser().parse_args(["verify", "--suites", suite, *order])
    assert cli.VERIFY_SUITES[suite](args) == []
    assert len(seen) == types
    assert [gn for gn, nonzero in seen if not nonzero] == []


@pytest.mark.parametrize("doubled", [(0, 5), (2, 2)], ids=str)
def test_tr_suite_finds_a_doubled_omega_at_the_default_order(monkeypatch, doubled):
    real_omega = spectral.tr_omega

    def doubling(g, n):
        om = real_omega(g, n)
        if (g, n) != doubled:
            return om
        return spectral.OmegaDifferential(g, n, {k: 2 * c for k, c in om.value.items()})

    monkeypatch.setattr(spectral, "tr_omega", doubling)
    findings = cli._suite_tr(cli.build_parser().parse_args(["verify", "--suites", "tr"]))
    g, n = doubled
    assert findings and all(f.startswith(f"(g,n)=({g},{n}) exponent ") for f in findings)


def _run_module(argv, timeout=None):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "dessins.cli", *argv], capture_output=True, text=True, env=env,
        timeout=timeout,
    )


def _assert_budget_error(argv):
    proc = _run_module(argv)
    assert proc.returncode == cli.EXIT_BUDGET
    assert "error: budget exceeded" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def _assert_usage_error(argv):
    proc = _run_module(argv)
    assert proc.returncode == cli.EXIT_USAGE
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
