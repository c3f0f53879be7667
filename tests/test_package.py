"""The package as a whole: which route imports which, what importing it
loads, and the value semantics of its record types."""

import ast
import functools
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import dessins
from dessins import maps, opmatrix, spectral
from dessins import operators as ops
from dessins import partition as pt
from dessins.series import Monomial

PACKAGE = pathlib.Path(dessins.__file__).parent

# the in-package imports of each module; the routes stay independent:
# the brute force (maps) and the Tutte recursion (tutte) use no Fock-space code
IN_PACKAGE_IMPORTS = {
    "__init__": {"series", "operators", "partition", "tutte", "maps", "opmatrix", "spectral"},
    "cli": {"series", "operators", "partition", "tutte", "maps", "opmatrix", "spectral"},
    "series": set(),
    "tutte": set(),
    "maps": set(),
    "operators": {"series"},
    "partition": {"operators", "series"},
    "opmatrix": {"maps", "operators", "partition", "series"},
    "spectral": {"tutte", "maps", "series"},
}


def _imports(path):
    """(in-package modules, outside modules) that ``path`` imports anywhere."""
    inside, outside = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                inside.add(node.module.split(".")[0])
            else:
                inside.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            outside.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            outside.update(alias.name.split(".")[0] for alias in node.names)
    return inside, outside


def test_each_module_imports_only_its_pinned_routes():
    paths = sorted(PACKAGE.glob("*.py"))
    assert {p.stem for p in paths} == set(IN_PACKAGE_IMPORTS)
    for path in paths:
        inside, outside = _imports(path)
        assert inside == IN_PACKAGE_IMPORTS[path.stem], path.stem
        assert not outside & {"dessins", "dataclasses"}, path.stem


def test_importing_the_cli_loads_no_dataclasses():
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
        "import dessins, dessins.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout == "[]\n"


# ---------------------------------------------------------------------------
# records: immutable, hashed and compared by value
# ---------------------------------------------------------------------------

RECORDS = {
    "CountKey": lambda: pt.CountKey(0, 1, 1, (2,)),
    "EnumSpec": lambda: maps.EnumSpec(1, 0, 1, 1, (2,)),
    "DirectedMap": lambda: next(maps.directed_maps((4,))),
    "DiffTerm": lambda: ops.DiffTerm(Fraction(1), Monomial({1: 1}), ((1, 1),)),
    "KernelBlock": lambda: opmatrix.kernel_block(0, 1, 2, 4),
    "CorrelatorSeries": lambda: spectral.laplace_W(0, 3, 4),
    "OmegaDifferential": lambda: spectral.tr_omega(0, 3),
    "_Factor": lambda: spectral._Factor(0, lambda hi: None),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_cannot_be_assigned(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_diffop_fields_and_memos_cannot_be_assigned_or_deleted():
    op = ops.w0()
    for field in ("name", "order", "den", "coeffs", "_groups", "_images"):
        with pytest.raises(AttributeError):
            setattr(op, field, None)
        with pytest.raises(AttributeError):
            delattr(op, field)
    with pytest.raises(AttributeError):
        op.extra = 1


def test_diffop_equality_and_hash_cover_name_order_den_and_coeffs():
    w0 = ops.w0()
    same = ops.DiffOp("W0", 1, 1, w0.coeffs)
    assert same == w0 and hash(same) == hash(w0)
    for other in (
        ops.DiffOp("W0'", 1, 1, w0.coeffs),
        ops.DiffOp("W0", 2, 1, w0.coeffs),
        ops.DiffOp("W0", 1, 2, w0.coeffs),
        ops.DiffOp("W0", 1, 1, ops.p_plus().coeffs),
    ):
        assert other != w0
    assert w0 != ("W0", 1, 1, w0.coeffs)


def test_equal_keys_and_specs_hash_equal():
    alpha = (2, 4)
    a = pt.CountKey(1, 2, 1, alpha)
    b = pt.CountKey(1, 2, 1, tuple(list(alpha)), m=0)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    s = maps.EnumSpec(3, 0, 2, 1, alpha, g=1)
    t = maps.EnumSpec(3, 0, 2, 1, tuple(list(alpha)), g=1)
    assert s == t and hash(s) == hash(t) and len({s, t}) == 1


def test_equal_specs_build_one_dessin_table(monkeypatch):
    # a cache of its own, so the test neither empties nor reads the shared one
    table = functools.lru_cache(maxsize=None)(maps._dessin_table.__wrapped__)
    monkeypatch.setattr(maps, "_dessin_table", table)
    a = maps.count_dessins(maps.EnumSpec(3, 0, 2, 1, (2, 4), g=1))
    b = maps.count_dessins(maps.EnumSpec(3, 0, 2, 1, (2, 4), g=1))
    assert a == b == Fraction(1, 2)
    info = table.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_qseries_is_unhashable_and_compares_by_value():
    z = pt.partition_function(2, with_marker=True)
    with pytest.raises(TypeError):
        hash(z)
    copy = pt.QSeries(dict(z.layers), marker=True)
    assert copy == z and not copy != z
    assert pt.QSeries(dict(z.layers), marker=False) != z
    assert pt.QSeries(dict(z.layers), marker=True, connected_form=True) != z
    assert pt.partition_function(1, with_marker=True) != z
    copy.layers[(0, 0)] = copy.layer(0) + copy.layer(0)
    assert copy != z
