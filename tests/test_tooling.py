"""What bench/tracing.py reads from the engine, pinned from this side, the
names in src/ that no code in src/ reads, and the errors src/ raises.

The tracer wraps the engine from outside src/: it looks up the methods in
its METHODS table by name, and its bit-height, product-count and repeat-key
counters read ``OpMatrix.mat`` and ``TruncSeries.coeffs`` as Fraction
values.  A refactor of the storage behind those names fails here, not in a
benchmark run.
"""
import ast
import importlib
import importlib.util
import inspect
from fractions import Fraction as F
from pathlib import Path

from umbral import associated, cli, errors, families
from umbral.opalg import OpMatrix
from umbral.series import riccati_series

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
SRC = Path(__file__).resolve().parent.parent / "src" / "umbral"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_methods_resolve():
    tracing = load_tracing()
    assert tracing.METHODS
    for module, cls, attr, name in tracing.METHODS:
        owner = getattr(importlib.import_module(f"umbral.{module}"), cls)
        assert attr in vars(owner), name  # the tracer wraps cls.__dict__[attr]
        assert name.split(".", 1)[0] == tracing.LAYER_OF[module]


def test_views_the_counters_read_are_fractions():
    tracing = load_tracing()
    nw = 6
    f = riccati_series(F(1, 2), F(1, 3), F(2, 5), nw)
    assert all(type(c) is F for c in f.coeffs)
    cf = OpMatrix.umbral_compose(f, nw)
    op = OpMatrix.x_op(nw) @ cf.inverse()
    for m in (cf, op):
        mat = m.mat
        assert len(mat) == nw + 1 and all(len(row) == nw + 1 for row in mat)
        assert all(type(v) is F for row in mat for v in row)
        assert all(mat[i][j] == m.entry(i, j) for i in range(nw + 1) for j in range(nw + 1))
        assert not hasattr(m, "coeffs")  # max_bits would read it first
        bits = max(max(v.numerator.bit_length(), v.denominator.bit_length()) for row in mat for v in row)
        assert tracing.max_bits(m) == bits > 1
    assert tracing.max_bits(f) > 1
    nonzero = sum(1 for i in range(nw + 1) for k in range(nw + 1) for j in range(nw + 1)
                  if op.mat[i][k] and cf.mat[k][j])
    assert tracing.matmul_products(op, cf) == nonzero
    assert tracing.inverse_key(cf) == tracing.inverse_key(OpMatrix(cf.mat, nw, 0, nw))


def test_names_the_tracer_keys_on():
    # spans are classified as builds by the families.*_family and
    # associated.*_assoc names, and the CLI tables are swapped only when
    # their values are functions
    for table, module, suffix in ((cli.FAMILIES, families, "_family"), (cli.ASSOCS, associated, "_assoc")):
        for build in table.values():
            assert inspect.isfunction(build) and build.__module__ == module.__name__, build
            assert build.__name__.endswith(suffix) and getattr(module, build.__name__) is build
    assert inspect.isfunction(families.conjugation_trick_checks)
    assert associated.sheffer_core is families.sheffer_core
    # associated solves no Riccati series itself; it re-exports the name
    # because bench/test_bench.py checks that the tracer wraps it there
    assert families.riccati_series is associated.riccati_series is riccati_series


def test_public_names_resolve_and_star_import():
    import umbral

    for name in umbral.__all__:
        assert hasattr(umbral, name), name
    namespace = {}
    exec("from umbral import *", namespace)
    assert set(umbral.__all__) <= set(namespace)


# Functions and methods of src/ that no code in src/ reads, each with the
# reason it stays.
UNREAD_IN_SRC = {
    "opalg.OpMatrix.inverse": "the tests' reference for the solvers; bench/tracing.py METHODS wraps it",
    "opalg.OpMatrix.apply_series": "the tests' reference; bench/tracing.py METHODS wraps it",
    "opalg.OpMatrix.mat": "the Fraction view the bench/tracing.py counters read",
    "series.TruncSeries.compose": "bench/tracing.py METHODS wraps it; the tests' reference for f'(omega)",
    "series.TruncSeries.log": "bench/tracing.py METHODS wraps it",
    "series.geometric_series": "the series tests' closed-form reference",
    "series.log1p_series": "the series tests' closed-form reference",
    "orthocore.dual_series_checks": "kept for ROADMAP item 7 (index duality over every family)",
    "orthocore.christoffel_darboux": "kept for ROADMAP item 8 (spectral transforms)",
}


def unread_in_src() -> set:
    """The module-level functions and methods of src/umbral whose name no
    Name or Attribute node in src/ reads, so a mention in a docstring or a
    comment is no reference; dunder methods, which Python calls, are left
    out."""
    defined, read = set(), set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            owner, members = path.stem, [node]
            if isinstance(node, ast.ClassDef):
                owner, members = f"{path.stem}.{node.name}", node.body
            for m in members:
                if isinstance(m, ast.FunctionDef) and not (m.name.startswith("__") and m.name.endswith("__")):
                    defined.add((owner, m.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return {f"{owner}.{name}" for owner, name in defined if name not in read}


def test_every_function_no_code_in_src_reads_is_allowed_by_name():
    assert unread_in_src() == set(UNREAD_IN_SRC)
    traced = {attr for _, _, attr, _ in load_tracing().METHODS}
    for name, reason in UNREAD_IN_SRC.items():
        assert "METHODS" not in reason or name.rsplit(".", 1)[1] in traced, name


# Nothing in src/ raises on a failed identity: a failed identity is a Check
# record, and an exception is one of the EngineError types, each for an input
# or a state the engine cannot work with.


def raised_names() -> set:
    """The name of what each raise statement in src/ raises."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                names.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    return names


def test_every_engine_error_is_raised_in_src():
    defined = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.EngineError) and value is not errors.EngineError
    }
    assert defined and defined <= raised_names(), defined - raised_names()


def test_no_code_in_src_asserts():
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
    assert "AssertionError" not in raised_names()
