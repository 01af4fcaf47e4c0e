"""What bench/tracing.py reads from the engine, pinned from this side, the
names in src/ that no code in src/ reads, the defaulted parameters no call
sets, the errors src/ raises, that src/ reads no environment variable, that
it has one working margin, that one kernel assembles the exponential
Riordan arrays, and that only opalg reads operator column storage.

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
from umbral.indexfn import Poly
from umbral.opalg import OpMatrix
from umbral.series import riccati_series

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
SRC = Path(__file__).resolve().parent.parent / "src" / "umbral"
TESTS = Path(__file__).resolve().parent


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


def test_no_module_reads_the_environment():
    # what the CLI prints is a function of its command line alone
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                assert name not in ("environ", "getenv"), f"{path.name}:{node.lineno}"


def test_one_working_margin():
    # every build works at order + FAMILY_MARGIN: no function takes a margin,
    # and no module assigns a second one
    params, margins = [], []
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                a = node.args
                params += [f"{path.name}:{node.lineno}" for x in a.posonlyargs + a.args + a.kwonlyargs if x.arg == "margin"]
        margins += [
            f"{path.stem}.{t.id}"
            for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
            for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(t, ast.Name) and t.id.endswith("MARGIN")
        ]
    assert params == []
    assert margins == ["families.FAMILY_MARGIN"]


def test_one_exponential_riordan_assembler(monkeypatch):
    # the arrays (ell, y), (1, reverse f), (1, g) and (psi^alpha, y/psi) make
    # their row series and reach OpMatrix._exp_riordan, which alone weights
    # by n!/a! and assembles the columns: none of the four multiplies a
    # running weight in place or makes an OpMatrix of columns of its own
    tree = ast.parse((SRC / "opalg.py").read_text())
    (op,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "OpMatrix"]
    methods = {n.name: n for n in op.body if isinstance(n, ast.FunctionDef)}
    calls = []
    kernel = OpMatrix._exp_riordan
    spy = classmethod(lambda cls, *args: calls.append(1) or kernel(*args))
    monkeypatch.setattr(OpMatrix, "_exp_riordan", spy)
    f, nw = riccati_series(F(1, 2), F(1, 3), F(2, 5), 6), 6
    builds = {
        "series_of_d": lambda: OpMatrix.series_of_d(f, nw),
        "umbral_compose": lambda: OpMatrix.umbral_compose(f, nw),
        "umbral_compose_inverse": lambda: OpMatrix.umbral_compose_inverse(f, nw),
        "sheffer_pair": lambda: OpMatrix.sheffer_pair(Poly([1, F(1, 3)]), F(-1, 2), nw),
    }
    for name, build in builds.items():
        calls.clear()
        build()
        assert calls == [1], name
        body = list(ast.walk(methods[name]))
        assert not [n for n in body if isinstance(n, ast.AugAssign) and isinstance(n.op, ast.Mult)], name
        assert not [n for n in body if isinstance(n, ast.Attribute) and n.attr == "_of"], name


def storage_reads(path: Path) -> list:
    """Where the module reads an attribute named `cols` or names OpMatrix._of."""
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and (
            node.attr == "cols" or (node.attr == "_of" and isinstance(node.value, ast.Name) and node.value.id == "OpMatrix")
        )
    ]


def test_only_opalg_reads_operator_columns():
    # the column format, and the rule that a `_compared` product's columns
    # may be non-canonical, are opalg's alone: every other module goes
    # through OpMatrix methods, so a change of storage touches one module
    assert storage_reads(SRC / "opalg.py")
    assert [where for path in SRC.glob("*.py") if path.name != "opalg.py" for where in storage_reads(path)] == []


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


# Defaulted parameters of src/ that no call in src/ or tests/ sets, each with
# the reason the default stays; any other default no call sets is a constant.
_CLASS_CALL = "a constructor default: the class is called by its name, never as __init__"
UNSET_DEFAULTS = {
    "indexfn.IndexRatio.__init__(den)": _CLASS_CALL,
    "errors.DiagSingular.__init__(detail)": _CLASS_CALL,
    "errors.SingularParams.__init__(detail)": _CLASS_CALL,
}


def defaulted_params() -> list:
    """(label, name, parameter, positional index or None, default) for each
    defaulted parameter of a function or method in src/umbral; a method's
    index leaves out self or cls, and the default is its ast dump."""
    out = []

    def visit(body, owner, in_class):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{owner}.{node.name}", True)
            elif isinstance(node, ast.FunctionDef):
                a, label = node.args, f"{owner}.{node.name}"
                positional = (a.posonlyargs + a.args)[1 if in_class else 0:]
                first = len(positional) - len(a.defaults)
                for i, (arg, d) in enumerate(zip(positional[first:], a.defaults), start=first):
                    out.append((f"{label}({arg.arg})", node.name, arg.arg, i, ast.dump(d)))
                for arg, d in zip(a.kwonlyargs, a.kw_defaults):
                    if d is not None:
                        out.append((f"{label}({arg.arg})", node.name, arg.arg, None, ast.dump(d)))
                visit(node.body, label, False)

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text()).body, path.stem, False)
    return out


def sets(call: ast.Call, param: str, index, default: str) -> bool:
    """Whether the call sets the parameter to other than its default: by
    keyword or by position, or maybe through * or ** unpacking."""
    if any(k.arg is None or (k.arg == param and ast.dump(k.value) != default) for k in call.keywords):
        return True
    return any(isinstance(x, ast.Starred) or (i == index and ast.dump(x) != default) for i, x in enumerate(call.args))


def unset_defaults() -> set:
    """The defaulted parameters no call in src/ or tests/ sets, matching a
    call by the name it calls, as UNREAD_IN_SRC matches a read."""
    calls = {}
    for path in [*SRC.glob("*.py"), *TESTS.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    return {
        label for label, name, param, index, default in defaulted_params()
        if not any(sets(call, param, index, default) for call in calls.get(name, ()))
    }


def test_every_default_no_call_sets_is_allowed_by_name():
    assert unset_defaults() == set(UNSET_DEFAULTS)


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
