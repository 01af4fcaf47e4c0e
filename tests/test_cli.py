import argparse
import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import umbral.cli as cli
from umbral import families
from umbral.cli import main, parse_params
from umbral.opalg import OpMatrix
from umbral.orthocore import MomentSeries, Recurrence
from umbral.series import TruncSeries


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_params():
    got = parse_params("lambda=1,a=0,b=1/2")
    assert got == {"lambda": F(1), "a": F(0), "b": F(1, 2)}
    with pytest.raises(ValueError):
        parse_params("lambda")


def test_family_ultraspherical(capsys):
    code, out, _ = run(
        capsys, "family", "ultraspherical", "--params", "lambda=1,a=0,b=1", "--order", "8"
    )
    assert code == 0
    data = json.loads(out)
    mu4 = F(data["f0"]["coeffs"][4]) * 24
    assert mu4 == 2
    assert data["recurrence"]["b"][:3] == ["1", "1/2", "1/3"]
    assert all(c["pass"] for c in data["checks"])


def test_family_hahn_integer_s_path(capsys):
    code, out, _ = run(capsys, "family", "hahn", "--params", "lambda=2,a=1/2,s=2", "--order", "8")
    assert code == 0
    data = json.loads(out)
    assert data["path"].startswith("closed-form")
    assert data["recurrence"]["b"] == ["1/4"]


def test_hahn_moment_route_at_s_5_is_what_the_cli_prints(capsys):
    f0, rec = families.hahn_moment_route(5, 12)
    assert len(rec.b) == 4
    code, out, _ = run(capsys, "family", "hahn", "--params", "lambda=2,a=1/2,s=5", "--order", "12")
    assert code == 0
    data = json.loads(out)
    assert data["recurrence"] == rec.to_json()
    assert data["f0"] == f0.to_json()


def test_family_jacobi_guard_exit_code(capsys):
    code, out, err = run(capsys, "family", "jacobi", "--params", "lambda=0,a=1,r=1")
    assert code == 2
    assert "kappa undefined" in err


@pytest.mark.parametrize("name, params", [("jacobi", "a=1,r=1"), ("wilson", "a=1,r=1,rtilde=1/2,h=1/3")])
@pytest.mark.parametrize("lam, detail", [("0", "kappa undefined"), ("-2", "kappa infinite")])
def test_square_case_families_reject_the_lambdas_without_a_kappa(capsys, name, params, lam, detail):
    # kappa = 2 lam/(2 + lam) is 0 at lam = 0 and infinite at lam = -2
    code, out, err = run(capsys, "family", name, "--params", f"lambda={lam},{params}")
    assert (code, out, err) == (2, "", f"error: lambda={lam} invalid: {detail}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("family", "ultraspherical", "--params", "lambda=0,a=1/2,b=1/4"),
        ("family", "hahn", "--params", "lambda=0,a=1/2,s=1/2"),
        ("family", "multiterm", "--params", "n=2,lambda=0,a=1/3,t0=1/3,t1=2/3"),
        ("assoc", "sheffer", "--params", "lambda=0,a=1/3,b=2/5", "--c", "1"),
        ("assoc", "ultraspherical", "--params", "lambda=0,a=1/2,b=1/4", "--c", "1"),
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_the_builds_that_divide_by_lambda_reject_lambda_zero_alike(capsys, argv):
    code, out, err = run(capsys, *argv, "--order", "6")
    assert (code, out, err) == (2, "", "error: lambda=0 invalid: the build needs 1/lambda powers\n")


# each command's --params defaults (the records' KEYS), written out
DEFAULTS = [
    (("family", "sheffer"), "lambda=1,a=0,b=1"),
    (("family", "ultraspherical"), "lambda=1,a=0,b=1"),
    (("family", "hahn"), "lambda=2,a=1/2,s=1/2"),
    (("family", "jacobi"), "lambda=2,a=1/2,r=1"),
    (("family", "wilson"), "lambda=2,a=1/3,r=1/2,rtilde=1/5,h=1/4"),
    (("assoc", "sheffer", "--c", "1"), "lambda=1,a=0,b=1"),
    (("assoc", "ultraspherical", "--c", "1"), "lambda=1,a=0,b=1"),
    (("assoc", "jacobi", "--c", "1"), "lambda=2,a=1/2,r=1"),
    (("assoc", "wilson", "--c", "1"), "lambda=2,a=1/3,r=1/2,rtilde=1/5,h=1/4"),
]


@pytest.mark.parametrize("argv, written", DEFAULTS, ids=[" ".join(argv[:2]) for argv, _ in DEFAULTS])
def test_every_build_passes_at_its_defaults(capsys, argv, written):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["order"] == 16 and data["checks"] and all(c["pass"] for c in data["checks"])
    code, spelled, _ = run(capsys, *argv, "--params", written)
    assert code == 0
    data.pop("params", None)
    assert data == {k: v for k, v in json.loads(spelled).items() if k != "params"}


def test_multiterm_defaults_still_need_the_weights(capsys):
    code, out, err = run(capsys, "family", "multiterm", "--order", "8")
    assert (code, out, err) == (2, "", "error: weights invalid: need 2 or 3 weights\n")


@pytest.mark.parametrize("argv, written", DEFAULTS[5:], ids=[argv[1] for argv, _ in DEFAULTS[5:]])
def test_assoc_pipelines_run_at_the_requested_order(capsys, argv, written):
    code, out, _ = run(capsys, *argv, "--params", written, "--order", "12")
    assert code == 0
    data = json.loads(out)
    assert data["pipelines"] and {p["order"] for p in data["pipelines"].values()} == {12}
    assert all(c["pass"] for c in data["checks"])


def test_family_csv_is_flat(capsys):
    code, out, _ = run(
        capsys,
        "family",
        "sheffer",
        "--params",
        "lambda=0,a=0,b=1/2",
        "--order",
        "6",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("a,")
    assert any(line.startswith("f0,") for line in lines)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_family_call_computes_the_norms_once(capsys, monkeypatch, fmt):
    made, norms = [], families.FamilyResult.norms
    monkeypatch.setattr(families.FamilyResult, "norms", property(lambda fam: made.append(1) or norms.fget(fam)))
    argv = ("family", "sheffer", "--params", "lambda=1/2,a=1/3,b=2/5", "--order", "6", "--format", fmt)
    assert run(capsys, *argv)[0] == 0
    assert made == [1]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_every_command_builds_its_csv_rows_only_for_csv(tmp_path, capsys, monkeypatch, fmt):
    built, emit = [], cli.emit
    monkeypatch.setattr(cli, "emit", lambda payload, args, rows: emit(payload, args, lambda: built.append(1) or rows()))
    rec = tmp_path / "rec.json"
    rec.write_text(json.dumps({"a": ["0"] * 4, "b": ["1"] * 3}))
    moments = tmp_path / "moments.json"
    moments.write_text(json.dumps({"order": 6, "coeffs": ["1", "0", "1", "0", "2", "0", "5"]}))
    argvs = [
        ("family", "sheffer", "--params", "lambda=1/2,a=1/3,b=2/5", "--order", "6"),
        ("family", "hahn", "--params", "lambda=2,a=1/2,s=2", "--order", "6"),  # the closed-form mgf route
        ("verify", "duality", "--order", "6"),
        ("cfrac", "rec2moments", str(rec), "--order", "5"),
        ("cfrac", "moments2rec", str(moments), "--round-trip"),
        ("assoc", "sheffer", "--params", "lambda=1,a=0,b=1", "--c", "1", "--order", "6"),
        ("asym", "falling-factorial", "--alpha", "1/2", "--s", "40,80", "--level", "1"),
    ]
    for argv in argvs:
        built.clear()
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == 0 and err == "", argv
        assert built == ([1] if fmt == "csv" else []), argv


def test_verify_longdiv(capsys):
    code, out, _ = run(
        capsys, "verify", "longdiv", "--samples", "3", "--seed", "7", "--order", "8"
    )
    assert code == 0
    data = json.loads(out)
    assert data["failed"] == 0 and data["total"] > 0


def test_verify_base_hermite_branch(capsys):
    code, out, _ = run(
        capsys, "verify", "base", "--samples", "1", "--order", "8"
    )
    assert code == 0


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "nonsense"])


def test_cfrac_round_trips(tmp_path, capsys):
    cats = [1]
    for m in range(7):
        cats.append(sum(cats[i] * cats[m - i] for i in range(m + 1)))
    coeffs = [str(cats[i // 2]) if i % 2 == 0 else "0" for i in range(15)]
    src = tmp_path / "catalan.json"
    src.write_text(json.dumps({"order": 14, "coeffs": coeffs}))
    code, out, _ = run(capsys, "cfrac", "moments2rec", str(src), "--round-trip")
    assert code == 0
    data = json.loads(out)
    assert data["recurrence"]["b"][:4] == ["1", "1/2", "1/3", "1/4"]
    assert all(v == "0" for v in data["recurrence"]["a"])
    assert data["round_trip"] is True

    rec = tmp_path / "rec.json"
    rec.write_text(json.dumps({"a": ["0"] * 8, "b": ["1"] * 7}))
    code, out, _ = run(capsys, "cfrac", "rec2moments", str(rec), "--order", "10", "--round-trip")
    assert code == 0
    data = json.loads(out)
    assert data["moment_gf"]["coeffs"][4] == "3"
    assert data["round_trip"] is True


@pytest.mark.parametrize("direction, data, planted", [
    ("moments2rec", {"order": 6, "coeffs": ["1", "0", "1", "0", "2", "0", "5"]}, "moments_from_recurrence"),
    ("rec2moments", {"a": ["0"] * 5, "b": ["1"] * 4}, "recurrence_from_moments"),
])
def test_cfrac_reports_a_failed_round_trip(tmp_path, capsys, monkeypatch, direction, data, planted):
    """A round trip that disagrees exits 1 with the full payload on stdout;
    the conversion back is planted to disagree in each direction."""
    src = tmp_path / "in.json"
    src.write_text(json.dumps(data))
    argv = ("cfrac", direction, str(src), "--order", "6", "--round-trip")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["round_trip"] is True
    real = getattr(cli, planted)

    def disagreeing(*args):
        got = real(*args)
        if planted == "moments_from_recurrence":
            return MomentSeries(got.moment_gf + TruncSeries.x(got.moment_gf.order))
        return Recurrence((got.a[0] + 1,) + got.a[1:], got.b)

    monkeypatch.setattr(cli, planted, disagreeing)
    code, bad, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    assert json.loads(bad) == {**json.loads(out), "round_trip": False}


def test_cfrac_degenerate_exit(tmp_path, capsys):
    src = tmp_path / "geom.json"
    src.write_text(json.dumps({"order": 8, "coeffs": ["1"] * 9}))
    code, out, err = run(capsys, "cfrac", "moments2rec", str(src))
    assert (code, out, err) == (1, "", "error: b = 0 at depth 1\n")


@pytest.mark.parametrize(
    "data, order",
    [({"a": ["1"], "b": ["1", "0"]}, "4"), ({"a": ["1", "2"], "b": ["1", "3", "0"]}, "6")],
)
def test_rec2moments_past_the_depth_is_a_usage_error(tmp_path, capsys, data, order):
    # the zero b lies past the depth, so it does not end the fraction early
    src = tmp_path / "rec.json"
    src.write_text(json.dumps(data))
    code, out, err = run(capsys, "cfrac", "rec2moments", str(src), "--order", order)
    assert (code, out) == (2, "")
    assert err.startswith("error: recurrence depth") and f"cannot reach order {order}" in err


@pytest.mark.parametrize("order, code", [("6", 0), ("7", 0), ("8", 2)])
def test_rec2moments_reaches_order_2d_plus_1_from_depth_d(tmp_path, capsys, order, code):
    src = tmp_path / "rec.json"
    src.write_text(json.dumps({"a": ["1", "1/2", "-2", "3"], "b": ["2", "1/3", "5"]}))
    got, out, err = run(capsys, "cfrac", "rec2moments", str(src), "--order", order)
    assert got == code
    if code:
        assert (out, err) == ("", "error: recurrence depth 3 cannot reach order 8\n")
    else:
        assert len(json.loads(out)["moment_gf"]["coeffs"]) == int(order) + 1 and err == ""


MOMENTS = ["1", "1/2", "9/4", "67/24"]  # of a_0 = 1/2, a_1 = 1/3, b_1 = 2


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_cfrac_moments2rec_on_one_to_four_moments(tmp_path, capsys, monkeypatch, count):
    """One moment determines no coefficient and two or three only a_0, which
    no round trip can compare: each is a usage error that says so.  Two and
    three moments give a recurrence `Recurrence.from_json` reads back, and
    four give depth 1, whose round trip compares all four moments."""
    src = tmp_path / "moments.json"
    src.write_text(json.dumps({"order": count - 1, "coeffs": MOMENTS[:count]}))
    code, out, err = run(capsys, "cfrac", "moments2rec", str(src))
    if count == 1:
        assert (code, out) == (2, "")
        assert err == "error: moments2rec needs at least 2 moments: one moment determines no recurrence coefficient\n"
        assert run(capsys, "cfrac", "moments2rec", str(src), "--round-trip")[:3] == (2, "", err)
        return
    assert (code, err) == (0, "")
    data = json.loads(out)
    rec = Recurrence.from_json(data["recurrence"])
    assert (data["depth"], rec.depth) == ((count - 2) // 2,) * 2
    code, out, err = run(capsys, "cfrac", "moments2rec", str(src), "--round-trip")
    if count < 4:
        assert (code, out, err) == (2, "", f"error: a round trip needs at least 4 moments, got {count}\n")
        return
    assert code == 0 and json.loads(out) == {**data, "round_trip": True}
    assert data["recurrence"] == {"a": ["1/2", "1/3"], "b": ["2"]}
    real = cli.moments_from_recurrence
    for k in range(count):  # a moment the round trip did not compare would pass planted

        def planted(rec, order):
            return MomentSeries(real(rec, order).moment_gf + TruncSeries([int(i == k) for i in range(order + 1)]))

        monkeypatch.setattr(cli, "moments_from_recurrence", planted)
        code, out, _ = run(capsys, "cfrac", "moments2rec", str(src), "--round-trip")
        assert code == 1 and json.loads(out) == {**data, "round_trip": False}, k


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    built = []
    make_parser = cli.make_parser
    monkeypatch.setattr(cli, "make_parser", lambda: built.append(1) or make_parser())
    monkeypatch.setattr(cli, "_parser", None)
    rec = tmp_path / "rec.json"
    rec.write_text(json.dumps({"a": ["1/2"] * 6, "b": ["1", "0", "2", "1", "1"]}))
    argvs = [
        ["family", "sheffer", "--params", "lambda=1/2,a=1/3,b=2/5", "--order", "6"],
        ["cfrac", "rec2moments", str(rec), "--order", "8", "--round-trip"],
        ["verify", "duality", "--order", "6", "--format", "csv"],
        ["family", "sheffer", "--params", "lambda=1/2,b=2/5", "--order", "4"],
    ]
    together = []
    for argv in argvs:
        together.append(run(capsys, *argv))
        with pytest.raises(SystemExit):  # a rejected argv leaves the parser as it was
            main(["cfrac", "sideways", str(rec)])
        capsys.readouterr()
    assert built == [1]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for argv, got in zip(argvs, together):
        alone = subprocess.run([sys.executable, "-m", "umbral.cli", *argv], capture_output=True, text=True, env=env, timeout=120)
        assert got == (alone.returncode, alone.stdout, alone.stderr)


def test_a_fresh_import_of_the_package_leaves_the_first_one_working(capsys):
    # a second checkout imported into the same process replaces the
    # umbral.* entries of sys.modules; the first import's suites must have
    # bound their names already, or duality reads the other IndexRatio
    first = {n: m for n, m in sys.modules.items() if n.partition(".")[0] == "umbral"}
    try:
        for name in first:
            del sys.modules[name]
        importlib.import_module("umbral.cli")
        for suite in ("duality", "binomial"):
            assert first["umbral.cli"].main(["verify", suite, "--order", "6"]) == 0, capsys.readouterr().err
    finally:
        for name in [n for n in sys.modules if n.partition(".")[0] == "umbral"]:
            del sys.modules[name]
        sys.modules.update(first)


def test_assoc_pipeline_table(capsys):
    code, out, _ = run(
        capsys,
        "assoc",
        "jacobi",
        "--params",
        "lambda=2,a=1/2,r=1",
        "--c",
        "1",
        "--order",
        "10",
    )
    assert code == 0
    data = json.loads(out)
    pipes = data["pipelines"]
    assert pipes["explicit"]["coeffs"][:9] == pipes["recurrence"]["coeffs"][:9]
    assert pipes["explicit"]["coeffs"][:9] == pipes["tails"]["coeffs"][:9]


def test_assoc_jacobi_c_zero_where_the_lower_2f1_is_0_over_0(capsys):
    # lambda = 2 gives kappa = 1, so at c = 0 the lower 2F1 has a1 + n = 0 and
    # a zero lower parameter at n = 0; the zero wins and the build passes
    code, out, _ = run(
        capsys, "assoc", "jacobi", "--params", "lambda=2,a=1/2,r=1", "--c", "0", "--order", "8"
    )
    assert code == 0
    checks = json.loads(out)["checks"]
    assert len(checks) == 6 and all(c["pass"] for c in checks)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "all", "--order", "8", "--seed", "1"],
        ["assoc", "wilson", "--c", "3/2", "--params", "lambda=1/3,a=2/5,r=3/7,rtilde=1/4,h=2/9", "--order", "12"],
    ],
    ids=["verify-all", "assoc-wilson"],
)
def test_no_engine_path_inverts_an_operator(capsys, monkeypatch, argv):
    """OpMatrix.inverse is only the tests' reference: with it made to raise
    (an AssertionError, which the CLI does not catch), every suite and the
    associated Wilson build still run with every check passing."""
    def refuse(op):
        raise AssertionError("OpMatrix.inverse called")

    monkeypatch.setattr(OpMatrix, "inverse", refuse)
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    checks = json.loads(out)["checks"]
    assert checks and all(c["pass"] for c in checks)


def test_assoc_zero_reduction_report(capsys):
    code, out, _ = run(
        capsys, "assoc", "sheffer", "--params", "lambda=1,a=1,b=1", "--c", "0", "--order", "8"
    )
    assert code == 0
    assert json.loads(out)["reduction"] == "identical to base"


def test_asym_level_two(capsys):
    # the s^-2 term of this instance vanishes, so level 2 decays like s^-3
    code, out, _ = run(
        capsys, "asym", "falling-factorial", "--alpha", "1/2", "--s", "40,80", "--level", "2"
    )
    assert code == 0
    data = json.loads(out)
    assert data["level"] == 2
    est = float(data["order_estimate"])
    assert abs(est + 3) < 0.3
    code, out, _ = run(
        capsys, "asym", "falling-factorial", "--alpha", "1/2", "--s", "40,80", "--level", "1"
    )
    assert code == 0
    data = json.loads(out)
    est = float(data["order_estimate"])
    assert abs(est + 1) < 0.3


def test_deterministic_output(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for target in (a, b):
        code = main(
            ["verify", "duality", "--samples", "2", "--seed", "3", "--order", "8", "--out", str(target)]
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("instance,alpha", [("geometric", "1/5"), ("falling-factorial", "1/2")])
def test_asym_rejects_index_below_one(capsys, instance, alpha):
    code, out, err = run(capsys, "asym", instance, "--alpha", alpha, "--s", "0,40", "--level", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "s >= 1" in err


@pytest.mark.parametrize("s_values", ["40,40", "40,80,40"])
def test_asym_rejects_repeated_index(capsys, s_values):
    code, out, err = run(capsys, "asym", "geometric", "--alpha", "1/5", "--s", s_values, "--level", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "distinct" in err


@pytest.mark.parametrize("s_values", [",", ",,"])
def test_asym_rejects_an_empty_index_list(capsys, s_values):
    code, out, err = run(capsys, "asym", "falling-factorial", "--alpha", "1/2", "--s", s_values, "--level", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "at least one index" in err


def test_verify_binomial_at_few_digits_names_the_missing_estimate(capsys):
    # at 8 digits the level-2 residuals of the falling factorials round to 0,
    # so there is no order estimate: a failed check, not a traceback
    code, out, err = run(capsys, "verify", "binomial", "--digits", "8")
    assert code == 1 and err == ""
    checks = json.loads(out)["checks"]
    assert len(checks) == 9
    failed = [c for c in checks if not c["pass"]]
    assert failed == [{
        "name": "binomial asym: falling-factorial level 2 order -3 (vanishing s^-2 term)",
        "pass": False,
        "witness": "no order estimate: the residuals round to 0 at 8 digits",
    }]


def test_multiterm_rejects_non_integer_n(capsys):
    code, out, err = run(
        capsys, "family", "multiterm", "--params", "n=5/2,lambda=2,a=1/2,t0=1/3,t1=2/3", "--order", "6"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "integer n" in err
    code, out, _ = run(
        capsys, "family", "multiterm", "--params", "n=2,lambda=2,a=1/2,t0=1/3,t1=2/3", "--order", "6"
    )
    assert code == 0
    assert json.loads(out)["order"] == 6


def test_multiterm_reports_a_raising_fault_under_the_band_check(capsys, monkeypatch):
    # a raising entry other than 1 leaves the band (1,1) as it is: the band
    # check fails with the reader's fault as its witness
    solve = families.conjugate

    def raising_two_in_column_2(m, t):
        u = solve(m, t)
        rows = u.mat
        rows[3][2] = F(2)
        return OpMatrix(rows, u.nw, u.raised, u.reliable)

    monkeypatch.setattr(families, "conjugate", raising_two_in_column_2)
    code, out, err = run(
        capsys, "family", "multiterm", "--params", "n=2,lambda=2,a=1/2,t0=1/3,t1=2/3", "--order", "6"
    )
    assert (code, err) == (1, "")
    failed = [c for c in json.loads(out)["checks"] if not c["pass"]]
    assert failed == [{"name": "band profile (1,1)", "pass": False, "witness": "raising entry at column 2 is 2"}]


@pytest.mark.parametrize("argv, name", [
    (["assoc", "ultraspherical", "--params", "lambda=1/2,a=1/3,b=2/5"], "shifted dual raising display"),
    (["assoc", "wilson", "--params", "lambda=1/2,a=1/3,r=1/2,rtilde=1/3,h=1/4"], "shifted raising operator tridiagonal"),
])
def test_assoc_reports_a_fault_of_the_raising_operator_as_a_failed_check(argv, name, capsys, monkeypatch):
    # a planted coefficient of every psi diagonal enters gop through ell(L)
    # and takes the raising operator off its three diagonals
    make = families.psi_diagonal

    def planted(psi, alpha, order):
        coeffs = list(make(psi, alpha, order).coeffs)
        coeffs[3] += F(7, 3)
        return TruncSeries(coeffs)

    argv += ["--c", "3/2", "--order", "6"]
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr(families, "psi_diagonal", planted)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    assert [c["name"] for c in json.loads(out)["checks"] if not c["pass"]][0] == name


def test_a_pole_of_the_associated_display_is_a_usage_error(capsys):
    # 1 + lambda (c + n) = 0 at n = order + 4, the working order: the closed
    # form's pole is found before any value is taken there
    code, out, err = run(
        capsys, "assoc", "jacobi", "--params", "lambda=-7/5,a=1/2,r=1/3", "--c=-93/7", "--order", "10"
    )
    assert (code, out, err) == (2, "", "error: b_n invalid: index ratio pole at 14\n")


@pytest.mark.parametrize("params", [
    "n=2,lambda=2,a=0,t0=1/3,t1=1/3,t2=1/3",
    "n=3,lambda=1/2,a=0,t0=1/3,t1=1/3,t2=1/3",
])
def test_multiterm_at_a_zero_is_the_monomials(capsys, params):
    # at a = 0, f = y and the family is x^n: the dual raising operator is x, band (1, 0)
    code, out, err = run(capsys, "family", "multiterm", "--params", params, "--order", "4")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert all(c["pass"] for c in data["checks"]), data["checks"]
    assert "band profile (1,0)" in [c["name"] for c in data["checks"]]
    assert data["polys"][3] == ["0", "0", "0", "1"]


def test_multiterm_rejects_zero_lambda(capsys):
    code, out, err = run(
        capsys, "family", "multiterm", "--params", "n=2,lambda=0,t0=1/3,t1=2/3", "--order", "4"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: lambda=0 invalid")


@pytest.mark.parametrize(
    "name, params",
    [
        ("jacobi", "lambda=2,a=1/2,r=1"),
        ("wilson", "lambda=2,a=1/3,r=1/2,rtilde=1/5,h=1/4"),
    ],
)
def test_assoc_pole_of_the_lowered_ratio(capsys, name, params):
    # 1 + lambda (c - 1) = 0: the ratio behind H_{theta+c-1} has a pole at
    # theta = 0, a factor the shifted ell cancels, so the build goes through
    code, out, err = run(capsys, "assoc", name, "--params", params, "--c", "1/2", "--order", "8")
    assert code == 0
    assert err == ""
    checks = json.loads(out)["checks"]
    assert checks and all(c["pass"] for c in checks)


def test_config_guard(capsys):
    code, out, err = run(capsys, "family", "sheffer", "--params", "lambda=0,a=0,b=1", "--order", "2")
    assert code == 2


@pytest.mark.parametrize(
    "argv, flag, value, code",
    [
        (("assoc", "ultraspherical", "--params", "lambda=1/2,a=2/3,b=3/5", "--order", "6"), "--c", "-1/3", 0),
        # -1/2 is outside the instance's radius: the value reaches asym_compare
        (("asym", "falling-factorial", "--s", "40,80", "--level", "1"), "--alpha", "-1/2", 2),
    ],
)
def test_negative_rational_flag_value(capsys, argv, flag, value, code):
    spaced = run(capsys, *argv, flag, value)
    assert spaced == run(capsys, *argv, f"{flag}={value}")
    assert spaced[0] == code
    assert "expected one argument" not in spaced[2]


@pytest.mark.parametrize(
    "command, name, params, key",
    [
        ("family", "sheffer", "lamda=1/2,a=1/3,b=2/5", "lamda"),
        ("family", "ultraspherical", "lamda=1/3,a=1/2,b=1/4", "lamda"),
        ("family", "hahn", "lamda=2,a=1/2,s=1/2", "lamda"),
        ("family", "jacobi", "lamda=1/3,a=2/5,r=3/7", "lamda"),
        ("family", "wilson", "lambda=2,a=1/3,r=1/2,rt=1/5,h=1/4", "rt"),
        ("family", "multiterm", "n=2,lambda=1/2,a=1/3,t0=1/3,t1=2/3,t5=0", "t5"),
        ("assoc", "sheffer", "lamda=1/2,a=1/3,b=2/5", "lamda"),
        ("assoc", "ultraspherical", "lamda=1/3,a=1/2,b=1/4", "lamda"),
        ("assoc", "jacobi", "lamda=1/3,a=2/5,r=3/7", "lamda"),
        ("assoc", "wilson", "lambda=2,a=1/3,r=1/2,rt=1/5,h=1/4", "rt"),
    ],
)
def test_unknown_params_key(capsys, command, name, params, key):
    extra = ("--c", "1") if command == "assoc" else ()
    code, out, err = run(capsys, command, name, "--params", params, "--order", "6", *extra)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: unknown parameter {key!r}; accepted:")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("family", "sheffer", "--params", "lambda=1/2,a=1/3,b=2/5", "--seed", "3"), "--seed"),
        (("asym", "geometric", "--alpha", "1/5", "--s", "40,80", "--order", "8"), "--order"),
        (("verify", "base", "--params", "a=1"), "--params"),
        (("cfrac", "rec2moments", "rec.json", "--digits", "30"), "--digits"),
        (("assoc", "sheffer", "--params", "lambda=1,a=1,b=1", "--c", "1", "--samples", "2"), "--samples"),
    ],
)
def test_flag_the_command_does_not_read(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, name, params, key",
    [
        ("family", "sheffer", "lambda=1/2,lambda=1/3,a=1/3,b=2/5", "lambda"),
        ("assoc", "jacobi", "lambda=1/3,a=2/5,r=3/7,a=1/2", "a"),
    ],
)
def test_repeated_params_key(capsys, command, name, params, key):
    extra = ("--c", "1") if command == "assoc" else ()
    code, out, err = run(capsys, command, name, "--params", params, "--order", "4", *extra)
    assert code == 2
    assert out == ""
    assert err == f"error: parameter {key!r} given twice\n"


@pytest.mark.parametrize(
    "argv, data, bad",
    [
        (("family", "sheffer", "--params", "lambda=1/0"), None, "'1/0'"),
        (("assoc", "sheffer", "--params", "lambda=1,a=1,b=1", "--c", "1/0"), None, "'1/0'"),
        (("asym", "geometric", "--alpha", "1/0", "--s", "40,80"), None, "'1/0'"),
        (("cfrac", "rec2moments"), [1, 2], "[1, 2]"),
        (("cfrac", "rec2moments"), {"a": ["0"], "b": 5}, "got 5"),
        (("cfrac", "moments2rec"), {"order": 1, "coeffs": ["1", 1.5]}, "1.5"),
        (("cfrac", "rec2moments"), {"a": ["0", "1/0"], "b": ["1"]}, "'1/0'"),
        (("cfrac", "rec2moments"), {"a": [], "b": []}, "a_0"),
        (("cfrac", "rec2moments"), {"a": [True, "0"], "b": ["1"]}, "True"),
    ],
)
def test_malformed_input_is_a_usage_error(tmp_path, capsys, argv, data, bad):
    if data is not None:
        src = tmp_path / "input.json"
        src.write_text(json.dumps(data))
        argv = (*argv, str(src))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and bad in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "data, witness",
    [
        ({"coeffs": ["1", "1", "2"]}, "'order' must be an integer, got None"),
        ({"order": "2", "coeffs": ["1", "1", "2"]}, "'order' must be an integer, got '2'"),
        ({"order": True, "coeffs": ["1", "1", "2"]}, "'order' must be an integer, got True"),
        ({"order": True, "coeffs": ["1", "1"]}, "'order' must be an integer, got True"),
        ({"order": 3, "coeffs": ["1", "1", "2"]}, "order field disagrees with coefficient count"),
    ],
)
def test_moments_order_field_errors_name_the_field(tmp_path, capsys, data, witness):
    src = tmp_path / "moments.json"
    src.write_text(json.dumps(data))
    code, out, err = run(capsys, "cfrac", "moments2rec", str(src))
    assert (code, out, err) == (2, "", f"error: {witness}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "sheffer", "--params", "lambda=1/2,a=1/3,b=2/5"],
        ["verify", "all"],
        ["assoc", "jacobi", "--params", "lambda=2/3,a=1/2,r=1", "--c", "1/2"],
        ["cfrac", "rec2moments", "no-such-file.json"],
    ],
)
def test_order_above_the_bound_is_a_usage_error_before_any_work(capsys, monkeypatch, argv):
    def no_build(*args, **kwargs):
        raise AssertionError("a build started past the order bound")

    monkeypatch.setattr(cli, "run_suite", no_build)
    monkeypatch.setattr(cli, "moments_from_recurrence", no_build)
    monkeypatch.setitem(cli.FAMILIES, "sheffer", no_build)
    monkeypatch.setitem(cli.ASSOCS, "jacobi", no_build)
    code, out, err = run(capsys, *argv, "--order", str(cli.MAX_ORDER + 1))
    assert (code, out, err) == (2, "", f"error: order must be at most {cli.MAX_ORDER}\n")


def test_the_order_bound_itself_is_accepted():
    assert cli.resolve_order(argparse.Namespace(order=cli.MAX_ORDER)) == cli.MAX_ORDER == 256


@pytest.mark.parametrize("name", ["sheffer", "ultraspherical", "jacobi"])
@pytest.mark.parametrize("order, top", [(6, 6), (12, 9)])
def test_an_integer_shift_past_the_tail_depth_is_refused_before_any_work(capsys, monkeypatch, name, order, top):
    """The tail mgf reads the base recurrence, depth order + 3, shifted by c,
    to depth order // 2: the largest integer shift is top.  Past it
    the build is refused as a usage error naming --c, before any core is
    made; at top it runs with every check passing, the tail mgf among them."""
    code, out, err = run(capsys, "assoc", name, "--c", str(top), "--order", str(order))
    assert (code, err) == (0, "")
    checks = json.loads(out)["checks"]
    assert all(c["pass"] for c in checks) and any(c["name"].endswith("explicit vs tail mgf") for c in checks)
    monkeypatch.setattr(families, "sheffer_core", lambda *args: pytest.fail("a core was made"))
    for c in (top + 1, 10**400):
        code, out, err = run(capsys, "assoc", name, "--c", str(c), "--order", str(order))
        assert (code, out) == (2, "")
        assert err == f"error: --c: an integer shift must be at most {top} at order {order}, the depth the tail mgf can read\n"


def test_wilson_and_non_integer_shifts_have_no_tail_bound(capsys):
    # wilson_assoc runs no tail pipeline, and a non-integer c is no tail shift
    for argv in (("assoc", "wilson", "--c", "9"), ("assoc", "sheffer", "--c", "17/2")):
        code, out, err = run(capsys, *argv, "--order", "12")
        assert (code, err) == (0, "")
        assert all(c["pass"] for c in json.loads(out)["checks"])


def test_python_dash_m_umbral_is_the_cli(capsys):
    argv = ["assoc", "jacobi", "--params", "lambda=2,a=1/2,r=1", "--c", "1"]  # a golden row
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    alone = subprocess.run([sys.executable, "-m", "umbral", *argv], capture_output=True, text=True, env=env, timeout=120)
    assert (alone.returncode, alone.stdout, alone.stderr) == run(capsys, *argv)
    assert alone.returncode == 0 and alone.stdout
