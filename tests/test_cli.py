"""End-to-end command line runs through a subprocess."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from leibrack import cli
from leibrack.algebra import LeibnizAlgebra
from leibrack.bch import MAX_ORDER
from leibrack.corpus import CORPUS_NAMES, corpus_path
from leibrack.io import save_algebra

from helpers import n_k


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "leibrack", *map(str, args)],
        capture_output=True,
        text=True,
    )


def corpus_file(name):
    return str(corpus_path(name))


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # each CLI process pays its imports: a fresh interpreter importing the
    # CLI and building the BCH word table adds neither module, measured
    # against a bare interpreter so that a site hook cannot count
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    setup = "import leibrack.cli; from leibrack.bch import log_word_table; log_word_table()"
    listing = "import sys; print(*sys.modules)"
    bare, loaded = (
        set(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True).stdout.split())
        for code in (listing, f"{setup}; {listing}")
    )
    assert "leibrack.cli" in loaded
    assert not (loaded - bare) & {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "name", ["abelian3", "leib2", "hs1", "heisenberg", "freenil3", "sl2"]
)
def test_validate_corpus_passes(name):
    proc = run_cli("validate", corpus_file(name))
    assert proc.returncode == 0
    assert "leibniz-identity: pass" in proc.stdout
    assert "overall: pass" in proc.stdout


def test_validate_reports_lie_flag(tmp_path):
    out = tmp_path / "r.json"
    proc = run_cli("validate", corpus_file("leib2"), "--json", out)
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "validate"
    assert doc["algebra_name"] == "leib2"
    assert doc["dim"] == 2
    assert doc["status"] == "pass"
    assert doc["details"]["is_lie"] is False
    assert doc["details"]["nilpotency_class"] == 2

    proc = run_cli("validate", corpus_file("sl2"), "--json", out)
    assert json.loads(out.read_text())["details"]["is_lie"] is True


def test_validate_failure_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {"name": "bad", "dim": 1, "brackets": [{"i": 1, "j": 1, "value": [[1, 1]]}]}
        )
    )
    out = tmp_path / "r.json"
    proc = run_cli("validate", bad, "--json", out)
    assert proc.returncode == 1
    assert "overall: fail" in proc.stdout
    doc = json.loads(out.read_text())
    assert doc["status"] == "fail"
    assert doc["checks"][0]["violations"]


@pytest.mark.parametrize(
    "args",
    [
        ("validate", "/does/not/exist.json"),
        ("rack", "sl2"),  # exact mode on a non-nilpotent algebra
        ("bch", "leib2"),  # requires a Lie algebra
        ("bch", "heisenberg", "--order", "9"),
        ("bch", "heisenberg", "--x", "1,0,0"),  # x without y
        ("cocycle", "sl2"),  # requires a nilpotent algebra
        ("hessian", "heisenberg", "--xi", "1,oops"),
        ("hessian", "heisenberg", "--xi", "1,2"),  # wrong length
        ("hessian", "heisenberg", "--xi", "1,oops,3"),  # right length, bad fraction
        ("frobnicate", "heisenberg"),
    ],
)
def test_usage_errors_exit_two(args):
    cmd, target, *rest = args
    path = target if target.startswith("/") else corpus_file(target)
    proc = run_cli(cmd, path, *rest)
    assert proc.returncode == 2


def test_parse_error_exits_two(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    proc = run_cli("validate", broken)
    assert proc.returncode == 2
    assert proc.stderr == (
        f"error: {broken}: invalid JSON (Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1))\n"
    )
    not_lowest = tmp_path / "nl.json"
    not_lowest.write_text(
        json.dumps({"dim": 1, "brackets": [{"i": 1, "j": 1, "value": [[2, 4]]}]})
    )
    assert run_cli("validate", not_lowest).returncode == 2


Z = [0, 1]
HEIS = [{"i": 1, "j": 2, "value": [Z, Z, [1, 1]]}, {"i": 2, "j": 1, "value": [Z, Z, [-1, 1]]}]
ZERO_33 = {"i": 3, "j": 3, "value": [Z, Z, Z]}

# (file, dim, brackets, exit code, stderr): the loader keeps each (i, j)
# listed, zero or not, for the duplicate check, skips zero values, sorts
# the pairs and reports the first bad pair where it stands.  The codes and
# messages are those of the dense loader it replaced.
LOADER_EDGES = [
    ("zero-value", 3, HEIS + [ZERO_33], 0, ""),
    ("zero-then-duplicate", 3, HEIS + [ZERO_33, {"i": 3, "j": 3, "value": [Z, Z, [1, 1]]}], 2,
     "error: brackets[3]: duplicate bracket for pair (3, 3)\n"),
    ("late-malformed", 3, HEIS + [{"i": 3, "j": 1, "value": [Z, Z, [2, 4]]}], 2,
     "error: brackets[2].value[2]: fraction 2/4 is not in lowest terms\n"),
    ("out-of-order", 3, HEIS[::-1], 0, ""),
    ("wide-dim", 5, [{**e, "value": e["value"] + [Z, Z]} for e in HEIS], 0, ""),
]


@pytest.mark.parametrize("name, dim, brackets, code, err", LOADER_EDGES,
                         ids=[case[0] for case in LOADER_EDGES])
def test_loader_edge_files_keep_their_exit_codes_and_messages(
    tmp_path, capsys, name, dim, brackets, code, err
):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"name": "edge", "dim": dim, "brackets": brackets}))
    # a file that loads reports what the same table saved in order reports
    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for entry in brackets:
        table[entry["i"] - 1][entry["j"] - 1] = [Fraction(*p) for p in entry["value"]]
    plain = tmp_path / "plain.json"
    save_algebra(LeibnizAlgebra(table, name="edge"), plain)
    for command in ("validate", "analyze"):
        out, expected = tmp_path / f"{command}.json", tmp_path / f"{command}-plain.json"
        assert cli.main([command, str(path), "--json", str(out)]) == code
        assert capsys.readouterr().err == err
        if code:
            assert not out.exists()
            continue
        assert cli.main([command, str(plain), "--json", str(expected)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == expected.read_bytes()


def test_analyze_leib2_details(tmp_path):
    out = tmp_path / "r.json"
    proc = run_cli("analyze", corpus_file("leib2"), "--json", out)
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    details = doc["details"]
    assert details["left_center_dim"] == 1
    assert details["quotient_dim"] == 1
    assert details["quotient_is_lie"] is True
    assert details["omega_table"] == [[["0", "-1"]]]
    assert "section defect" in details["omega_convention"]
    assert details["derivations"] == {"dim_der": 2, "dim_inner": 1, "dim_outer": 1}
    names = [c["name"] for c in doc["checks"]]
    assert "cocycle-identity" in names
    assert "reconstruction" in names
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_rack_command_exact(tmp_path):
    out = tmp_path / "r.json"
    proc = run_cli("rack", corpus_file("heisenberg"), "--samples", 10, "--json", out)
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    names = [c["name"] for c in doc["checks"]]
    assert names == [
        "rack-axioms",
        "conjugation-lemma",
        "coadjoint-action",
        "pair-rack-closure",
    ]
    assert all(c["residual"] == "0" for c in doc["checks"])


def test_rack_command_float_sl2():
    proc = run_cli("rack", corpus_file("sl2"), "--mode", "float", "--samples", 10)
    assert proc.returncode == 0
    assert "overall: pass" in proc.stdout


def test_bch_command_point_evaluation(tmp_path):
    out = tmp_path / "r.json"
    proc = run_cli(
        "bch", corpus_file("heisenberg"), "--x", "1,0,0", "--y", "0,1,0", "--json", out
    )
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["details"]["bch"] == ["1", "1", "1/2"]
    assert doc["details"]["conj"] == ["0", "1", "1"]


def test_bch_command_sampled(tmp_path):
    proc = run_cli("bch", corpus_file("freenil3"), "--samples", 10)
    assert proc.returncode == 0
    assert "overall: pass" in proc.stdout


def test_cocycle_command(tmp_path):
    out = tmp_path / "r.json"
    proc = run_cli("cocycle", corpus_file("heisenberg"), "--json", out)
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["details"]["series_sign"] == -1
    assert doc["details"]["nilpotency_class"] == 2
    assert doc["details"]["order"] == 2
    names = [c["name"] for c in doc["checks"]]
    assert "cocycle-series-vs-exact" in names
    assert "cocycle-in-center" in names
    assert doc["status"] == "pass"


def test_quantize_command(tmp_path):
    out = tmp_path / "r.json"
    proc = run_cli(
        "quantize", corpus_file("heisenberg"), "--samples", 10, "--json", out
    )
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    statuses = {c["name"]: c["status"] for c in doc["checks"]}
    assert statuses["gutt-vs-quantum"] == "pass"
    assert statuses["right-leibniz"] == "pass"
    assert statuses["order0-associativity"] == "pass"


def test_quantize_skips_gutt_off_lie_corpus(tmp_path):
    out = tmp_path / "r.json"
    proc = run_cli(
        "quantize",
        corpus_file("hs1"),
        "--mode",
        "float",
        "--samples",
        5,
        "--json",
        out,
    )
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    statuses = {c["name"]: c["status"] for c in doc["checks"]}
    assert statuses["gutt-vs-quantum"] == "skipped"


@pytest.fixture(scope="module")
def n10_file(tmp_path_factory):
    """n_10, the strictly upper-triangular 10 x 10 matrices: dim 45, class 9 > MAX_ORDER."""
    path = tmp_path_factory.mktemp("n10") / "n10.json"
    save_algebra(n_k(10), path)
    return str(path)


def test_exact_bch_above_max_order_exits_two(n10_file, capsys):
    # the degree-8 word table cannot reproduce exp(ad_x) on a class-9 table,
    # so a default exact run is refused rather than failed
    ones, last = ",".join(["1"] * 45), ",".join(["0"] * 44 + ["1"])
    for flags in (("--samples", "1"), (f"--x={ones}", f"--y={last}")):
        assert cli.main(["bch", n10_file, *flags]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: exact bch needs a nilpotency class of at most MAX_ORDER = {MAX_ORDER}, "
            "got class 9; rerun with --mode float\n"
        )


def test_exact_bch_below_the_class_keeps_its_failing_report(n10_file, capsys):
    assert cli.main(["bch", n10_file, "--samples", "1", "--order", str(MAX_ORDER)]) == 1
    assert "conj-identity: fail" in capsys.readouterr().out


def test_quantize_skips_gutt_above_max_order(n10_file, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert cli.main(["quantize", n10_file, "--samples", "1", "--json", str(out)]) == 0
    capsys.readouterr()
    statuses = {c["name"]: c["status"] for c in json.loads(out.read_text())["checks"]}
    assert statuses.pop("gutt-vs-quantum") == "skipped"
    assert set(statuses.values()) == {"pass"}


@pytest.mark.parametrize(
    "name, flags",
    [
        ("heisenberg", ()),
        ("leib2", ()),
        ("freenil3", ("--samples", "10")),
        ("sl2", ("--mode", "float", "--samples", "20", "--seed", "1")),
        ("hs1", ("--mode", "float", "--seed", "2")),
    ],
)
def test_quantize_label_rack_is_the_rack_check(tmp_path, capsys, name, flags):
    # E_x is represented by x, so quantize's label rack is rack's Bass rack
    found = {}
    for command in ("rack", "quantize"):
        out = tmp_path / f"{command}.json"
        cli.main([command, corpus_file(name), *flags, "--json", str(out)])
        checks = json.loads(out.read_text())["checks"]
        found[command] = next(c for c in checks if c["name"] == "rack-axioms")
    capsys.readouterr()
    assert found["quantize"] == found["rack"]


def test_hessian_command(tmp_path):
    out = tmp_path / "r.json"
    proc = run_cli(
        "hessian", corpus_file("heisenberg"), "--xi", "1,2,3", "--json", out
    )
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert len(doc["details"]["instances"]) == 1
    inst = doc["details"]["instances"][0]
    assert inst["det"] == "1"
    assert inst["signature"] == 0
    assert inst["inertia"] == [6, 6, 0]
    assert inst["xi"] == ["1", "2", "3"]


def test_hessian_command_sampled():
    proc = run_cli("hessian", corpus_file("sl2"), "--samples", 5)
    assert proc.returncode == 0
    assert "hessian-extremum: pass" in proc.stdout


def test_tangent_command():
    proc = run_cli("tangent", corpus_file("sl2"))
    assert proc.returncode == 0
    assert "overall: pass" in proc.stdout


def test_reports_are_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("rack", corpus_file("heisenberg"), "--samples", 10, "--json", a)
    run_cli("rack", corpus_file("heisenberg"), "--samples", 10, "--json", b)
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["seed"] == 0
    assert doc["config"]["samples"] == 10


def test_report_schema_fields(tmp_path):
    out = tmp_path / "r.json"
    run_cli("validate", corpus_file("heisenberg"), "--json", out)
    doc = json.loads(out.read_text())
    assert set(doc) >= {
        "command",
        "algebra_name",
        "dim",
        "seed",
        "config",
        "checks",
        "details",
        "status",
        "versions",
    }
    check = doc["checks"][0]
    assert set(check) >= {"name", "status", "checked", "residual", "violations"}


def test_cocycle_on_its_own_left_center(tmp_path):
    # abelian3 equals its left center, so the quotient is 0-dimensional.
    out = tmp_path / "r.json"
    proc = run_cli("cocycle", corpus_file("abelian3"), "--json", out)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert [(c["name"], c["status"], c["checked"]) for c in doc["checks"]] == [
        ("cocycle-series-vs-exact", "pass", 50),
        ("cocycle-in-center", "pass", 50),
    ]


def assert_usage_error(proc, fragment):
    assert proc.returncode == 2
    assert fragment in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "checked" not in proc.stdout


@pytest.mark.parametrize("samples", [0, -3])
def test_nonpositive_samples_rejected(samples):
    proc = run_cli("rack", corpus_file("heisenberg"), "--samples", samples)
    assert_usage_error(proc, "--samples must be positive")


@pytest.mark.parametrize("step", ["0", "-1e-3", "nan", "inf"])
def test_bad_tangent_step_rejected(step):
    proc = run_cli("tangent", corpus_file("sl2"), f"--step={step}")
    assert_usage_error(proc, "--step must be a positive finite number")


def test_tangent_step_whose_square_underflows_rejected():
    # 4 * 1e-200**2 is 0.0 in floats: the difference quotient would divide by it
    proc = run_cli("tangent", corpus_file("sl2"), "--step=1e-200")
    assert_usage_error(proc, "--step 1e-200 is too small: 4 * step**2 underflows to 0.0")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def assert_one_error_line(proc, start):
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {start}") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unwritable_json_report_exits_two(tmp_path, where):
    # the checks run and print; writing the report then fails
    out = tmp_path / "no" / "r.json" if where == "missing" else tmp_path
    proc = run_cli("validate", corpus_file("heisenberg"), "--json", out)
    assert_one_error_line(proc, "[Errno ")
    assert str(out) in proc.stderr
    assert "overall: pass" in proc.stdout


def test_input_that_is_not_utf8_exits_two(tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"name": "caf\u00e9", "dim": 1}'.encode("latin-1"))
    proc = run_cli("validate", bad)
    assert_one_error_line(proc, f"{bad}: invalid JSON ('utf-8' codec can't decode byte 0xe9")


# Python 3.11+ limits int parsing to 4300 digits by default; 0 means no limit
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no int digit limit in this Python")
def test_integer_past_the_digit_limit_exits_two(tmp_path):
    big = tmp_path / "big.json"
    big.write_text('{"dim": ' + "1" * (DIGIT_LIMIT + 1) + "}")
    proc = run_cli("validate", big)
    assert_one_error_line(proc, f"{big}: invalid JSON (Exceeds the limit")


def test_deeply_nested_json_exits_two(tmp_path):
    # the parser recurses once per array; 100,000 levels overflow its stack
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    proc = run_cli("validate", deep)
    assert_one_error_line(proc, f"{deep}: invalid JSON (")


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_bad_tangent_tol_rejected(tol):
    # inf passes whatever the error, nan and negatives fail whatever it is.
    proc = run_cli("tangent", corpus_file("hs1"), f"--tol={tol}")
    assert_usage_error(proc, "--tol must be a positive finite number")


@pytest.mark.parametrize("command", ["rack", "quantize", "tangent"])
@pytest.mark.parametrize("order", [0, -1])
def test_nonpositive_float_order_rejected(command, order):
    proc = run_cli(command, corpus_file("sl2"), "--mode", "float", "--order", order)
    assert_usage_error(proc, "--order must be positive")


@pytest.mark.parametrize("command", ["validate", "analyze", "cocycle", "hessian"])
def test_float_mode_rejected_for_exact_only_commands(command):
    proc = run_cli(command, corpus_file("heisenberg"), "--mode", "float")
    assert_usage_error(proc, "exact-only")


@pytest.mark.parametrize("command", ["rack", "quantize", "bch", "tangent"])
def test_non_finite_float_exponential_exits_two(tmp_path, command):
    # sl2 with its structure constants scaled by 10^6: exp(ad_x) overflows.
    doc = json.loads(corpus_path("sl2").read_text())
    for entry in doc["brackets"]:
        entry["value"] = [[num * 10**6, den] for num, den in entry["value"]]
    big = tmp_path / "sl2big.json"
    big.write_text(json.dumps(doc))
    proc = run_cli(command, big, "--mode", "float", "--samples", 3)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: float exponential overflowed")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["rack", "quantize", "bch", "tangent"])
def test_constants_beyond_float_range_exit_two(tmp_path, command):
    # sl2 with its structure constants scaled by 10^308: 2 * 10^308 has no
    # float value, so float mode must refuse the table up front.
    doc = json.loads(corpus_path("sl2").read_text())
    for entry in doc["brackets"]:
        entry["value"] = [[num * 10**308, den] for num, den in entry["value"]]
    big = tmp_path / "sl2huge.json"
    big.write_text(json.dumps(doc))
    proc = run_cli(command, big, "--mode", "float", "--samples", 3)
    assert proc.returncode == 2
    assert proc.stderr == (
        "error: float mode: the coefficient of e in [h, e] (bracket i=1, j=2) "
        "is too large for a float\n"
    )


def test_bch_point_beyond_float_range_exits_two():
    proc = run_cli(
        "bch", corpus_file("heisenberg"), "--mode", "float", "--x", "0,1e400,0", "--y", "1,0,0"
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: float mode: --x coordinate 2 is too large for a float\n"


COMMANDS = ["validate", "analyze", "rack", "bch", "cocycle", "quantize", "hessian", "tangent"]
# Default runs whose precondition does not hold: BCH needs a Lie algebra and
# an exact exponential a nilpotent one.
PRECONDITION_FAILURES = {
    ("bch", "leib2"), ("bch", "hs1"), ("bch", "sl2"),
    ("rack", "hs1"), ("rack", "sl2"),
    ("cocycle", "hs1"), ("cocycle", "sl2"),
    ("quantize", "hs1"), ("quantize", "sl2"),
}


def test_every_command_on_the_corpus_at_defaults(capsys):
    # In-process: an uncaught exception fails the test instead of exiting 1.
    codes = {}
    for command in COMMANDS:
        for name in CORPUS_NAMES:
            codes[(command, name)] = cli.main([command, corpus_file(name)])
            err = capsys.readouterr().err
            if codes[(command, name)] == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, (command, name, err)
    expected = {key: 2 if key in PRECONDITION_FAILURES else 0 for key in codes}
    assert codes == expected


def test_no_command_reads_the_dense_table(monkeypatch, capsys):
    # the kernels read int_sparse and float_sparse; the dense Fraction table
    # serves the reference loops of the tests only
    def refuse(algebra):
        raise AssertionError(f"{algebra!r}: a command read the dense table")

    monkeypatch.setattr(LeibnizAlgebra, "table", property(refuse))
    for command in COMMANDS:
        for name in CORPUS_NAMES:
            for mode in ("exact", "float"):
                cli.main([command, corpus_file(name), "--mode", mode])
    capsys.readouterr()


@pytest.mark.parametrize("command", COMMANDS)
def test_help_names_the_real_defaults(capsys, command):
    args = cli.build_parser().parse_args([command, "algebra.json"])
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"--samples SAMPLES sample count (default {args.samples})" in text
    if command == "bch":
        assert f"--order ORDER BCH truncation order, 1..8 (default {MAX_ORDER})" in text
    elif command == "cocycle":
        assert "--order ORDER series truncation order (default: nilpotency class)" in text
    elif hasattr(args, "order"):
        assert f"--order ORDER float exponential truncation order (default {args.order})" in text
    else:
        assert "--order" not in text


@pytest.mark.parametrize("command", COMMANDS)
def test_help_says_which_commands_are_exact_only(capsys, command):
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    if command in cli.EXACT_ONLY:
        expected = f"{command} is exact-only: --mode float exits 2 (default exact)"
    else:
        expected = "scalar mode (default exact)"
    assert f"--mode {{exact,float}} {expected}" in text
    assert ("exact-only" in text) == (command in cli.EXACT_ONLY)


def test_import_loads_no_third_party_numerics():
    # The runtime is pure standard library; numpy and sympy only serve tests.
    code = (
        "import sys, leibrack, leibrack.cli; "
        "print(sorted(m for m in ('numpy', 'sympy') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def run_main(capsys, argv):
    """(exit code, stdout, stderr) of one in-process ``cli.main(argv)``."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def run_full_parser(capsys, argv):
    """(exit code, stdout, stderr) of the full parser rejecting or explaining ``argv``."""
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


HEIS = corpus_file("heisenberg")
PARSER_ARGVS = [
    [],
    ["--help"],
    ["frobnicate", HEIS],
    *[[command, "--help"] for command in [*COMMANDS, "quantize-check"]],
    *[
        argv
        for command in [*COMMANDS, "quantize-check"]
        for argv in (
            [command],  # no algebra
            [command, HEIS, "extra"],
            [command, HEIS, "--samples", "x"],
            [command, HEIS, "--mode", "quux"],
        )
    ],
]


def argv_id(argv):
    return " ".join("heisenberg" if word == HEIS else word for word in argv) or "(none)"


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=argv_id)
def test_one_command_parser_prints_what_the_full_parser_prints(capsys, argv):
    # main builds only the named command; its help, usage line and argparse
    # errors (which print the top-level usage, naming every command) are the
    # full parser's, byte for byte
    assert run_main(capsys, argv) == run_full_parser(capsys, argv)


@pytest.mark.parametrize("word", [*COMMANDS, "quantize-check"])
def test_one_command_parser_holds_only_that_command(capsys, word):
    full = cli.build_parser()
    one = cli.build_parser(cli.command_name(word))
    assert one.format_usage() == full.format_usage()
    assert one.parse_args([word, "a.json"]) == full.parse_args([word, "a.json"])
    for other in COMMANDS:
        if other != cli.command_name(word):
            with pytest.raises(SystemExit):
                one.parse_args([other, "a.json"])
    capsys.readouterr()


def test_command_table_matches_the_handlers():
    assert list(cli.COMMANDS) == list(cli.HANDLERS) == COMMANDS
    assert cli.command_name("quantize-check") == "quantize"
    assert cli.command_name("frobnicate") is None


@pytest.mark.parametrize(
    "argv, built",
    [
        (["rack", HEIS, "--samples", "2"], "rack"),
        (["quantize-check", "--help"], "quantize"),
        (["frobnicate", HEIS], None),
        (["--help"], None),
        ([], None),
    ],
)
def test_main_builds_the_parser_of_the_named_command(monkeypatch, capsys, argv, built):
    calls = []
    build = cli.build_parser

    def spy(command=None):
        calls.append(command)
        return build(command)

    monkeypatch.setattr(cli, "build_parser", spy)
    run_main(capsys, argv)
    assert calls == [built]


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["leibrack", "validate", HEIS])
    assert cli.main() == 0
    assert "leibniz-identity: pass" in capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["leibrack", "rack", HEIS, "extra"])
    code, _, err = run_main(capsys, None)
    assert code == 2
    assert "unrecognized arguments: extra" in err
