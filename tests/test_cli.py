"""End-to-end command line runs through a subprocess."""

import json
import subprocess
import sys

import pytest

from leibrack import cli
from leibrack.bch import MAX_ORDER
from leibrack.corpus import CORPUS_NAMES, corpus_path


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "leibrack", *map(str, args)],
        capture_output=True,
        text=True,
    )


def corpus_file(name):
    return str(corpus_path(name))


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
    assert run_cli("validate", broken).returncode == 2
    not_lowest = tmp_path / "nl.json"
    not_lowest.write_text(
        json.dumps({"dim": 1, "brackets": [{"i": 1, "j": 1, "value": [[2, 4]]}]})
    )
    assert run_cli("validate", not_lowest).returncode == 2


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
