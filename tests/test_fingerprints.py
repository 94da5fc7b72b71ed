"""The CLI fingerprint tool on the ladder workload and the tests/data cases at seed 1."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from test_golden import BCH_POINTS

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "cli_fingerprints.py"


def run_tool(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, args)], capture_output=True, text=True
    )


def test_ladder_fingerprints_compare_equal_to_themselves(tmp_path):
    out = tmp_path / "a.json"
    proc = run_tool(ROOT, out, "--workloads", "ladder", "--seeds", "1")
    assert proc.returncode == 0, proc.stderr
    found = json.loads(out.read_text())
    ladder = {key: value for key, value in found.items() if key.startswith("ladder seed1 ")}
    assert len(ladder) == 7
    assert all(value["exit"] == 0 and value["json_sha256"] for value in ladder.values())
    assert found["usage validate heisenberg --mode float"]["exit"] == 2
    assert found["usage tangent sl2 --step=1e-200"]["exit"] == 2
    data = {key: value for key, value in found.items() if key.startswith("data ")}
    assert sorted(data) == sorted(
        f"data seed1 {command} {name}"
        for name in ("freenil3-perturbed", "n4-rebased", "n5")
        for command in ("validate", "analyze", "rack", "cocycle", "quantize", "hessian", "bch")
    )
    refused = {
        "bch": "needs a Lie algebra",
        "analyze": "needs a Leibniz algebra",
        "cocycle": "needs a Leibniz algebra",
    }
    for key, value in data.items():
        command = key.split()[2]
        if key.endswith("freenil3-perturbed") and command in refused:
            assert value["exit"] == 2 and value["json_sha256"] is None
            assert refused[command] in value["stderr"]
            continue
        fails = key.endswith("freenil3-perturbed") and " hessian " not in key
        assert value["exit"] == (1 if fails else 0)
        assert value["json_sha256"]
    assert found["usage frobnicate heisenberg"]["json_sha256"] is None
    # flag paths that no workload takes: bch at the golden points and at 0
    # (exit 0), bch below freenil3's class 3 (exit 1), cocycle --order 0 (exit 2)
    flag_paths = {
        f"usage bch {name} {'--mode float ' if mode == 'float' else ''}--x={x} --y={y}": 0
        for (name, mode), (x, y) in BCH_POINTS.items()
    }
    flag_paths |= {
        "usage bch heisenberg --x=0,0,0 --y=0,0,0": 0,
        "usage bch freenil3 --order 2": 1,
        "usage cocycle heisenberg --order 0": 2,
    }
    for key, code in flag_paths.items():
        assert found[key]["exit"] == code, key
        assert (found[key]["json_sha256"] is None) == (code == 2), key
    assert found["usage cocycle heisenberg --order 0"]["stderr"] == (
        "error: --order must be at least 1\n"
    )
    bad_fraction = found["usage hessian heisenberg --xi 1,oops,3"]
    assert bad_fraction["exit"] == 2
    assert bad_fraction["stderr"].startswith("error: --xi: ")
    assert "'oops'" in bad_fraction["stderr"]
    # an unrecognized argument is the top-level parser's error, whose usage
    # names every command; a bad flag value is the subcommand parser's
    top = "usage: leibrack [-h] {validate,analyze,rack,bch,cocycle,quantize,quantize-check,"
    rejected = {
        "extra": (top, "leibrack: error: unrecognized arguments: extra"),
        "--samples x": ("usage: leibrack rack [-h]",
                        "leibrack rack: error: argument --samples: invalid int value: 'x'"),
        "--mode quux": ("usage: leibrack rack [-h]",
                        "leibrack rack: error: argument --mode: invalid choice: 'quux'"),
    }
    for flags, (usage, message) in rejected.items():
        value = found[f"usage rack heisenberg {flags}"]
        assert value["exit"] == 2 and value["json_sha256"] is None
        assert " ".join(value["stderr"].split()).startswith(usage)
        assert message in value["stderr"]
    helps = {key: value for key, value in found.items() if key.endswith(" heisenberg --help")}
    assert sorted(helps) == sorted(
        f"usage {command} heisenberg --help"
        for command in ("validate", "analyze", "rack", "bch", "cocycle", "quantize",
                        "quantize-check", "hessian", "tangent")
    )
    assert all(value["exit"] == 0 and value["stderr"] == "" for value in helps.values())
    # the alias prints the help of the command it names
    assert (helps["usage quantize-check heisenberg --help"]["stdout_sha256"]
            == helps["usage quantize heisenberg --help"]["stdout_sha256"])

    assert run_tool("--compare", out, out).returncode == 0

    changed = dict(found)
    changed["ladder seed1 validate n4"] = dict(changed["ladder seed1 validate n4"], exit=1)
    del changed["ladder seed1 hessian n6"]
    other = tmp_path / "b.json"
    other.write_text(json.dumps(changed))
    proc = run_tool("--compare", out, other)
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[:2] == ["ladder seed1 hessian n6", "ladder seed1 validate n4"]

    # an unreadable side is an error, not a list of differing ops
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    for bad in (broken, tmp_path / "missing.json"):
        assert run_tool("--compare", out, bad).returncode == 2


def test_an_uncaught_exception_takes_the_place_of_the_exit_code(tmp_path):
    spec = importlib.util.spec_from_file_location("cli_fingerprints", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    def main(argv):
        print("partial")
        raise ZeroDivisionError("float division by zero")

    found = tool.run(main, ["tangent"], str(tmp_path / "r.json"))
    assert found["exit"] == "uncaught ZeroDivisionError: float division by zero"
    assert found["stdout_sha256"] == tool.digest(b"partial\n")
    assert found["json_sha256"] is None
