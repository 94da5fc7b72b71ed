"""The CLI fingerprint tool on the ladder workload at seed 1."""

import json
import subprocess
import sys
from pathlib import Path

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
    assert found["usage frobnicate heisenberg"]["json_sha256"] is None

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
