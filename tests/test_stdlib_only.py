"""treealg runs on the standard library alone.

numpy backs only the dense oracle of the tests.  These tests start fresh
interpreters: one where every numpy import fails runs the verify-ckt and
check-tensor cases of tests/golden/cli.jsonl and must reproduce their
recorded exit codes and output bytes; others check that importing the
command line leaves numpy, dataclasses, inspect and argparse unloaded,
and that well-formed calls do not load argparse either.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import test_golden_cli as golden

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
COMMANDS = ("verify-ckt", "check-tensor")

WITHOUT_NUMPY = f"""
import json, sys
from pathlib import Path
sys.modules["numpy"] = None
sys.path[:0] = [{str(SRC)!r}, {str(TESTS)!r}]
import treealg
import test_golden_cli as golden
golden._write_inputs(Path.cwd())
got = {{}}
for name, argv, from_argparse in golden.cases():
    if argv[:1] and argv[0] in {COMMANDS!r} and not from_argparse:
        code, out, err = golden.run(argv)
        got[name] = {{"stdout": golden._sha256(out), "stderr": golden._sha256(err), "exit": code}}
print(json.dumps(got))
"""


IMPORT_THEN_CALL = f"""
import json, sys
from pathlib import Path
sys.path[:0] = [{str(SRC)!r}, {str(TESTS)!r}]
before = set(sys.modules)
import treealg.cli
imported = set(sys.modules) - before
import test_golden_cli as golden
golden._write_inputs(Path.cwd())
ran = {{}}
for name, argv, from_argparse in golden.cases():
    if not from_argparse and argv[0] not in ran:
        ran[argv[0]] = golden.run(argv)[0]
print(json.dumps([sorted(imported), ran, sorted(set(sys.modules) - before)]))
"""


def fresh_python(code: str, cwd: Path) -> str:
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def test_commands_reproduce_their_golden_bytes_when_numpy_cannot_load(tmp_path):
    got = json.loads(fresh_python(WITHOUT_NUMPY, tmp_path))
    recorded = {}
    for text in golden.GOLDEN.read_text(encoding="utf-8").splitlines():
        line = json.loads(text)
        if line["case"] in got:
            recorded[line["case"]] = {k: line[k] for k in ("stdout", "stderr", "exit")}
    assert got == recorded
    # yes, no and inconclusive verdicts, and a data error.
    assert {case["exit"] for case in got.values()} == {0, 1, 2, 65}
    assert sum(name.startswith("verify-ckt") for name in got) == 9


def test_importing_the_command_line_leaves_numpy_unloaded(tmp_path):
    code = "import sys, treealg.cli; print(sorted(m for m in sys.modules if m.startswith('numpy')))"
    assert fresh_python(code, tmp_path).strip() == "[]"


def test_importing_the_command_line_loads_neither_dataclasses_nor_inspect(tmp_path):
    # What the import adds to the modules json and enum load: the
    # records are built without dataclasses, whose decorators generate and
    # exec source on every import, or inspect, which it pulls in.
    code = (
        "import sys, json, enum; before = set(sys.modules); import treealg.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    added = json.loads(fresh_python(code, tmp_path))
    assert "treealg.cli" in added
    assert "dataclasses" not in added and "inspect" not in added


def test_well_formed_calls_leave_argparse_unloaded(tmp_path):
    # argparse, and the gettext and locale it imports, load only for a
    # call the direct parse declines: help, a usage error, an unusual
    # spelling.
    imported, ran, loaded = json.loads(fresh_python(IMPORT_THEN_CALL, tmp_path))
    assert "treealg.cli" in imported
    assert not {"argparse", "gettext", "locale"} & set(imported)
    assert sorted(ran) == sorted(golden.COMMANDS) and set(ran.values()) <= {0, 1, 2}
    assert "argparse" not in loaded
