"""``python -m ascentseq`` as a separate process: exit codes and stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ascentseq

SRC = str(Path(ascentseq.__file__).resolve().parent.parent)


def run_module(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, "-m", "ascentseq", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=60)


@pytest.mark.parametrize("argv,code,err", [
    (["count", "--pattern", "101", "--n", "1..5", "--format", "csv"], 0, ""),
    (["count", "--n", "3"], 2, "the following arguments are required: "
     "--pattern"),
    (["count", "--pattern", "275", "--n", "3"], 2, "error: pattern '275' is "
     "not in normal form"),
    (["count", "--pattern", "101", "--n", "1..5", "--budget-seconds", "-1"],
     3, ""),
])
def test_exit_codes(argv, code, err):
    proc = run_module(*argv)
    assert proc.returncode == code
    assert err in proc.stderr if err else proc.stderr == ""
    assert "Traceback" not in proc.stderr
    if code == 0:
        assert proc.stdout.splitlines()[2:] == ["1,1", "2,2", "3,5", "4,14",
                                                "5,42"]
    if code == 3:
        assert proc.stdout.splitlines()[-1] == (
            "# incomplete: budget of -1s exceeded")
