"""The tier-1 gate script: its verdict, also when its reader leaves early."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_tier1.py"
CRITERIA = ("test_criterion_03_cbc_grid_variances", "test_criterion_04_amplitude_reduction")


def _report(tmp_path, extra_failure: bool) -> Path:
    cases = [f'<testcase classname="tests.test_acceptance" name="{name}">'
             '<failure message="z=+6.7"/></testcase>' for name in CRITERIA]
    cases.append('<testcase classname="tests.test_other" name="test_ok"'
                 + ('><failure message="boom"/></testcase>' if extra_failure else "/>"))
    path = tmp_path / "tier1.xml"
    path.write_text(f"<testsuites><testsuite>{''.join(cases)}</testsuite></testsuites>")
    return path


def _run(report, stdout):
    return subprocess.run([sys.executable, str(TOOL), str(report)], stdout=stdout,
                          stderr=subprocess.PIPE, timeout=60)


@pytest.mark.parametrize("extra_failure, status", [(False, 0), (True, 1)])
def test_verdict(tmp_path, extra_failure, status):
    proc = _run(_report(tmp_path, extra_failure), subprocess.PIPE)
    assert proc.returncode == status
    assert proc.stdout.decode().count("expected failure") == 2
    assert ("UNEXPECTED tests.test_other::test_ok: failure" in proc.stdout.decode()) == extra_failure


@pytest.mark.parametrize("extra_failure, status", [(False, 0), (True, 1)])
def test_closed_stdout_keeps_the_status_quietly(tmp_path, extra_failure, status):
    # as with ``| head -2``, but with no reader at all, so every write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run(_report(tmp_path, extra_failure), write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (status, b"")
