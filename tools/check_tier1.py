"""Gate a tier-1 test run on its JUnit XML report.

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors --junitxml=tier1.xml
    python tools/check_tier1.py tier1.xml

Criteria 03 and 04 of ``tests/test_acceptance.py`` fail by design: they pin
the grid Monte Carlo to the quadratic predictors where those are biased.
The script prints the status of those two, with the first line of a
failure message (their z-values), and exits 1 on any other failure
or error, collection errors included, or on a report with no test cases;
otherwise it exits 0.  An unreadable report exits 2.  A reader that closes
the output early (``| head -2``) cuts the listing short, not the status.
"""

from __future__ import annotations

import os
import sys
import xml.etree.ElementTree as ET

EXPECTED_FAILURES = (
    ("tests.test_acceptance", "test_criterion_03_cbc_grid_variances"),
    ("tests.test_acceptance", "test_criterion_04_amplitude_reduction"),
)


def outcome(case) -> tuple:
    """passed, skipped, failure or error for one ``testcase``, and its message's first line."""
    for tag in ("error", "failure", "skipped"):
        child = case.find(tag)
        if child is not None:
            return tag, (child.get("message") or "").split("\n", 1)[0]
    return "passed", ""


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: check_tier1.py REPORT.xml", file=sys.stderr)
        return 2
    try:
        cases = list(ET.parse(args[0]).getroot().iter("testcase"))
    except (OSError, ET.ParseError) as exc:
        print(f"error: cannot read {args[0]}: {exc}", file=sys.stderr)
        return 2
    expected = {key: ("missing", "") for key in EXPECTED_FAILURES}
    unexpected = []
    for case in cases:
        key = (case.get("classname", ""), case.get("name", ""))
        result, message = outcome(case)
        if key in expected:
            expected[key] = result, message
            ok = result in ("failure", "passed")
        else:
            ok = result in ("passed", "skipped")
        if not ok:
            unexpected.append(f"{'::'.join(filter(None, key))}: {result}")
    lines = [f"expected failure {module}::{name}: {result}" + (f" ({message})" if message else "")
             for (module, name), (result, message) in expected.items()]
    lines += [f"UNEXPECTED {line}" for line in unexpected]
    lines.append(f"{len(cases)} test case(s), {len(unexpected)} unexpected result(s)")
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:
        # the reader left early (``... | head -2``): keep the status, and point
        # stdout at devnull so the flush at exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if cases and not unexpected else 1


if __name__ == "__main__":
    sys.exit(main())
