"""Test-run summary that tells the known-red test from a new failure.

``test_criterion_08b_envelope_full_interval`` fails by design (README,
"Known-red acceptance test"); every other failure or collection error is
a regression.  The summary counts the first and names each of the others
on a ``NEW FAILURE: <nodeid>`` line.  Outcomes and the exit status stay
pytest's own.
"""

KNOWN_RED = "test_criterion_08b_envelope_full_interval"


def pytest_terminal_summary(terminalreporter):
    stats = terminalreporter.stats
    known, new = 0, {}
    for rep in stats.get("failed", []) + stats.get("error", []):
        if rep.nodeid.endswith("::" + KNOWN_RED) and rep.when == "call":
            known += 1
        else:  # a test that fails and then errors in teardown is named once
            new.setdefault(rep.nodeid, None)
    terminalreporter.section("known-red and new failures")
    terminalreporter.write_line(f"known-red failures ({KNOWN_RED}): {known}")
    for nodeid in new:
        terminalreporter.write_line(f"NEW FAILURE: {nodeid}")
