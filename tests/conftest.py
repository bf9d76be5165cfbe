# idml caps BLAS at one thread only when it is imported before numpy, and
# pytest loads this file before any test module, so the cap holds in the
# test process whatever a test module imports first.
import idml  # noqa: F401

# One line per acceptance check, printed at the end of the run so the
# verdicts are visible even when the tests pass. test_acceptance.py fills it.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance checks")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
