import pytest

from infoclone.cli import main

_ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []


@pytest.fixture
def acceptance():
    """Record one acceptance criterion outcome and assert it passed.

    Results are echoed after the run, one line per criterion, so the
    pass/fail status is visible even with captured output.
    """

    def record(index: int, description: str, passed: bool, detail: str = "") -> None:
        _ACCEPTANCE_RESULTS.append((index, description, bool(passed), detail))
        assert passed, f"criterion {index}: {description} ({detail})"

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for index, description, passed, detail in sorted(_ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        line = f"[{status}] criterion {index}: {description}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)


@pytest.fixture(scope="module")
def run_cli(tmp_path_factory):
    """Run the CLI in process, each report to a file of its own; return the
    exit code and the report's bytes (empty when none was written)."""
    base = tmp_path_factory.mktemp("reports")
    counter = {"n": 0}

    def run(*args: str) -> tuple[int, bytes]:
        counter["n"] += 1
        out = base / f"report_{counter['n']}.out"
        code = main([*args, "--out", str(out)])
        return code, (out.read_bytes() if out.exists() else b"")

    return run
