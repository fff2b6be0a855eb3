import pytest

_SCORECARD = pytest.StashKey[list]()


@pytest.fixture
def scorecard(request):
    """Writer that records one line per acceptance criterion; the lines are
    printed in pytest's terminal summary, which output capture leaves
    alone, so a normal run shows the scorecard."""
    lines = request.config.stash.setdefault(_SCORECARD, [])

    def announce(number: int, passed: bool, detail: str) -> None:
        verdict = "PASS" if passed else "FAIL"
        lines.append(f"acceptance {number:2d} {verdict}: {detail}")

    return announce


def pytest_terminal_summary(terminalreporter, config):
    lines = config.stash.get(_SCORECARD, [])
    if lines:
        terminalreporter.section("acceptance scorecard")
        for line in lines:
            terminalreporter.write_line(line)
