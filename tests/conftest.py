"""Prints a one-line verdict per release criterion after the run.

Also moves hypothesis's caches into pytest's cache directory: hypothesis
otherwise writes them to ./.hypothesis at collection time.
"""

from hypothesis.configuration import set_hypothesis_home_dir

_acceptance_results: list[tuple[str, str]] = []


def pytest_configure(config):
    if hasattr(config, "cache"):  # absent under -p no:cacheprovider
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    _acceptance_results.append((report.nodeid.split("::")[-1], report.outcome))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "release criteria")
    for name, outcome in sorted(_acceptance_results):
        terminalreporter.write_line(f"{outcome.upper():6s} {name}")
