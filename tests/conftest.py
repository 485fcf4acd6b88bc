"""Pytest wiring: print one line per acceptance criterion at the end.

Criteria live in test_acceptance.py as tests named test_ac<k>_*; several
tests may share a number (parametrized instances, the four property
suites), in which case the criterion passes only if all of them do.
"""

import re

_TAG = re.compile(r"test_acceptance\.py::test_ac(\d+)")

_TITLES = {
    1: "reflection witness at n = 3: non-CCA on 18 vertices, under 1 s",
    2: "the same witness at n = 5, 7, 11 and 13, under 30 s each",
    3: "connection-set search on C(3) x D(3) finds a witness, under 2 min",
    4: "flip witness on 36 and 100 vertices, under 1 min combined; "
       "196 vertices under 30 s",
    5: "arc-lift harness: hypotheses and every transported map, n = 3 and 5",
    6: "check-group C(n) returns CCA for every n <= 10, under 5 min",
    7: "backtracking equals the all-permutations filter on 20 small graphs",
    8: "pair verdicts plus the colour group of the complete graph on Q8",
    9: "property suites, 200 cases each",
    10: "check-group: D(16) is CCA and C(5) x D(5) non-CCA, under 10 s each",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    verdicts = {}
    for status, reports in terminalreporter.stats.items():
        for rep in reports:
            m = _TAG.search(getattr(rep, "nodeid", "") or "")
            if not m:
                continue
            k = int(m.group(1))
            if status == "passed" and getattr(rep, "when", "") == "call":
                verdicts.setdefault(k, True)
            elif status in ("failed", "error"):
                verdicts[k] = False
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for k in sorted(verdicts):
        word = "PASS" if verdicts[k] else "FAIL"
        terminalreporter.write_line(
            f"criterion {k}: {word} - {_TITLES.get(k, '')}")
