import json
from pathlib import Path

import pytest

from giryq import laws
from giryq.laws import SUITES, run_suite, run_suites

STREAMS = Path(__file__).resolve().parent / "law_streams_seed0_cases20.json"


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_passes_on_a_small_budget(name):
    report = run_suite(name, seed=7, cases=15)
    assert report.passed, report.failures


def test_reports_are_deterministic_for_a_seed():
    first = [r.line() for r in run_suites(seed=3, cases=5)]
    second = [r.line() for r in run_suites(seed=3, cases=5)]
    assert first == second


def test_suite_selection_and_order():
    reports = run_suites(["continuity", "monad_laws"], seed=0, cases=5)
    assert [r.name for r in reports] == ["continuity", "monad_laws"]


def test_unknown_suite_is_rejected():
    with pytest.raises(KeyError):
        run_suite("no_such_suite")


def test_pass_line_format():
    report = run_suite("monad_laws", seed=0, cases=5)
    assert report.line() == "PASS monad_laws (5 cases)"


def test_each_suite_draws_the_same_random_stream(monkeypatch):
    # A suite that prints only PASS cannot show a changed draw order, yet
    # replaying a failing case by seed and case number depends on it.  The
    # pinned value is the next 64 random bits after the suite has run.
    rngs = {}

    def recording_rng(seed, name):
        rngs[name] = rng_for(seed, name)
        return rngs[name]

    rng_for = laws._rng_for
    monkeypatch.setattr(laws, "_rng_for", recording_rng)
    after = {}
    for name in SUITES:
        run_suite(name, seed=0, cases=20)
        after[name] = rngs[name].getrandbits(64)
    assert after == json.loads(STREAMS.read_text())
