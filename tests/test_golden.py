"""Byte-for-byte pins of the CLI's stdout.

The expected files under ``golden/`` were captured from the scenario corpus
and a fixed law seed; any change to a printed value, witness, regime,
report line or serialized document shows up here.  Regenerate them only for
an intended change of output.
"""
from pathlib import Path

import pytest

from giryq import load_scenario, serialize_scenario

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"
CORPUS = ("noisy_channel", "chain_and_laws")

CASES = {
    "run_noisy_channel.txt": ("run", "scenarios/noisy_channel.json"),
    "run_noisy_channel.json": ("run", "scenarios/noisy_channel.json", "--format", "json"),
    "run_chain_and_laws.txt": ("run", "scenarios/chain_and_laws.json", "--cases", "5"),
    "run_chain_and_laws.json": (
        "run", "scenarios/chain_and_laws.json", "--cases", "5", "--format", "json"
    ),
    "laws_seed0_cases20.txt": ("laws", "--seed", "0", "--cases", "20"),
}


@pytest.mark.parametrize("golden", sorted(CASES))
def test_stdout_matches_golden(run_python, golden):
    done = run_python("-m", "giryq.cli", *CASES[golden])
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize(
    "golden", ["run_noisy_channel.txt", "run_chain_and_laws.txt", "laws_seed0_cases20.txt"]
)
def test_output_is_the_same_under_python_O(run_python, golden):
    # every certificate check is an explicit test, so -O skips none of them
    done = run_python("-O", "-m", "giryq.cli", *CASES[golden])
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (GOLDEN / golden).read_bytes()


# runs the CLI on its arguments, then names on stderr which of the modules
# that only some commands need were imported
_REPORT_IMPORTS = (
    "import sys\n"
    "from giryq.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(*sorted({'giryq.laws', 'concurrent.futures'} & set(sys.modules)), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


@pytest.mark.parametrize(
    "golden, imported",
    [("run_noisy_channel.txt", ""), ("run_chain_and_laws.txt", "giryq.laws"),
     ("laws_seed0_cases20.txt", "giryq.laws")],
)
def test_only_a_command_that_runs_the_suites_imports_them(run_python, golden, imported):
    done = run_python("-c", _REPORT_IMPORTS, *CASES[golden])
    assert done.returncode == 0, done.stderr.decode()
    assert done.stderr.decode() == imported + "\n"
    assert done.stdout == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("name", CORPUS)
def test_serialized_corpus_matches_golden(name):
    scenario = load_scenario(str(REPO / "scenarios" / f"{name}.json"))
    expected = (GOLDEN / f"serialize_{name}.json").read_text(encoding="utf-8")
    assert serialize_scenario(scenario) == expected
