import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from giryq import Dist, FiniteSpace, Kernel, Predicate
from giryq.quantifiers import _lifted_constraints, _pair

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def fresh_memos():
    """Each test starts with no fiber and no kernel pair kept, so a phase
    1 solved under a monkeypatched ``_guide_cap``, a fiber solved while
    ``_propose`` returned a fixed ``_Tableau``, or a pair staged or
    composed while ``image_measure``, ``mixture`` or ``compose`` was
    monkeypatched, cannot serve a later test, and every test sees its own
    ``compose`` and ``image_measure`` calls."""
    for memo in (_lifted_constraints, _pair):
        memo.cache_clear()
    yield
    for memo in (_lifted_constraints, _pair):
        memo.cache_clear()


@pytest.fixture
def run_python():
    """Run ``python *argv`` in a fresh interpreter that imports giryq from ``src``.

    Returns the completed process with stdout and stderr as bytes; stdout
    goes to ``stdout`` (a file descriptor) when one is given.
    """
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))

    def run(*argv: str, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *argv], cwd=REPO, env=env, stdout=stdout,
            stderr=subprocess.PIPE, timeout=600,
        )

    return run


@pytest.fixture
def three_points():
    return FiniteSpace("X", ("x1", "x2", "x3"))


@pytest.fixture
def two_points():
    return FiniteSpace("Y", ("y1", "y2"))


@pytest.fixture
def channel(three_points, two_points):
    """A 3-to-2 kernel with one deterministic row and two noisy rows."""
    return Kernel(
        three_points,
        two_points,
        (
            Dist(two_points, (F(1), F(0))),
            Dist(two_points, (F(1, 2), F(1, 2))),
            Dist(two_points, (F(3, 10), F(7, 10))),
        ),
    )


@pytest.fixture
def gain(three_points):
    return Predicate(three_points, (F(1, 2), F(3, 5), F(9, 10)))
