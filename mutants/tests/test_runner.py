"""Tests of runner.py on a toy tree: python3 -m pytest -q mutants/tests"""

import pytest

import runner
from catalogue import Mutant


@pytest.fixture
def toy(tmp_path):
    """A tree with the copied layout: one function and the test that pins it."""
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "toy.py").write_text("def double(x):\n    return 2 * x\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_toy.py").write_text(
        "from toy import double\n\n\ndef test_double():\n    assert double(3) == 6\n"
    )
    (tmp_path / "tools").mkdir()
    (tmp_path / "README.md").write_text("toy\n")
    return tmp_path


def toy_mutant(new, expect, old="    return 2 * x\n"):
    return Mutant("toy", "src/toy.py", old, new, ("tests/test_toy.py",), expect)


def test_a_mutant_the_test_sees_must_be_killed(toy, capsys):
    killed = toy_mutant("    return 3 * x\n", "killed")
    assert runner.outcome(killed, toy) == "killed"
    assert runner.main([killed], toy) == 0
    marked_equivalent = killed._replace(expect="equivalent: it is not")
    assert runner.main([marked_equivalent], toy) == 1
    assert "killed, so it is not equivalent" in capsys.readouterr().out
    # An old text that does not occur exactly once fails the entry.
    assert runner.main([toy_mutant("x", "killed", old="x")], toy) == 1
    assert "old text occurs 2 times" in capsys.readouterr().out


def test_an_equivalent_mutant_must_survive(toy, capsys):
    equivalent = toy_mutant("    return x + x\n", "equivalent: x + x is 2 * x")
    assert runner.outcome(equivalent, toy) == "survived"
    assert runner.main([equivalent], toy) == 0
    assert runner.main([equivalent._replace(expect="killed")], toy) == 1
    assert "survived, but no test should pass with it" in capsys.readouterr().out
    # The toy tree itself is left as it was.
    assert (toy / "src" / "toy.py").read_text() == "def double(x):\n    return 2 * x\n"
