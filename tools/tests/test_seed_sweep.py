"""Tests of seed_sweep.py: python3 -m pytest tools/tests"""

import seed_sweep


def test_two_seeds_at_order_three_show_no_deviation(capsys):
    assert seed_sweep.main([(3, range(2))]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("audits: 2, deviations: 0, CPU: "), lines


def test_a_deviation_is_printed_and_fails_the_sweep(monkeypatch, capsys):
    """An entry that documents PASS for eq9-cosh, which fails as printed."""
    from polyeuler import audit  # importable once seed_sweep has put src/ on the path

    entry = audit._TABLE["eq9-cosh"]._replace(variants={None: audit.PASS})
    monkeypatch.setitem(audit._TABLE, "eq9-cosh", entry)
    assert seed_sweep.main([(3, range(1))]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "seed 0 order 3: eq9-cosh: FAIL (expected PASS)"
    assert lines[1].startswith("audits: 1, deviations: 1, CPU: "), lines


def test_the_default_plan_is_the_hundred_audits():
    assert [(order, list(seeds)) for order, seeds in seed_sweep.PLAN] == [
        (3, list(range(40))),
        (4, list(range(40))),
        (10, list(range(20))),
    ]
