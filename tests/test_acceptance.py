"""Acceptance gate: one test per release criterion, one printed line per row.

Criteria 1-8 are the checks of `kgbound.verify.REGISTRY`, each defined once
there and run here on its full fixture set by one test parametrized over the
registry's criteria, so a check registered under any criterion is gated
without a test of its own.  A full set that states `min_levels` fails a row
over fewer levels.  `kgbound verify` runs the same checks on their quick
sets.  Criterion 9 holds the CLI contract.
Tolerances are frozen; loosening one is a release decision, not a test fix.
"""

import json
import math

import numpy as np
import pytest

from kgbound import cli, coulomb_mixed as cm, oracle, verify


def _report(capsys, criterion: int, rows):
    """Print one [PASS]/[FAIL] line per (name, passed, detail) row, then assert."""
    with capsys.disabled():
        for name, passed, detail in rows:
            print(f"[{'PASS' if passed else 'FAIL'}] criterion-{criterion} {name}  ({detail})")
    assert rows and all(passed for _, passed, _ in rows), [r for r in rows if not r[1]]


@pytest.mark.parametrize("criterion", sorted({spec.criterion for spec in verify.REGISTRY}),
                         ids="criterion-{}".format)
def test_criterion(capsys, criterion):
    """Every registry check of one criterion, run on its full fixture set."""
    _report(capsys, criterion, [
        (c.name, c.passed,
         f"observed {c.observed:.3e} {c.comparison} {c.tolerance:g}, {c.levels} levels"
         + (f" of {c.min_levels} stated" if c.min_levels else ""))
        for spec in verify.REGISTRY if spec.criterion == criterion
        for c in spec.measure(spec.full, "corrected")
    ])


def test_rows_fail_over_fewer_levels(monkeypatch):
    """With the mixed candidates of every V0 != 0 set scaled by 1 + 2e-6,
    those levels fail back-substitution and leave the checked set; each row
    that states its level count then fails by the count, though its values
    alone would pass."""
    candidates = cm._candidates

    def shifted(q, b, beta, V0, mc2, B):
        inner, e_plus, e_minus = candidates(q, b, beta, V0, mc2, B)
        scale = np.where(V0 != 0.0, 1.0 + 2e-6, 1.0)
        return inner, e_plus * scale, e_minus * scale

    monkeypatch.setattr(cm, "_candidates", shifted)
    rows = [c for spec in verify.REGISTRY if hasattr(spec.full, "min_levels")
            for c in spec.measure(spec.full, "corrected")]
    assert [(c.name, c.min_levels) for c in rows] == [
        ("mixed-bound-residuals", 234),
        ("mixed-oracle-agreement", 234),
        ("mixed-normalization-closed-vs-quadrature", 468),
        ("mixed-normalization-unit-integral", 468),
    ]
    for c in rows:
        assert c.levels == c.min_levels // 2 and c.observed <= c.tolerance and not c.passed


def test_nan_oracle_fails_its_rows(monkeypatch):
    """With both oracles returning NaN, the rows of criteria 2 and 4 that
    compare against them read NaN over every level and fail."""
    monkeypatch.setattr(oracle, "solve_modelA", lambda *args, **kwargs: math.nan)
    monkeypatch.setattr(oracle, "solve_modelB", lambda *args, **kwargs: math.nan)
    rows = {c.name: c for spec in verify.REGISTRY if spec.criterion in (2, 4)
            for c in spec.measure(spec.full, "corrected")}
    for name, levels in (("mixed-oracle-agreement", 234),
                         ("scalar-oracle-agreement[corrected]", 192)):
        row = rows[name]
        assert math.isnan(row.observed) and row.levels == levels and not row.passed


@pytest.mark.usefixtures("verify_once")
def test_criterion_9_cli_contract(capsys):
    """Verify exit codes, deterministic output, JSON round-trip."""
    codes = (
        cli.main(["verify", "--model", "mixed"]),
        cli.main(["verify", "--model", "scalar-linear"]),
        cli.main(["verify", "--model", "scalar-linear", "--mode", "as_printed"]),
    )
    capsys.readouterr()
    argv = ["spectrum", "--model", "mixed", "--q", "0.4", "--b", "0.3",
            "--beta", "-1", "--V0", "0.05"]
    cli.main(argv)
    first = capsys.readouterr().out
    cli.main(argv)
    second = capsys.readouterr().out
    cli.main(argv + ["--output", "json"])
    doc = json.loads(capsys.readouterr().out)
    rows = cm.spectrum(
        cm.MixedCoulombParams(q=0.4, b=0.3, beta=-1.0, V0=0.05), 3, 3
    )
    round_trip = len(doc["rows"]) == len(rows) and all(
        got == exp.to_dict() for got, exp in zip(doc["rows"], rows)
    )
    ok = codes == (0, 0, 1) and first == second and round_trip
    _report(capsys, 9, [(
        "CLI contract", ok,
        f"verify exit codes {codes}, byte-identical {first == second}, "
        f"JSON round-trip {round_trip}",
    )])
