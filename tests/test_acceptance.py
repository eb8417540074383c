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

from kgbound import cli, coulomb_mixed as cm, oracle, scalar_linear as sl, verify


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


def _scaled_where_offset(monkeypatch, scale):
    """Patch the mixed candidates of every V0 != 0 set to be multiplied by
    `scale`."""
    candidates = cm._candidates

    def scaled(q, b, beta, V0, mc2, B):
        inner, e_plus, e_minus = candidates(q, b, beta, V0, mc2, B)
        factor = np.where(V0 != 0.0, scale, 1.0)
        return inner, e_plus * factor, e_minus * factor

    monkeypatch.setattr(cm, "_candidates", scaled)


def test_rows_fail_over_fewer_levels(monkeypatch):
    """With the mixed candidates of every V0 != 0 set NaN, those levels are
    labelled spurious and leave the checked set; each row that states its
    level count then fails by the count, though its values alone would pass."""
    _scaled_where_offset(monkeypatch, math.nan)
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


def test_shifted_candidates_fail_residuals_by_value(monkeypatch):
    """With the mixed candidates of every V0 != 0 set scaled by 1 + 2e-6, the
    levels keep their labels, since the label reads the sign of gamma1, and
    the back-substitution residual fails by value over every level."""
    _scaled_where_offset(monkeypatch, 1.0 + 2e-6)
    spec = next(s for s in verify.REGISTRY if s.measure is verify._bound_residuals)
    (row,) = spec.measure(spec.full, "corrected")
    assert row.levels == row.min_levels == 234
    assert row.observed > 1e-4 and not row.passed


def test_quick_rows_fail_over_fewer_levels(monkeypatch):
    """With every mixed particle candidate NaN, `verify` fails each mixed row
    whose quick set states a level count: those that read a table by the
    count, the oracle row over its listed levels by value."""
    candidates = cm._candidates

    def no_particles(q, b, beta, V0, mc2, B):
        inner, e_plus, e_minus = candidates(q, b, beta, V0, mc2, B)
        return inner, e_plus * math.nan, e_minus

    monkeypatch.setattr(cm, "_candidates", no_particles)
    rows = {c.name: c for c in verify.run_verify("mixed")}
    for name, stated in (("mixed-bound-residuals", 18),
                         ("mixed-normalization-closed-vs-quadrature", 8)):
        row = rows[name]
        assert row.min_levels == stated and row.levels < stated
        assert row.observed <= row.tolerance and not row.passed
    row = rows["mixed-oracle-agreement"]
    assert (row.levels, row.min_levels, row.observed, row.passed) == (4, 4, math.inf, False)


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


_GAMMA2, _ALPHA2 = cm._gamma2, sl._alpha2
# every term of each planted error is nonzero at these couplings
_MIXED = (cm, "_gamma2", "mixed-field-reduction", cm.MixedCoulombParams(q=0.5, b=0.5, beta=0.5))


@pytest.mark.parametrize("module, name, row_name, params, mutant", [
    (*_MIXED, lambda q, b, beta, l: _GAMMA2(q, b, beta, l) + 0.01 * q * q * (1.0 - beta * beta)),
    (*_MIXED, lambda q, b, beta, l: _GAMMA2(q, b, beta, l) - 0.02 * b * q),
    (*_MIXED, lambda q, b, beta, l: _GAMMA2(q, b, beta, l) + 1e-3),
    (sl, "_alpha2", "scalar-field-reduction", sl.LinearMassParams(s=1.0),
     lambda s, hbar_c, l: _ALPHA2(s, hbar_c, l) + 1e-3),
], ids=["gamma2+0.01q^2(1-beta^2)", "gamma2-0.02bq", "gamma2+1e-3", "alpha2+1e-3"])
def test_angular_term_has_one_definition(monkeypatch, module, name, row_name, params, mutant):
    """An error planted in a model's centrifugal coefficient, gamma2 or
    alpha2, fails criterion 7's field reduction by value and moves every
    energy of the model's table: the effective angular momentum has no
    second definition that could keep the closed form as it was."""
    before = module.spectrum_columns(params, 3, 3)["energy"]
    monkeypatch.setattr(module, name, mutant)
    rows = {c.name: c for spec in verify.REGISTRY if spec.criterion == 7
            for c in spec.measure(spec.full, "corrected")}
    row = rows[row_name]
    assert row.levels > 0 and row.observed > row.tolerance and not row.passed
    after = module.spectrum_columns(params, 3, 3)["energy"]
    assert np.all(np.isfinite(before)) and not np.any(after == before)


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
