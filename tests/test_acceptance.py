"""Acceptance gate: one test per release criterion, one printed line per row.

Criteria 1-7 run the checks of `kgbound.verify.REGISTRY` on their full
fixture sets: each check is defined once there, shared with `kgbound verify`,
which runs the same checks on their quick sets.  Criterion 8 solves textbook
fixtures with the oracle, and criterion 9 holds the CLI contract.
Tolerances are frozen; loosening one is a release decision, not a test fix.
"""

import json
import math

from kgbound import cli, coulomb_mixed as cm, oracle, verify


def _report(capsys, name: str, passed: bool, detail: str = ""):
    with capsys.disabled():
        tail = f"  ({detail})" if detail else ""
        print(f"[{'PASS' if passed else 'FAIL'}] {name}{tail}")
    assert passed, f"{name}: {detail}"


def _gate(capsys, criterion: int):
    """Run every registry check of one criterion on its full fixture set."""
    checks = [check for spec in verify.REGISTRY if spec.criterion == criterion
              for check in spec.measure(spec.full, "corrected")]
    with capsys.disabled():
        for c in checks:
            print(f"[{'PASS' if c.passed else 'FAIL'}] criterion-{criterion} {c.name}  "
                  f"(observed {c.observed:.3e} {c.comparison} {c.tolerance:g}, {c.levels} levels)")
    assert checks and all(c.passed for c in checks), [c for c in checks if not c.passed]


def test_criterion_1_constant_mass_equal_mix(capsys):
    """E+ closed form and E- threshold for the constant-mass equal mix."""
    _gate(capsys, 1)


def test_criterion_2_mixed_oracle_agreement(capsys):
    """Every bound closed-form level is confirmed by the grid solver."""
    _gate(capsys, 2)


def test_criterion_3_mass_duality(capsys):
    """q = b/2 varying-mass spectra equal their constant-mass partners."""
    _gate(capsys, 3)


def test_criterion_4_scalar_oracle_agreement(capsys):
    """Corrected-mode E^2 against the oscillator grid solver."""
    _gate(capsys, 4)


def test_criterion_5_discrepancies_reproduced(capsys):
    """The published-forms gaps are exhibited exactly, never patched over."""
    _gate(capsys, 5)


def test_criterion_6_normalization(capsys):
    """Closed-form norms match quadrature; all u integrate to one."""
    _gate(capsys, 6)


def test_criterion_7_nu_engine_regression(capsys):
    """Branch coefficients, perfect squares, and the n=0 condition."""
    _gate(capsys, 7)


def test_criterion_8_oracle_self_tests(capsys):
    """Textbook fixtures solved at default resolution."""
    # particle in a box on (0, 1)
    box = oracle.RadialGrid(1e-9, 1.0, points=6000)
    free = oracle.EffectivePotentialSpec(0.0, 0.0, 0.0)
    box_vals = oracle.eigen_lowest(oracle.discretize(free, box), 6)
    box_dev = max(
        abs(v - ((i + 1) * math.pi) ** 2) / ((i + 1) * math.pi) ** 2
        for i, v in enumerate(box_vals)
    )
    # hydrogen-like: -u'' - (2/r)u = E u
    hyd = oracle.RadialGrid(1e-8, 70.0, points=6000)
    coul = oracle.EffectivePotentialSpec(0.0, -2.0, 0.0)
    hyd_vals = oracle.eigen_lowest(oracle.discretize(coul, hyd), 3)
    hyd_dev = max(
        abs(v + 1.0 / (i + 1) ** 2) * (i + 1) ** 2 for i, v in enumerate(hyd_vals)
    )
    # node-count indexing for n <= 5 passed inside eigen_lowest(..., 6) above;
    # h^2 convergence on the box ground state
    errors = []
    for pts in (1500, 3001):
        grid = oracle.RadialGrid(1e-9, 1.0, points=pts)
        val = oracle.eigen_lowest(oracle.discretize(free, grid), 1)[0]
        errors.append(abs(val - math.pi**2))
    factor = errors[0] / errors[1]
    ok = box_dev <= 1e-4 and hyd_dev <= 1e-4 and 3.5 <= factor <= 4.5
    _report(
        capsys,
        "criterion-8 oracle self-tests",
        ok,
        f"box dev {box_dev:.3e}, hydrogen dev {hyd_dev:.3e}, "
        f"h^2 factor {factor:.2f}",
    )


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
    _report(
        capsys,
        "criterion-9 CLI contract",
        ok,
        f"verify exit codes {codes}, byte-identical {first == second}, "
        f"JSON round-trip {round_trip}",
    )
