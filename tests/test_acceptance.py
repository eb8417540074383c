"""Acceptance gate: one test per release criterion, one printed line per row.

Criteria 1-8 run the checks of `kgbound.verify.REGISTRY` on their full
fixture sets: each check is defined once there, shared with `kgbound verify`,
which runs the same checks on their quick sets.  Criterion 8 adds textbook
fixtures on the oscillator's r^p-factored scheme, and criterion 9 holds the
CLI contract.
Tolerances are frozen; loosening one is a release decision, not a test fix.
"""

import json
import math

from kgbound import cli, coulomb_mixed as cm, oracle, verify


def _report(capsys, criterion: int, rows):
    """Print one [PASS]/[FAIL] line per (name, passed, detail) row, then assert."""
    with capsys.disabled():
        for name, passed, detail in rows:
            print(f"[{'PASS' if passed else 'FAIL'}] criterion-{criterion} {name}  ({detail})")
    assert rows and all(passed for _, passed, _ in rows), [r for r in rows if not r[1]]


def _registry_rows(criterion: int):
    """Every registry check of one criterion, run on its full fixture set."""
    return [
        (c.name, c.passed,
         f"observed {c.observed:.3e} {c.comparison} {c.tolerance:g}, {c.levels} levels")
        for spec in verify.REGISTRY if spec.criterion == criterion
        for c in spec.measure(spec.full, "corrected")
    ]


def _gate(capsys, criterion: int):
    _report(capsys, criterion, _registry_rows(criterion))


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


# -u'' + (p(p-1)/r^2 + c_r2 r^2) u = mu u with u(r_max) = 0:
# (name, p, c_r2, (r_min, r_max), levels, exact mu of level i)
_SELF_TESTS = (
    ("box", 1.0, 0.0, (1e-9, 1.0), 6, lambda i: ((i + 1) * math.pi) ** 2),
    ("oscillator", 1.0, 1.0, (1e-8, 12.0), 3, lambda i: 4 * i + 3),
)


def test_criterion_8_oracle_self_tests(capsys):
    """The oracle's lam_n(p) and sigma_n(p) against their textbook values (a
    registry check), and textbook fixtures on the oscillator's r^p-factored
    scheme at 6000 points: the coarse operator, with eigenvector i checked to
    have i nodes, and its Richardson value."""
    rows = _registry_rows(8)
    for name, p, c_r2, (r_min, r_max), count, exact in _SELF_TESTS:
        grid = oracle.RadialGrid(r_min, r_max, 6000)
        coarse_system = oracle._transformed_system(p, c_r2, grid)
        fine_system = oracle._transformed_system(p, c_r2, grid.refined())
        coarse = [oracle.eigen_lowest(coarse_system, i, check_nodes=True) for i in range(count)]
        richardson = [
            (4.0 * oracle.eigen_lowest(fine_system, i, check_nodes=False) - c) / 3.0
            for i, c in enumerate(coarse)
        ]
        for kind, values in (("coarse", coarse), ("richardson", richardson)):
            dev = max(abs(v - exact(i)) / abs(exact(i)) for i, v in enumerate(values))
            rows.append((f"{name}-{kind}", dev <= 1e-4,
                         f"max rel dev {dev:.3e} <= 0.0001, {count} levels"))
    # h^2 convergence of the coarse box ground state
    errors = [
        abs(oracle.eigen_lowest(oracle._transformed_system(1.0, 0.0, grid), 0) - math.pi**2)
        for grid in (oracle.RadialGrid(1e-9, 1.0, 1500), oracle.RadialGrid(1e-9, 1.0, 3001))
    ]
    factor = errors[0] / errors[1]
    rows.append(("box-h2-factor", 3.5 <= factor <= 4.5, f"{factor:.2f} in [3.5, 4.5]"))
    _report(capsys, 8, rows)


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
