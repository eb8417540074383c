"""Property tests: invariants of the closed-form tables and of the CLI over
random parameters."""

import contextlib
import io
import json
import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kgbound import cli, coulomb_mixed as cm, scalar_linear as sl, verify
from kgbound.errors import EnergyOutOfWindow, InvalidParameter, KGBoundError, UnrealRadicand
from kgbound.levels import ANTIPARTICLE, BOUND, PARTICLE, SPURIOUS, THRESHOLD, UNREAL
from kgbound.units import NATURAL, PhysicalConstants

# the same examples on every run, no example database in the checkout, and
# few enough examples to keep the suite's wall time
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=50)

finite = st.floats(allow_nan=False, allow_infinity=False)
# a flag that is left at its default or set to any finite float
maybe_finite = st.none() | finite
coupling = st.floats(-4.0, 4.0)
constants = st.builds(PhysicalConstants, hbar_c=st.floats(1e-3, 1e3),
                      rest_energy=st.floats(1e-3, 1e3))
mixed_params = st.builds(cm.MixedCoulombParams, q=coupling, b=coupling, beta=coupling,
                         V0=coupling, constants=constants)
sizes = st.integers(0, 3)


# x**2 goes through the C library's pow, which need not round correctly; at
# this x glibc's differs from x*x.  The closed forms square by multiplying, so
# their floats do not depend on the platform's pow.
UNEVEN_SQUARE = 1.7637640404080193


@pytest.mark.parametrize("square", [
    lambda x: cm.MixedCoulombParams(q=x, beta=0.0).gamma2(0),
    lambda x: sl.LinearMassParams(s=x).alpha2(0),
    lambda x: 1.0 / sl.LinearMassParams(s=0.5, constants=PhysicalConstants(hbar_c=x)).epsilon_sq(0.0),
], ids=["mixed-gamma2", "scalar-alpha2", "scalar-hbar-c"])
def test_squares_are_correctly_rounded(square):
    assert square(UNEVEN_SQUARE) == float(Fraction(UNEVEN_SQUARE) ** 2)


def _same(a, b) -> bool:
    """Equal, counting NaN as equal to NaN."""
    return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


@PROPERTY
@given(q=coupling, beta=coupling, V0=coupling, consts=constants, to_constant_mass=st.booleans())
def test_mass_duality(q, beta, V0, consts, to_constant_mass):
    """q = b/2 and its constant-mass partner: the same rows, labels included."""
    b = 2.0 * q if to_constant_mass else 0.0
    params = cm.MixedCoulombParams(q=q, b=b, beta=beta, V0=V0, constants=consts)
    for a, d in zip(cm.spectrum(params, 3, 3), cm.spectrum(params.dual(), 3, 3)):
        assert (a.n, a.l, a.branch, a.status) == (d.n, d.l, d.branch, d.status)
        assert _same(a.energy, d.energy) and _same(a.residual, d.residual)


@PROPERTY
@given(params=mixed_params, n=sizes, l=sizes)
def test_particle_above_antiparticle(params, n, l):
    try:
        e_plus, e_minus = cm.candidate_energies(params, n, l)
    except UnrealRadicand:
        return
    assert e_plus >= e_minus


@PROPERTY
@given(params=mixed_params)
def test_bound_rows_have_small_residual(params):
    for row in cm.spectrum(params, 3, 3):
        if row.status == BOUND:
            assert row.residual < cm.RESIDUAL_TOL * params.constants.rest_energy


@PROPERTY
@given(q=finite, b=finite, beta=finite, V0=finite, s=finite, length_scale=finite,
       hbar_c=finite, rest_energy=finite, n_max=sizes, l_max=sizes,
       mode=st.sampled_from(sl.MODES))
def test_spectrum_raises_only_invalid_parameter(q, b, beta, V0, s, length_scale, hbar_c,
                                                rest_energy, n_max, l_max, mode):
    """Finite input either builds both tables or is refused as InvalidParameter."""
    try:
        consts = PhysicalConstants(hbar_c=hbar_c, rest_energy=rest_energy)
    except InvalidParameter:
        consts = PhysicalConstants()
    try:
        cm.spectrum(cm.MixedCoulombParams(q=q, b=b, beta=beta, V0=V0, constants=consts),
                    n_max, l_max)
    except InvalidParameter:
        pass
    try:
        sl.spectrum(sl.LinearMassParams(s=s, length_scale=length_scale, constants=consts),
                    n_max, l_max, mode)
    except InvalidParameter:
        pass


# The array tables against the per-level loops they replaced, bit for bit.
# The references square by multiplying too, and build on the models' scalar
# methods (B, epsilon, gamma1), which the array pass does not call.


def _reference_candidates(params, n, l):
    B = params.B(n, l)
    q, b, beta, mc2 = params.q, params.b, params.beta, params.constants.rest_energy
    inner = B * B - q * q * (1.0 - beta * beta) - b * (b - 2.0 * q)
    if inner < 0.0:
        raise UnrealRadicand(inner)
    num = q * (b - q) * beta
    den = q * q * beta * beta + B * B
    spread = B * math.sqrt(inner)
    return -params.V0 + mc2 * (num + spread) / den, -params.V0 + mc2 * (num - spread) / den


def _reference_level(params, n, l, E, branch):
    mc2, Q = params.constants.rest_energy, params.constants.hbar_c
    if abs(E + params.V0) > mc2 * (1.0 + 1e-12):
        return (n, l, branch, E, UNREAL, math.inf)
    eps = params.epsilon(E)
    residual = abs(2.0 * params.B(n, l) * eps + params.gamma1(E)) * Q
    if eps <= cm.THRESHOLD_TOL * mc2 / Q:
        return (n, l, branch, E, THRESHOLD, residual)
    if residual < cm.RESIDUAL_TOL * mc2:
        return (n, l, branch, E, BOUND, residual)
    return (n, l, branch, E, SPURIOUS, residual)


def _reference_mixed(params, n_max, l_max):
    rows = []
    for l in range(l_max + 1):
        for n in range(n_max + 1):
            try:
                e_plus, e_minus = _reference_candidates(params, n, l)
            except UnrealRadicand:
                rows += [(n, l, br, math.nan, UNREAL, math.nan) for br in (ANTIPARTICLE, PARTICLE)]
                continue
            assert cm.candidate_energies(params, n, l) == (e_plus, e_minus)
            for E, branch in ((e_minus, ANTIPARTICLE), (e_plus, PARTICLE)):
                row = _reference_level(params, n, l, E, branch)
                assert _bits(cm.validate(params, n, l, E, branch).to_dict().values()) == _bits(row)
                rows.append(row)
    return rows


def _reference_energy_squared(params, n, l, mode):
    Q, mc2, L, s = params.constants.hbar_c, params.constants.rest_energy, params.length_scale, params.s
    root = math.sqrt((2 * l + 1) * (2 * l + 1) + 4.0 * (s * s) / (Q * Q))
    coef = 4 * n + 2 if mode == "corrected" else 2 * n + 1
    if s < 0.0:
        return mc2 * (Q / L) * (coef + (2 * l + 1) * (2 * l + 1) / (root - 2.0 * s / Q))
    return mc2 * (2.0 * s / L + (Q / L) * (coef + root))


def _bits(values) -> list[str]:
    """Exact: repr tells -0.0 from 0.0 and round-trips every float."""
    return [repr(v) for v in values]


def _table_rows(columns, names) -> list[list[str]]:
    return [_bits(row) for row in zip(*(columns[name].tolist() for name in names))]


# q = b = 1 gives unreal rows, q = 0 and the equal mix threshold rows
special = st.sampled_from([0.0, 0.5, 1.0, -1.0])
table_params = st.builds(cm.MixedCoulombParams, q=special | coupling, b=special | coupling,
                         beta=special | coupling, V0=special | coupling | st.floats(-1e5, 1e5),
                         constants=st.just(NATURAL) | constants)
LEVEL_FIELDS = ("n", "l", "branch", "energy", "status", "residual")


def _swept(params, sweep):
    """The parameters of each table of a sweep, one `replace` per value: the
    route the column pass replaced, kept as its reference."""
    if sweep is None:
        return [params]
    key, values = sweep
    return [replace(params, **{key: value}) for value in values]


def _sweep_args(sweep) -> tuple:
    return () if sweep is None else (sweep[0], np.array(sweep[1]))


def sweeps(**values):
    """None (one table) or a field name with a list of its values."""
    return st.none() | st.one_of(*(st.tuples(st.just(key), st.lists(draw, min_size=1, max_size=3))
                                   for key, draw in values.items()))


@PROPERTY
@given(params=table_params, n_max=sizes, l_max=sizes,
       sweep=sweeps(q=special | coupling, b=special | coupling, beta=special | coupling,
                    V0=special | coupling | st.floats(-1e5, 1e5)))
@example(params=cm.MixedCoulombParams(q=1.0, b=1.0), sweep=("q", [1.0, 0.0]), n_max=2, l_max=2)
@example(  # out-of-window candidates: unreal rows with an infinite residual
    params=cm.MixedCoulombParams(q=1.0, V0=-31350.455522678614,
                                 constants=PhysicalConstants(rest_energy=0.001242033433596999)),
    sweep=None, n_max=2, l_max=2)
@example(  # candidates just past the window: the first raises EnergyOutOfWindow
    params=cm.MixedCoulombParams(q=0.3, constants=PhysicalConstants(rest_energy=0.022546962785822505)),
    sweep=("V0", [0.0, 278.51865461056667, 3611.522967859111]), n_max=2, l_max=2)
@example(params=cm.MixedCoulombParams(q=UNEVEN_SQUARE, b=0.5, beta=UNEVEN_SQUARE / 2),
         sweep=None, n_max=3, l_max=3)
def test_mixed_table_matches_level_loop(params, sweep, n_max, l_max):
    seq = _swept(params, sweep)
    try:
        expected = [_bits(row) for p in seq for row in _reference_mixed(p, n_max, l_max)]
    except EnergyOutOfWindow as exc:
        with pytest.raises(EnergyOutOfWindow, match=re.escape(str(exc))):
            cm.spectrum_columns(params, n_max, l_max, *_sweep_args(sweep))
        return
    columns = cm.spectrum_columns(params, n_max, l_max, *_sweep_args(sweep))
    assert _table_rows(columns, LEVEL_FIELDS) == expected


@PROPERTY
@given(params=st.builds(sl.LinearMassParams, s=special | coupling, length_scale=st.floats(0.1, 10.0),
                        constants=st.just(NATURAL) | constants),
       sweep=sweeps(s=special | coupling, length_scale=st.floats(0.1, 10.0)),
       n_max=sizes, l_max=sizes, mode=st.sampled_from(sl.MODES))
@example(params=sl.LinearMassParams(s=UNEVEN_SQUARE), sweep=("s", [UNEVEN_SQUARE, -UNEVEN_SQUARE]),
         n_max=3, l_max=3, mode="corrected")
def test_scalar_table_matches_level_loop(params, sweep, n_max, l_max, mode):
    expected = []
    for p in _swept(params, sweep):
        for l in range(l_max + 1):
            for n in range(n_max + 1):
                e2 = _reference_energy_squared(p, n, l, mode)
                assert sl.energy_squared(p, n, l, mode) == e2
                e = math.sqrt(e2)
                expected += [_bits((n, l, ANTIPARTICLE, -e, BOUND, 0.0, e2)),
                             _bits((n, l, PARTICLE, e, BOUND, 0.0, e2))]
    columns = sl.spectrum_columns(params, n_max, l_max, mode, *_sweep_args(sweep))
    assert _table_rows(columns, LEVEL_FIELDS + ("energy_squared",)) == expected


# A sweep's values are checked once, as one column; its bytes, stderr and exit
# code are those of the route that built one params per value, each checked
# by its own __post_init__, whose tables the same writer then wrote.
SWEEP_BASE = {"q": ("mixed", "--q", "0.5"), "b": ("mixed", "--q", "0.5"),
              "beta": ("mixed", "--q", "0.5"), "V0": ("mixed", "--q", "0.5"),
              "s": ("scalar-linear", "--s", "1"), "length_scale": ("scalar-linear", "--s", "1")}
sweep_values = st.lists(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e200, -1e200, 0.0, -0.0, -1.0, 1.5e154])
    | coupling | st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=4)


def _reference_sweep(argv: list[str], key: str, values: list[float]) -> tuple[int, str, str]:
    args = cli.build_parser().parse_args(argv)
    out = io.StringIO()
    try:
        base = cli._params(args, swept=key)
        seq = [replace(base, **{key: value}) for value in values]
        tables = [cli._spectrum_columns(args, p, cli._energy_unit(args)) for p in seq]
        columns = {name: np.concatenate([t[name] for t in tables]) for name in tables[0]}
        per_value = len(columns["n"]) // len(values)
        columns = {key: np.repeat(np.array(values), per_value), **columns}
        with contextlib.redirect_stdout(out):
            cli._emit(args, cli._meta(args, "sweep", base, sweep_key=key), columns,
                      blocks=len(values))
    except KGBoundError as exc:
        return 2, "", f"error: {exc}\n"
    return 0, out.getvalue(), ""


@PROPERTY
@given(key=st.sampled_from(sorted(SWEEP_BASE)), values=sweep_values,
       output=st.sampled_from(["csv", "json"]), size=st.sampled_from(["1", "100000000000"]))
@example(key="length_scale", values=[1.0, -0.0, math.nan], output="csv", size="1")
@example(key="beta", values=[1.0, 1e200], output="csv", size="1")
@example(key="V0", values=[1e200, -math.inf], output="json", size="1")
@example(key="q", values=[0.5, math.nan, 1e200], output="csv", size="1")  # two messages: the first's
@example(key="s", values=[-1e200, math.inf], output="csv", size="1")
# a bad value and a table too large to allocate: the value is named
@example(key="q", values=[math.nan], output="csv", size="100000000000")
@example(key="length_scale", values=[2.0, 0.0], output="csv", size="100000000000")
def test_sweep_matches_per_value_params(key, values, output, size):
    model, *flags = SWEEP_BASE[key]
    argv = ["sweep", "--model", model, *flags, "--key", key, "--values=" + ",".join(map(repr, values)),
            "--n-max", size, "--l-max", size, "--output", output]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code, out.getvalue(), err.getvalue()) == _reference_sweep(argv, key, values)


# The reduction against the physical fields: k^2(r) rebuilt point by point
# from V, S and m must equal -reduced_w, the W(r) of u'' = W(r) u that
# wavefunctions.ode_residual uses, to 1e-12 of the sum of
# the magnitudes of the terms (verify.mixed_field_mismatch and
# verify.scalar_field_mismatch, which the registry runs on fixed fixtures).
angular = st.integers(0, 5)
radius = st.floats(1e-3, 1e3)


@PROPERTY
@given(params=mixed_params, cos_theta=st.floats(-1.0, 1.0), l=angular, r=radius)
def test_mixed_reduction_matches_fields(params, cos_theta, l, r):
    E = -params.V0 + params.constants.rest_energy * cos_theta
    assert verify.mixed_field_mismatch(params, E, l, r) <= 1e-12


# The oracle's matching function, bound once per solve with its E-independent
# floats computed once, is gamma1(E)/epsilon(E) + lam float for float, and
# raises epsilon's EnergyOutOfWindow, in the same words, outside the window.
@PROPERTY
@given(params=mixed_params, cos_theta=st.floats(-1.0, 1.0), lam=finite)
@example(params=cm.MixedCoulombParams(q=0.5), cos_theta=1.0, lam=0.0)  # eps = 0
def test_matching_function_inside_window(params, cos_theta, lam):
    E = -params.V0 + params.constants.rest_energy * cos_theta
    f = params.matching_function(lam)
    try:
        expected = params.gamma1(E) / params.epsilon(E) + lam
    except (EnergyOutOfWindow, ZeroDivisionError) as exc:  # E + V0 rounded onto an edge
        with pytest.raises(type(exc)) as info:
            f(E)
        assert str(info.value) == str(exc)
    else:
        assert f(E).hex() == expected.hex()


@PROPERTY
@given(params=mixed_params, excess=st.floats(1e-9, 10.0), sign=st.sampled_from([1.0, -1.0]),
       lam=finite)
# |E + V0| just past m0c^2, then well past it
@example(params=cm.MixedCoulombParams(q=0.5), excess=1e-7, sign=-1.0, lam=0.0)
@example(params=cm.MixedCoulombParams(q=0.5), excess=1e-3, sign=1.0, lam=0.0)
def test_matching_function_outside_window(params, excess, sign, lam):
    E = -params.V0 + sign * params.constants.rest_energy * (1.0 + excess)
    with pytest.raises(EnergyOutOfWindow) as expected:
        params.epsilon(E)
    with pytest.raises(EnergyOutOfWindow) as info:
        params.matching_function(lam)(E)
    assert str(info.value) == str(expected.value)


@PROPERTY
@given(s=coupling, length_scale=st.floats(0.1, 10.0), consts=constants,
       E=st.floats(-10.0, 10.0), l=angular, r=radius)
def test_scalar_reduction_matches_fields(s, length_scale, consts, E, l, r):
    params = sl.LinearMassParams(s=s, length_scale=length_scale, constants=consts)
    assert verify.scalar_field_mismatch(params, E, l, r) <= 1e-12


# A registry `<=` row is reduced from one deviation per level by
# verify._upper: the worst deviation, NaN wherever a NaN sits.
deviation_lists = st.lists(st.floats(allow_nan=False), max_size=8)
tolerance = st.floats(allow_nan=False)


@PROPERTY
@given(deviations=deviation_lists, tol=tolerance)
def test_upper_observes_worst_deviation(deviations, tol):
    row = verify._upper("row", tol, deviations)
    assert row.observed == max([0.0, *deviations]) and row.levels == len(deviations)
    assert row.passed == (row.observed <= tol)


@PROPERTY
@given(deviations=deviation_lists, tol=tolerance, data=st.data())
def test_upper_fails_on_nan_anywhere(deviations, tol, data):
    deviations.insert(data.draw(st.integers(0, len(deviations))), math.nan)
    row = verify._upper("row", tol, deviations)
    assert math.isnan(row.observed) and row.levels == len(deviations) and not row.passed


def test_upper_over_no_levels():
    row = verify._upper("row", 0.0, [])
    assert (row.observed, row.levels, row.passed) == (0.0, 0, True)


def _spectrum_json(*argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["spectrum", "--units", "absolute", "--output", "json", *argv]) == 0
    return json.loads(out.getvalue())


@PROPERTY
@given(params=mixed_params, n_max=sizes, l_max=sizes)
def test_json_round_trip_mixed(params, n_max, l_max):
    c = params.constants
    doc = _spectrum_json(
        "--model", "mixed", f"--q={params.q!r}", f"--b={params.b!r}",
        f"--beta={params.beta!r}", f"--V0={params.V0!r}", f"--hbar-c={c.hbar_c!r}",
        f"--rest-energy={c.rest_energy!r}", f"--n-max={n_max}", f"--l-max={l_max}",
    )
    rows = cm.spectrum(params, n_max, l_max)
    assert len(doc["rows"]) == len(rows)
    for got, row in zip(doc["rows"], rows):
        assert got.keys() == row.to_dict().keys()
        assert all(_same(got[k], v) for k, v in row.to_dict().items())


@PROPERTY
@given(s=coupling, length_scale=st.floats(0.1, 10.0), consts=constants,
       n_max=sizes, l_max=sizes, mode=st.sampled_from(sl.MODES))
def test_json_round_trip_scalar(s, length_scale, consts, n_max, l_max, mode):
    params = sl.LinearMassParams(s=s, length_scale=length_scale, constants=consts)
    doc = _spectrum_json(
        "--model", "scalar-linear", f"--s={s!r}", f"--length-scale={length_scale!r}",
        f"--hbar-c={consts.hbar_c!r}", f"--rest-energy={consts.rest_energy!r}",
        f"--mode={mode}", f"--n-max={n_max}", f"--l-max={l_max}",
    )
    rows = sl.spectrum(params, n_max, l_max, mode)
    assert [(g["n"], g["l"], g["branch"], g["energy"], g["status"]) for g in doc["rows"]] == \
        [(r.n, r.l, r.branch, r.energy, r.status) for r in rows]
    assert [g["energy_squared"] for g in doc["rows"]] == \
        [sl.energy_squared(params, r.n, r.l, mode) for r in rows]


def _flags(**values) -> list[str]:
    """`--key=value` for each value that is not None (str of a float round-trips)."""
    return [f"--{key.replace('_', '-')}={value}" for key, value in values.items()
            if value is not None]


def _exits_cleanly(*argv) -> None:
    """Exit 0, 2 or 3 without raising, and no NaN in a successful report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    assert code in (0, 2, 3), err.getvalue()
    if code == 0:
        assert "nan" not in out.getvalue().lower()


mixed_flags = st.builds(_flags, q=finite, b=maybe_finite, beta=maybe_finite, V0=maybe_finite,
                        hbar_c=maybe_finite, rest_energy=maybe_finite)
scalar_flags = st.builds(_flags, s=finite, length_scale=maybe_finite, hbar_c=maybe_finite,
                         rest_energy=maybe_finite)
wavefunction_flags = st.builds(_flags, n=sizes, l=sizes, samples=st.none() | st.integers(-3, 3),
                               r_min=st.none() | st.floats(), r_max=st.none() | st.floats(),
                               branch=st.sampled_from(("particle", "antiparticle")))


@PROPERTY
@given(model=mixed_flags, level=wavefunction_flags)
def test_wavefunction_mixed_exits_cleanly(model, level):
    _exits_cleanly("wavefunction", "--model", "mixed", *model, *level)


@PROPERTY
@given(model=scalar_flags, level=wavefunction_flags, mode=st.sampled_from(sl.MODES))
def test_wavefunction_scalar_exits_cleanly(model, level, mode):
    _exits_cleanly("wavefunction", "--model", "scalar-linear", *model, *level, f"--mode={mode}")


@PROPERTY
@given(model=mixed_flags, energy=finite, n=sizes, l=sizes)
def test_nu_solve_mixed_exits_cleanly(model, energy, n, l):
    _exits_cleanly("nu-solve", "--model", "mixed", *model, *_flags(energy=energy, n=n, l=l))


@PROPERTY
@given(model=scalar_flags, energy=maybe_finite, n=sizes, l=sizes)
def test_nu_solve_scalar_exits_cleanly(model, energy, n, l):
    _exits_cleanly("nu-solve", "--model", "scalar-linear", *model,
                   *_flags(energy=energy, n=n, l=l))
