"""Property tests: invariants of the closed-form tables and of the CLI over
random parameters."""

import contextlib
import io
import json
import math

from hypothesis import given, settings, strategies as st

from kgbound import cli, coulomb_mixed as cm, scalar_linear as sl, verify
from kgbound.errors import InvalidParameter, UnrealRadicand
from kgbound.levels import BOUND
from kgbound.units import PhysicalConstants

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


@PROPERTY
@given(s=coupling, length_scale=st.floats(0.1, 10.0), consts=constants,
       E=st.floats(-10.0, 10.0), l=angular, r=radius)
def test_scalar_reduction_matches_fields(s, length_scale, consts, E, l, r):
    params = sl.LinearMassParams(s=s, length_scale=length_scale, constants=consts)
    assert verify.scalar_field_mismatch(params, E, l, r) <= 1e-12


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
