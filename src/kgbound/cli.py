"""Command-line surface: spectrum tables, wavefunction sampling, NU branch
inspection, verification reports, and parameter sweeps.

Output is deterministic: CSV floats read as :func:`fmt` writes them (12
significant digits), CSV carries a ``# schema=1`` header, JSON keeps full
precision.
Exit codes: 0 success, 1 failed verification, 2 parameter/usage error,
3 requested level is not bound.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import signal
import sys
import warnings

import numpy as np

from . import coulomb_mixed, nu, scalar_linear, verify, wavefunctions
from .errors import InvalidParameter, KGBoundError, MultipleBranches, NoAdmissibleBranch, NotBound
from .levels import ANTIPARTICLE, PARTICLE, require_quantum_numbers
from .units import PhysicalConstants

SCHEMA = 1

_PARAMS = {
    "mixed": coulomb_mixed.MixedCoulombParams,
    "scalar-linear": scalar_linear.LinearMassParams,
}


def fmt(x: float) -> str:
    """Deterministic float formatting: 12 significant digits, scientific
    notation below 1e-3 in magnitude."""
    if abs(x) >= 1e-3:  # the common case; true for inf, false for nan
        return f"{x:.12g}"
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    if x == 0:
        return "0"
    return f"{x:.11e}"


# ---------------------------------------------------------------------------
# configuration plumbing


def _config_tokens(args) -> list[str]:
    """The flat key=value file as `--key=value` tokens, for the caller to
    put ahead of the flags (so flags win) and parse with argparse's own
    type and choices checks."""
    values = {}
    try:
        with open(args.config) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise KGBoundError(f"config line not key=value: {line!r}")
                key, _, val = line.partition("=")
                values[key.strip()] = val.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise KGBoundError(str(exc)) from exc
    for key in values:
        if key not in vars(args) or key in ("config", "func", "command"):
            raise KGBoundError(f"unknown config key {key!r}")
    return [f"{_flag(key)}={val}" for key, val in values.items()]


# the physics flags' fields; a model's coupling without a default is required
_CONSTANTS = dataclasses.fields(PhysicalConstants)
_COUPLINGS = {model: [f for f in dataclasses.fields(cls) if f.name != "constants"]
              for model, cls in _PARAMS.items()}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _set(args, fields) -> dict:
    """The values of the flags of `fields` that are set, by field name."""
    return {f.name: value for f in fields if (value := getattr(args, f.name)) is not None}


def _constants(args) -> PhysicalConstants:
    return PhysicalConstants(**_set(args, _CONSTANTS))


def _params(args, swept: str | None = None):
    """The parameters of `--model` from the flags that are set; an unset
    flag leaves its dataclass default. A coupling of the other model exits 2,
    and so does an unset required coupling (q or s) unless it is the `swept`
    one, which then reads 0: the sweep's tables take that field from its
    column of values, never from these parameters."""
    values = _set(args, _COUPLINGS[args.model])
    for field in _COUPLINGS[args.model]:
        if field.default is dataclasses.MISSING and field.name not in values:
            if field.name != swept:
                raise KGBoundError(f"{_flag(field.name)} is required for the {args.model} model")
            values[field.name] = 0.0
    for model in _COUPLINGS.keys() - {args.model}:
        for name in _set(args, _COUPLINGS[model]):
            raise InvalidParameter(f"{_flag(name)} applies to the {model} model only")
    return _PARAMS[args.model](**values, constants=_constants(args))


def _energy_unit(args) -> float:
    return _constants(args).rest_energy if args.units == "mc2" else 1.0


# ---------------------------------------------------------------------------
# table emission


def _bulk(spec: str, x: np.ndarray) -> list[str]:
    """Each value of `x` under the one conversion `spec`, by one `%`."""
    return (f"{spec}\n" * len(x) % tuple(x.tolist())).split("\n")[:-1]


def _spec(col: np.ndarray, as_json: bool) -> tuple[str, np.ndarray]:
    """The conversion spec of a float column and the mask of the cells that
    spec would get wrong."""
    if as_json:
        return "%r", ~np.isfinite(col)
    return "%.12g", np.abs(col) < 1e-3  # ±0 and the tiny cells; false for nan


def _strings(col: np.ndarray, as_json: bool) -> list[str]:
    """Each float of `col` as its cell: the column formatted in bulk by its
    spec, and the cells the spec would get wrong patched."""
    spec, odd = _spec(col, as_json)
    if not odd.any():
        return _bulk(spec, col)
    cells = np.empty(len(col), dtype=object)
    cells[~odd] = _bulk(spec, col[~odd])
    if as_json:
        x = col[odd]
        cells[odd] = np.where(np.isnan(x), "NaN", np.where(x > 0, "Infinity", "-Infinity")).tolist()
    else:
        cells[odd] = _bulk("%.11e", col[odd])
        cells[col == 0] = "0"  # not %.11e's 0.00000000000e+00
    return cells.tolist()


def _cells(col: np.ndarray, as_json: bool) -> tuple[str, list]:
    """One column's conversion spec and the values it converts, by
    :func:`_emit`'s cell rule and the column's dtype. A float column whose
    runs of equal magnitude (equal bits but the sign's, so x and -x, 0.0 and
    -0.0 share a run) at least halve it has each run's |x| formatted once;
    each cell takes that string, with a `-` where its sign bit is set, but
    for NaN and a CSV zero, which print unsigned. A float column with a cell
    its spec would get wrong is formatted by :func:`_strings`. Both take
    `%s`."""
    if col.dtype.kind == "i":
        return "%d", col.tolist()
    if col.dtype.kind != "f":
        labels = col.tolist()
        if not as_json:
            return "%s", labels
        encoded = {label: json.dumps(label) for label in set(labels)}
        return "%s", list(map(encoded.__getitem__, labels))
    bits = col.view(np.int64)
    magnitude = bits & np.int64(0x7FFF_FFFF_FFFF_FFFF)
    starts = np.concatenate(([True], magnitude[1:] != magnitude[:-1]))
    runs = np.count_nonzero(starts)
    if 2 * runs <= len(col):
        cells = _strings(magnitude[starts].view(np.float64), as_json)
        signed = (bits < 0) & ~np.isnan(col)
        if not as_json:
            signed &= col != 0  # fmt(-0.0) is 0
        index = np.cumsum(starts) - 1  # each cell's run
        if signed.any():  # the negative of run k's cell is cells[k + runs]
            index += runs * signed
            cells += ["-" + cell for cell in cells]
        return "%s", np.array(cells, dtype=object)[index].tolist()
    spec, odd = _spec(col, as_json)
    if odd.any():
        return "%s", _strings(col, as_json)
    return spec, col.tolist()


def _row_major(values: list[list], nrows: int) -> tuple:
    """The cells of equal-length columns `values`, row by row."""
    cells = [None] * (len(values) * nrows)
    for j, col in enumerate(values):
        cells[j::len(values)] = col
    return tuple(cells)


def _same_in_every_block(col: np.ndarray, blocks: int) -> bool:
    """Whether `col` reads the same in each of its `blocks` equal blocks: floats
    by their bits, so 0.0 and -0.0 differ, ints and labels by value."""
    by_block = (col.view(np.int64) if col.dtype.kind == "f" else col).reshape(blocks, -1)
    return bool((by_block == by_block[0]).all())


def _emit(args, meta: dict, columns: dict[str, np.ndarray], blocks: int = 1) -> None:
    """Write the table, given as named columns of equal length, to stdout in
    one piece.

    The rows are one row template, repeated once per row, filled by one `%`
    from the row-major cells. Ints take `%d` and labels `%s` (in JSON each
    distinct label is encoded once). A CSV float reads as :func:`fmt` writes
    it: `%.12g`, `%.11e` for 0 < |x| < 1e-3, ±0 as `0` and NaN as `nan`. A
    JSON float is its `repr`, with `NaN`, `Infinity` and `-Infinity`, so the
    bytes are `json.dumps(..., indent=2)`'s.

    A table of `blocks` equal-length blocks, such as a sweep's spectra or a
    spectrum's l-blocks, has the columns that read the same in every block
    filled into one block's rows by a first `%`; that block is repeated, and
    the final `%` fills only the other columns. A float column's runs of
    equal magnitude are formatted once, as :func:`_cells` says.
    """
    as_json = args.output == "json"
    nrows = len(next(iter(columns.values())))
    size = nrows // blocks
    same = {name for name, col in columns.items()
            if blocks > 1 and _same_in_every_block(col, blocks)}
    passes = 2 if same else 1
    slots, first, second = [], [], []
    for name, col in columns.items():
        if name in same:
            spec, cells = _cells(col[:size], as_json)
            if col.dtype.kind not in "if":  # a label's `%` must survive the final fill
                cells = [cell.replace("%", "%%") for cell in cells]
            first.append(cells)
        else:
            spec, cells = _cells(col, as_json)
            spec = spec.replace("%", "%" * passes)
            second.append(cells)
        slots.append(spec)
    if as_json:
        escape = "%" * 2 ** passes  # a name passes through every fill
        row = ",\n".join(f"      {json.dumps(name).replace('%', escape)}: {slot}"
                         for name, slot in zip(columns, slots))
        row, sep = f"    {{\n{row}\n    }}", ",\n"
    else:
        row, sep = ",".join(slots) + "\n", ""
    block = sep.join([row] * size)
    if same:
        block %= _row_major(first, size)
    rows = sep.join([block] * blocks)
    if as_json:
        template = json.dumps({"schema": SCHEMA, **meta, "rows": []}, indent=2).replace("%", "%%")
        if nrows:
            template = template.removesuffix("[]\n}") + f"[\n{rows}\n  ]\n}}"
        template += "\n"
    else:
        lines = [f"# schema={SCHEMA}"]
        for key, val in meta.items():
            if isinstance(val, dict):
                pairs = " ".join(f"{k}={fmt(v) if isinstance(v, float) else v}"
                                 for k, v in val.items())
                lines.append(f"# {key}: {pairs}")
            else:
                lines.append(f"# {key}={val}")
        lines.append(",".join(columns))
        template = "\n".join(lines).replace("%", "%%") + "\n" + rows
    text = template % _row_major(second, nrows)
    del template, second  # only the text is kept for the write
    sys.stdout.write(text)


def _meta(args, command: str, params, **before_params) -> dict:
    """The header of a table: command, model, units, `before_params`, the
    couplings and, for the scalar-linear model, its spectrum mode."""
    meta = {"command": command, "model": args.model, "units": args.units, **before_params,
            "params": {f.name: getattr(params, f.name) for f in _COUPLINGS[args.model]}}
    if args.model == "scalar-linear":
        meta["mode"] = args.mode
    return meta


def _spectrum_columns(args, params, unit: float, key=None, values=None) -> dict[str, np.ndarray]:
    """The `spectrum` table of `params`, or given a field `key` and a float
    array `values`, the tables of `params` with `key` set to each value, one
    after another, with energies in `unit`."""
    if args.model == "mixed":
        cols = coulomb_mixed.spectrum_columns(params, args.n_max, args.l_max, key, values)
        names = ("n", "l", "branch", "energy", "status", "residual")
        cols["residual"] = cols["residual"] / unit
    else:
        cols = scalar_linear.spectrum_columns(params, args.n_max, args.l_max, args.mode,
                                              key, values)
        names = ("n", "l", "branch", "energy", "energy_squared", "status")
        cols["energy_squared"] = cols["energy_squared"] / (unit * unit)
    cols["energy"] = cols["energy"] / unit
    return {name: cols[name] for name in names}


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrum(args) -> int:
    params = _params(args)
    columns = _spectrum_columns(args, params, _energy_unit(args))
    # rows run over (l, n, branch): one block per l
    _emit(args, _meta(args, "spectrum", params), columns, blocks=args.l_max + 1)
    return 0


def cmd_wavefunction(args) -> int:
    if args.n > wavefunctions.MAX_N:
        raise InvalidParameter(f"--n must be at most {wavefunctions.MAX_N}, the quadrature limit")
    if not 0.0 < args.r_min < args.r_max < math.inf:
        raise InvalidParameter("require finite 0 < --r-min < --r-max")
    if args.samples < 0:
        raise InvalidParameter("--samples must not be negative")
    unit = _energy_unit(args)
    params = _params(args)
    if args.model == "mixed":
        e_plus, e_minus = coulomb_mixed.candidate_energies(params, args.n, args.l)
        energy = e_plus if args.branch == PARTICLE else e_minus
        level = coulomb_mixed.validate(params, args.n, args.l, energy, args.branch)
        wf = wavefunctions.build_mixed(params, level)
    else:
        e = math.sqrt(scalar_linear.energy_squared(params, args.n, args.l, args.mode))
        energy = e if args.branch == PARTICLE else -e
        wf = wavefunctions.build_scalar(params, args.n, args.l, energy,
                                        as_printed=args.mode == "as_printed")
    meta = _meta(args, "wavefunction", params)
    meta["level"] = {"n": args.n, "l": args.l, "branch": args.branch, "energy": energy / unit}
    try:
        grid = np.geomspace(args.r_min, args.r_max, args.samples)
    except ValueError as exc:  # numpy: more samples than an array can index
        raise InvalidParameter(f"--samples {args.samples}: {exc}") from exc
    _emit(args, meta, {"r": grid, "u": wf.evaluate(grid)})
    return 0


def cmd_verify(args) -> int:
    checks = verify.run_verify(args.model, args.mode)
    if args.output == "json":
        payload = {
            "schema": SCHEMA,
            "command": "verify",
            "model": args.model,
            "mode": args.mode,
            "checks": [
                {
                    "name": c.name,
                    "comparison": c.comparison,
                    "tolerance": c.tolerance,
                    "observed": c.observed,
                    "status": "pass" if c.passed else "FAIL",
                }
                for c in checks
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"# schema={SCHEMA}")
        print(f"# command=verify model={args.model} mode={args.mode}")
        print("check,comparison,tolerance,observed,status")
        for c in checks:
            status = "pass" if c.passed else "FAIL"
            print(f"{c.name},{c.comparison},{fmt(c.tolerance)},{fmt(c.observed)},{status}")
    return 0 if all(c.passed for c in checks) else 1


def _branch_dict(branch: nu.NUBranch) -> dict:
    return {
        "k": branch.k,
        "pi": [branch.pi.c0, branch.pi.c1],
        "tau": [branch.tau.c0, branch.tau.c1],
        "tau_prime": branch.tau_prime,
        "sign_choice": branch.sign_choice,
    }


def cmd_nu_solve(args) -> int:
    require_quantum_numbers(args.n, args.l)
    if args.energy is not None and not math.isfinite(args.energy):
        raise InvalidParameter("--energy must be finite")
    params = _params(args)
    if args.model == "mixed":
        if args.energy is None:
            raise KGBoundError("--energy is required for the mixed model")
        energy = args.energy
        problem = coulomb_mixed.nu_problem(params, args.l, energy)
    else:
        energy = args.energy
        if energy is None:
            energy = math.sqrt(scalar_linear.energy_squared(params, args.n, args.l))
        problem = scalar_linear.nu_problem(params, args.l, energy)
    branches = nu.branches(problem)
    report = {
        "schema": SCHEMA,
        "command": "nu-solve",
        "model": args.model,
        "energy": energy,
        "problem": {
            "tau_tilde": [problem.tau_tilde.c0, problem.tau_tilde.c1],
            "sigma": [problem.sigma.c0, problem.sigma.c1, problem.sigma.c2],
            "sigma_tilde": [
                problem.sigma_tilde.c0,
                problem.sigma_tilde.c1,
                problem.sigma_tilde.c2,
            ],
        },
        "k_roots": nu.solve_k(problem),
        "branches": [_branch_dict(b) for b in branches],
    }
    try:
        # a tie is reported like an error line, without a source location
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", MultipleBranches)
            selected = nu.select(branches, problem)
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
    except NoAdmissibleBranch as exc:
        report["selected"] = None
        report["error"] = str(exc)
    else:
        report["selected"] = _branch_dict(selected)
        lam, lam_n = nu.quantize(selected, problem, args.n)
        report["quantization"] = {"n": args.n, "lambda": lam, "lambda_n": lam_n}
    print(json.dumps(report, indent=2))
    return 0


def cmd_sweep(args) -> int:
    keys = [f.name for f in _COUPLINGS[args.model]]
    if args.key not in keys:
        raise KGBoundError(
            f"unknown sweep key {args.key!r} for model {args.model}"
            f" (choose from {', '.join(keys)})"
        )
    try:
        values = np.array([float(v) for v in args.values.split(",") if v.strip()])
    except ValueError:
        values = np.array([])
    if not len(values):
        raise InvalidParameter(f"--values takes comma-separated numbers, got {args.values!r}")
    unit = _energy_unit(args)
    base = _params(args, swept=args.key)
    table = _spectrum_columns(args, base, unit, args.key, values)
    columns = {args.key: np.repeat(values, len(table["n"]) // len(values)), **table}
    _emit(args, _meta(args, "sweep", base, sweep_key=args.key), columns, blocks=len(values))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sub):
    sub.add_argument("--model", choices=("mixed", "scalar-linear"), required=True)
    sub.add_argument("--config", type=str, default=None,
                     help="flat key=value file; flags override")


def _add_physics(sub):
    """One flag per field of the constants and of both models' couplings,
    with no default: an unset flag reads None, so the dataclass default
    applies and :func:`_params` can tell which model's flags were given."""
    helps = {"V0": "offset of the vector potential V = beta*S - V0 (energy units)"}
    for field in itertools.chain(_CONSTANTS, *_COUPLINGS.values()):
        sub.add_argument(_flag(field.name), type=float, help=helps.get(field.name))


def _add_report(sub):
    """Output format and scalar-model spectrum mode."""
    sub.add_argument("--output", choices=("csv", "json"), default="csv")
    sub.add_argument("--mode", choices=scalar_linear.MODES, default="corrected")


def _add_table(sub):
    """The options of `spectrum`, `sweep` and `wavefunction`."""
    _add_common(sub)
    _add_physics(sub)
    sub.add_argument("--units", choices=("mc2", "absolute"), default="mc2")
    _add_report(sub)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: `parse_args` leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="kgbound",
        description="Bound-state spectra of the radial Klein-Gordon equation "
        "with mixed Coulomb couplings or a linearly rising scalar mass term.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    # exact option names only: a prefix of one option, such as --mode of
    # --model, would otherwise stand in for it where the other is not accepted
    add_parser = functools.partial(subs.add_parser, allow_abbrev=False)

    sp = add_parser("spectrum", help="tabulate the closed-form spectrum")
    _add_table(sp)
    sp.add_argument("--n-max", dest="n_max", type=int, default=3)
    sp.add_argument("--l-max", dest="l_max", type=int, default=3)
    sp.set_defaults(func=cmd_spectrum)

    wf = add_parser("wavefunction", help="sample a normalized radial eigenfunction")
    _add_table(wf)
    wf.add_argument("--n", type=int, default=0)
    wf.add_argument("--l", type=int, default=0)
    wf.add_argument("--branch", choices=(PARTICLE, ANTIPARTICLE), default=PARTICLE)
    wf.add_argument("--samples", type=int, default=100)
    wf.add_argument("--r-min", dest="r_min", type=float, default=1e-2)
    wf.add_argument("--r-max", dest="r_max", type=float, default=20.0)
    wf.set_defaults(func=cmd_wavefunction)

    vf = add_parser("verify", help="run closed-form vs oracle check suites")
    _add_common(vf)
    _add_report(vf)
    vf.set_defaults(func=cmd_verify)

    ns = add_parser("nu-solve", help="inspect the hypergeometric reduction")
    _add_common(ns)
    _add_physics(ns)
    ns.add_argument("--n", type=int, default=0)
    ns.add_argument("--l", type=int, default=0)
    ns.add_argument("--energy", type=float, default=None)
    ns.set_defaults(func=cmd_nu_solve)

    sw = add_parser("sweep", help="spectrum table over a parameter range")
    _add_table(sw)
    sw.add_argument("--key", required=True, help="parameter to sweep")
    sw.add_argument("--values", required=True,
                    help="comma-separated parameter values")
    sw.add_argument("--n-max", dest="n_max", type=int, default=3)
    sw.add_argument("--l-max", dest="l_max", type=int, default=3)
    sw.set_defaults(func=cmd_sweep)
    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Spell `--flag -6.7e-05` as `--flag=-6.7e-05`.

    argparse takes a dash-led token for an option unless it is a plain
    negative decimal, so an exponent or a list would leave the flag without
    its value. Every long option here but --help takes a value, so a
    single-dash token after one, `-h` included, is that value, for argparse's
    type check to accept or reject.
    """
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        takes_value = prev.startswith("--") and prev not in ("--", "--help") and "=" not in prev
        if takes_value and token.startswith("-") and not token.startswith("--"):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = _attach_negative_values(list(sys.argv[1:] if argv is None else argv))
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # argv[0] is the subcommand: the top-level parser has no options
            args = parser.parse_args(argv[:1] + _config_tokens(args) + argv[1:])
        if args.model == "mixed" and vars(args).get("mode", "corrected") != "corrected":
            raise InvalidParameter("--mode applies to the scalar-linear model only")
        return args.func(args)
    except (KGBoundError, OverflowError, MemoryError) as exc:
        # also an integer beyond float range or an array too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NotBound) else 2


def entry() -> None:
    # a reader that closes the pipe early (`| head`) ends the process quietly
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
