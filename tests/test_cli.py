"""End-to-end tests of the command-line interface."""

import argparse
import collections
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import kgbound
from kgbound import cli, oracle, scalar_linear as sl, verify, wavefunctions
from kgbound import coulomb_mixed as cm


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFmt:
    def test_zero(self):
        assert cli.fmt(0.0) == "0"
        assert cli.fmt(-0.0) == "0"

    def test_plain_range(self):
        assert cli.fmt(0.6) == "0.6"
        assert cli.fmt(-1.0) == "-1"
        assert cli.fmt(2.0 / 3.0) == "0.666666666667"

    def test_scientific_below_cutoff(self):
        assert "e" in cli.fmt(1e-4)
        assert cli.fmt(1.5e-11) == "1.50000000000e-11"

    def test_nan(self):
        assert cli.fmt(math.nan) == "nan"

    @staticmethod
    def reference(x) -> str:
        """The specification: nan, then zero, then the cut-off at 1e-3."""
        if isinstance(x, float) and math.isnan(x):
            return "nan"
        if x == 0:
            return "0"
        if abs(x) < 1e-3:
            return f"{x:.11e}"
        return f"{x:.12g}"

    @settings(derandomize=True, deadline=None, database=None, max_examples=1000)
    @given(x=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
           | st.integers(-10**6, 10**6))
    @example(x=1e-3)
    @example(x=-1e-3)
    @example(x=math.nextafter(1e-3, 0))
    @example(x=-math.nextafter(1e-3, 0))
    @example(x=-0.0)
    @example(x=5e-324)
    @example(x=-math.inf)
    def test_matches_specification(self, x):
        assert cli.fmt(x) == self.reference(x)


class TestSpectrum:
    def test_mixed_csv(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--model", "mixed", "--q", "0.5",
                           "--n-max", "1", "--l-max", "0")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# schema=1"
        assert "0,0,particle,0.6,bound,0" in lines

    def test_scalar_ladder_column(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--model", "scalar-linear",
                           "--s", "0", "--n-max", "2", "--l-max", "2")
        assert code == 0
        for line in out.splitlines():
            if line.startswith("#") or line.startswith("n,"):
                continue
            n, l, _, _, e2, status = line.split(",")
            assert float(e2) == pytest.approx(4 * int(n) + 2 * int(l) + 3, abs=1e-9)
            assert status == "bound"

    def test_zero_coupling_all_threshold(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--model", "mixed", "--q", "0")
        assert code == 0
        body = [ln for ln in out.splitlines() if not ln.startswith(("#", "n,"))]
        assert body and all(ln.split(",")[4] == "threshold" for ln in body)

    def test_missing_coupling_exit_2(self, capsys):
        for model, flag in (("mixed", "q"), ("scalar-linear", "s")):
            code, _, err = run(capsys, "spectrum", "--model", model)
            assert code == 2
            assert err == f"error: --{flag} is required for the {model} model\n"

    @pytest.mark.parametrize("model, required, cls", [
        ("mixed", "q", cm.MixedCoulombParams),
        ("scalar-linear", "s", sl.LinearMassParams),
    ])
    def test_defaults_are_the_dataclass_defaults(self, capsys, model, required, cls):
        code, out, _ = run(capsys, "spectrum", "--model", model, f"--{required}", "0.5",
                           "--units", "absolute", "--n-max", "0", "--l-max", "0")
        assert code == 0
        params = cls(**{required: 0.5})
        pairs = " ".join(f"{f.name}={cli.fmt(getattr(params, f.name))}"
                         for f in dataclasses.fields(cls) if f.name != "constants")
        assert f"# params: {pairs}" in out.splitlines()
        # the constants' defaults too: the absolute-units table is the natural one's
        assert out == run(capsys, "spectrum", "--model", model, f"--{required}", "0.5",
                          "--n-max", "0", "--l-max", "0")[1].replace("units=mc2", "units=absolute")

    def test_absolute_units(self, capsys):
        _, out, _ = run(capsys, "spectrum", "--model", "mixed", "--q", "0.5",
                        "--rest-energy", "2", "--units", "absolute",
                        "--n-max", "0", "--l-max", "0")
        assert "0,0,particle,1.2,bound,0" in out.splitlines()

    def test_json_round_trip(self, capsys):
        _, out, _ = run(capsys, "spectrum", "--model", "mixed", "--q", "0.5",
                        "--output", "json", "--n-max", "2", "--l-max", "2")
        doc = json.loads(out)
        assert doc["schema"] == 1
        rows = cm.spectrum(cm.MixedCoulombParams(q=0.5), 2, 2)
        assert len(doc["rows"]) == len(rows)
        for got, exp in zip(doc["rows"], rows):
            assert got["n"] == exp.n and got["l"] == exp.l
            assert got["branch"] == exp.branch and got["status"] == exp.status
            assert got["energy"] == exp.energy  # full precision, no rounding
            assert got["residual"] == exp.residual

    def test_byte_identical_reruns(self, capsys):
        argv = ("spectrum", "--model", "scalar-linear", "--s", "1.5",
                "--length-scale", "0.7")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestJsonTables:
    """JSON tables are the bytes of `json.dumps(..., indent=2)`."""

    @pytest.mark.parametrize("argv", [
        # unreal rows carry NaN energies
        ("spectrum", "--model", "mixed", "--q", "1", "--b", "1", "--l-max", "1"),
        ("sweep", "--model", "mixed", "--q", "0.5", "--key", "b", "--values", "0,0.5"),
        ("sweep", "--model", "scalar-linear", "--key", "s", "--values", "0.5,1"),
        ("wavefunction", "--model", "mixed", "--q", "0.5", "--samples", "0"),
        ("wavefunction", "--model", "mixed", "--q", "0.5", "--samples", "3"),
    ])
    def test_indent_2_bytes(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--output", "json")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_nan_rows_present(self, capsys):
        _, out, _ = run(capsys, "spectrum", "--model", "mixed", "--q", "1", "--b", "1",
                        "--l-max", "1", "--output", "json")
        assert any(math.isnan(row["energy"]) for row in json.loads(out)["rows"])


def column(values: list) -> np.ndarray:
    """A table column as the commands build it: int64, float64 or labels."""
    if values and isinstance(values[0], str):
        return np.array(values, dtype=object)
    return np.array(values, dtype=np.int64 if values and isinstance(values[0], int) else float)


def emit(output: str, meta: dict, columns: dict, blocks: int = 1) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit(argparse.Namespace(output=output), meta,
                  {name: column(values) for name, values in columns.items()}, blocks)
    return buf.getvalue()


# the cells a `%.12g` or `%r` spec alone would get wrong, and their neighbours
_TINY = math.nextafter(1e-3, 0)
EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1e-3, -1e-3, _TINY, -_TINY, math.nextafter(1e-3, 1), -math.nextafter(1e-3, 1),
               1e-300, -1.5e-11, 0.6, 1e300]
float_cells = (st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
               | st.sampled_from(EDGE_FLOATS))
ordinary = st.floats(min_value=1e-3, max_value=1e300) | st.floats(min_value=-1e300, max_value=-1e-3)
WRITER = settings(derandomize=True, deadline=None, database=None, max_examples=300)

# a sweep's columns: ints, labels that carry `%`, and floats whose equal cells
# differ in bits (0.0 and -0.0) or need a patched spec (NaN, ±inf, tiny)
BLOCK_CELLS = {"n": st.integers(-10**6, 10**6), "l": st.integers(0, 3),
               'sta"t%us': st.text('%sd" ab', max_size=4),
               "q": st.sampled_from(EDGE_FLOATS), "energy": st.sampled_from(EDGE_FLOATS)}


@st.composite
def blocked_tables(draw) -> tuple[int, dict]:
    """2 to 5 equal blocks; each column is one block repeated in every block,
    or drawn afresh for each."""
    blocks, size = draw(st.integers(2, 5)), draw(st.integers(0, 6))
    columns = {}
    for name, cells in BLOCK_CELLS.items():
        if draw(st.booleans()):
            columns[name] = draw(st.lists(cells, min_size=size, max_size=size)) * blocks
        else:
            columns[name] = draw(st.lists(cells, min_size=size * blocks, max_size=size * blocks))
    return blocks, columns


class TestTableWriter:
    """`_emit` fills one row template with one `%`; a table of equal blocks,
    such as a sweep's, has the columns that every block repeats filled into
    one block by a first `%`. Every cell must still read as the one-value
    rules say."""

    # a `%` in the header must reach the output as it is, not as a conversion
    META = {"command": "spectrum %d", "params": {"q": 0.5, "b": 1e-4}}

    @WRITER
    @given(rows=st.lists(st.tuples(st.integers(0, 10**6), float_cells, ordinary,
                                   st.sampled_from(["particle", "antiparticle"])), max_size=40))
    @example(rows=[(0, x, 0.5, "particle") for x in EDGE_FLOATS])
    @example(rows=[(0, 0.5, 0.5, "particle"), (1, -2.0, 1e300, "antiparticle")])
    @example(rows=[])
    def test_csv_cells_are_fmt(self, rows):
        names = ("n", "x", "y", "branch")
        columns = dict(zip(names, map(list, zip(*rows)))) or {name: [] for name in names}
        out = emit("csv", self.META, columns)
        head = ["# schema=1", "# command=spectrum %d", "# params: q=0.5 b=1.00000000000e-04",
                "n,x,y,branch"]
        assert out.split("\n") == head + [
            f"{n},{cli.fmt(x)},{cli.fmt(y)},{branch}" for n, x, y, branch in rows] + [""]

    @staticmethod
    def reference_json(meta: dict, columns: dict) -> str:
        """The row-dict encoding the writer replaced: one dict per row under
        `json.dumps(..., indent=2)`."""
        rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
        return json.dumps({"schema": cli.SCHEMA, **meta, "rows": rows}, indent=2) + "\n"

    @WRITER
    @given(rows=st.lists(st.tuples(st.integers(-10**6, 10**6), float_cells, st.text(max_size=5),
                                   float_cells), max_size=40))
    @example(rows=[(1, x, "bound", -x) for x in EDGE_FLOATS])
    @example(rows=[(0, 0.5, "%s %d %%", 2.0)])
    @example(rows=[])
    def test_json_matches_row_dicts(self, rows):
        names = ("n", "energy", 'sta"t%us', "residual")
        columns = dict(zip(names, map(list, zip(*rows)))) or {name: [] for name in names}
        assert emit("json", self.META, columns) == self.reference_json(self.META, columns)

    @WRITER
    @given(runs=st.lists(st.tuples(float_cells, st.integers(1, 6)), max_size=12))
    @example(runs=[(0.0, 2), (-0.0, 2), (0.0, 2), (0.5, 2)])  # exactly halved
    @example(runs=[(x, 2) for x in EDGE_FLOATS])
    @example(runs=[(math.nan, 3), (math.inf, 3), (-math.inf, 3), (5e-324, 3), (_TINY, 3)])
    @example(runs=[(-0.0, 1)])  # one row
    def test_runs_of_equal_cells(self, runs):
        """A column of runs, as a sweep's key, is formatted once per run; each
        cell must still read as the one-value rules say."""
        key = [x for x, count in runs for _ in range(count)]
        columns = {"n": list(range(len(key))), "b": key, "energy": [-x for x in key]}
        csv = emit("csv", self.META, columns).split("\n")[4:-1]
        assert csv == [f"{n},{cli.fmt(x)},{cli.fmt(-x)}" for n, x in enumerate(key)]
        assert emit("json", self.META, columns) == self.reference_json(self.META, columns)

    def test_sweep_formats_each_value_once(self, capsys, monkeypatch):
        """A 100-value, 3200-row sweep formats its key column 100 times."""
        values = [0.05 + 0.009 * k for k in range(100)]
        formatted = collections.Counter()
        bulk_cells = cli._bulk

        def bulk(spec, x):
            formatted.update(x.tolist())
            return bulk_cells(spec, x)

        monkeypatch.setattr(cli, "_bulk", bulk)
        code, out, _ = run(capsys, "sweep", "--model", "mixed", "--b", "0.5", "--key", "q",
                           "--values", ",".join(map(repr, values)))
        assert code == 0 and len(out.splitlines()) == 6 + 1 + 3200  # header, names, rows
        assert [formatted[v] for v in values] == [1] * 100

    @pytest.mark.parametrize("model, key", [
        (("--model", "mixed", "--b", "0.5", "--q", "0.3"), "q"),
        (("--model", "scalar-linear", "--s", "1", "--length-scale", "2"), "s"),
    ])
    def test_sweep_checks_its_values_as_one_column(self, capsys, monkeypatch, model, key):
        """A 100-value sweep builds its base parameters and no params per value."""
        cls = cli._PARAMS[model[1]]
        checks = []
        check = cls.__post_init__

        def spy(params):
            checks.append(params)
            return check(params)

        monkeypatch.setattr(cls, "__post_init__", spy)
        values = [0.05 + 0.009 * k for k in range(100)]
        code, out, _ = run(capsys, "sweep", *model, "--key", key,
                           "--values", ",".join(map(repr, values)))
        # the header (the scalar model's has its mode line), the names, the rows
        assert code == 0 and len(out.splitlines()) == 6 + (model[1] != "mixed") + 1 + 3200
        assert len(checks) <= 1

    def test_sweep_fills_repeated_columns_once(self, capsys, monkeypatch):
        """A 100-value, 3200-row sweep hands `_cells` one 32-row block of the
        columns that every block repeats: n, l and branch."""
        values = [0.05 + 0.009 * k for k in range(100)]
        converted = []
        cells = cli._cells

        def spy(col, as_json):
            converted.append(col)
            return cells(col, as_json)

        monkeypatch.setattr(cli, "_cells", spy)
        code, out, _ = run(capsys, "sweep", "--model", "mixed", "--b", "0.5", "--key", "q",
                           "--values", ",".join(map(repr, values)))
        assert code == 0 and len(out.splitlines()) == 6 + 1 + 3200
        n, l, branch = [col.tolist() for col in converted if col.dtype.kind != "f"][:3]
        # two branches of each (n, l), n fastest, for --n-max 3 --l-max 3
        assert list(zip(n, l)) == [(i, j) for j in range(4) for i in range(4) for _ in range(2)]
        assert branch == ["antiparticle", "particle"] * 16

    @WRITER
    @given(table=blocked_tables())
    @example(table=(2, {"n": [0, 1] * 2, "l": [0, 0, 1, 1], 'sta"t%us': ["%s", "%d %%"] * 2,
                        "q": [0.0, -0.0, -0.0, 0.0], "energy": [math.nan, 5e-324] * 2}))
    @example(table=(3, {"n": [7] * 3, "l": [1] * 3, 'sta"t%us': ["%"] * 3,
                        "q": [-0.0] * 3, "energy": [_TINY] * 3}))  # every column repeated
    @example(table=(4, {name: [] for name in BLOCK_CELLS}))
    def test_blocks_read_as_one_table(self, table):
        """Writing a table as equal blocks moves no byte."""
        blocks, columns = table
        for output in ("csv", "json"):
            assert emit(output, self.META, columns, blocks) == emit(output, self.META, columns)
        assert emit("json", self.META, columns, blocks) == self.reference_json(self.META, columns)


# sha256 of `spectrum` and `sweep` stdout, pinned before the one-template writer
# replaced the per-cell one; the closed forms use only +, -, *, / and sqrt, so
# these bytes do not depend on the platform's libm (wavefunctions would)
GOLDEN = [
    ("spectrum --model mixed --q 0.5",
     "5e770e27e3dd049a9a02fb1942c756b5ea0b462fa31e36eb8273caa3f50025b2"),
    ("spectrum --model mixed --q 0.5 --output json",
     "c32f524b26d9146661401f6828a80b722b248ac4be0ad2eff940d441c8274ff2"),
    ("spectrum --model mixed --q 1 --b 1 --l-max 1",
     "30438a9d20451e1c892d215abe3a11de3198605b353f75aefd12901a6e5d9deb"),
    ("spectrum --model mixed --q 1 --b 1 --l-max 1 --output json",
     "c42980155e3521faa7cde82f1be2bb35a0ffdb78aa862916b15483b6c6790d1c"),
    ("spectrum --model mixed --q 0.3 --b 0.5 --beta -1 --V0 0.1 --n-max 6 --l-max 6",
     "52728e5ac49ab27f4fd68e2d379a4f1c24834aaeda928a955dcc8eb206583dde"),
    ("spectrum --model mixed --q 0.3 --b 0.5 --beta -1 --V0 0.1 --n-max 6 --l-max 6 --output json",
     "c8fe40faf63a112fc8b4b243e3ca3a0d39dff08ad84a06f7ce532703607e5a41"),
    ("spectrum --model mixed --q 0.5 --rest-energy 2 --units absolute",
     "c6d293345c53ef70bf1cac208ea0aa4a9d9dbebadad4f9bab5d1190a53c2228a"),
    ("spectrum --model scalar-linear --s 1 --rest-energy 3 --hbar-c 0.7 --units absolute"
     " --output json",
     "ceef0289f4defea848a3e972731bddac22afc8efd2f69de7884d5b58124a4a69"),
    ("spectrum --model mixed --q 0.5 --n-max 0 --l-max 0",
     "634645d4cf824706c536d5a7fa984e68f067316038329c293b83b8d080fa157c"),
    ("spectrum --model scalar-linear --s 1 --n-max 0 --output json",
     "69d462daf593bc19e7e0f821bc1170337837294c0937bc3d6b2a105a1a04b895"),
    ("spectrum --model scalar-linear --s 1.5 --length-scale 0.7",
     "201927301f7ca9e6b660bd7597752e0b873db8ed2dfc9961d5c89cd6103d6613"),
    ("spectrum --model scalar-linear --s 1 --mode as_printed --n-max 5 --l-max 5 --output json",
     "f9360f19825dd9fffd374e861df6063bc07ff534ea656f345620f153f58e00a7"),
    # out-of-window candidates: infinite residuals
    ("spectrum --model mixed --q 1 --V0 -31350.455522678614 --rest-energy 0.001242033433596999"
     " --n-max 2 --l-max 2",
     "2a6c26f5e4f8eda02918d71151a418a007cf1b9484d5927f4c6972a4c39e86fb"),
    ("spectrum --model mixed --q 1 --V0 -31350.455522678614 --rest-energy 0.001242033433596999"
     " --n-max 2 --l-max 2 --output json",
     "6d6056297928ca615a58406be4e071f9afbf5761aa87820c2d7e36f3c6c4aae8"),
    ("sweep --model mixed --q 0.5 --key b --values 0,0.5",
     "a2ef33fc564416554f0bdb562a59ec94d1f1277dbb9a9d1458742a4dfbd08e52"),
    ("sweep --model mixed --q 0.5 --key b --values 0,0.5 --output json",
     "550f840c1e35f0ebd4689e33b69e7ccd081ec0a5ae3d99fddfaabeb4614172d5"),
    ("sweep --model scalar-linear --s 1 --key s --values -1,0.5,2 --units absolute",
     "3afba2d2003fd37da444c4a3e6bcfe0c563c46833672cbf7e30eb3e0d5461c6a"),
    ("sweep --model scalar-linear --s 1 --key s --values -1,0.5,2 --units absolute --output json",
     "53498ad7a703275f91dc2481649365a2abcf17c8e09e3c861ff68618f0d91e18"),
    ("sweep --model mixed --q 0.5 --key beta --values 0,-0.5,1e-7",
     "43b5912af277ba9596704aebe717780e5d68a97ca8d99856521dc9f1c4b7804b"),
    ("sweep --model scalar-linear --key s --values 0,1e-4,-1e-4,2 --output json",
     "7ed157f265c65c94a486303d1546523e26a6520fbef86bd1175b0d89ad42c292"),
    ("sweep --model mixed --q 1 --b 1 --key q --values 1,0.5 --l-max 1 --output json",
     "fb0365b4a587aebe6a54bcdd94680b2325f4e34642b213d91888cfabc98475fb"),
    ("spectrum --model mixed --q 0.9 --b -0.9 --beta 0.3 --V0 -0.2 --n-max 30 --l-max 30",
     "efaed4fd9d0e8da8c4b336e5a6062344fabfd2e3b614dcc96384441aa0acbc57"),
    # pinned before runs of equal cells were formatted once: 0.0 and -0.0
    # must stay apart, and a tiny repeated value takes %.11e
    ("sweep --model mixed --q 0.5 --key b --values 0,-0.0,0,0.5",
     "8b34c2e89076bf254aab7112474e08ca71e114c2811aeaace425dc8c8f821bb0"),
    ("sweep --model mixed --q 0.5 --key b --values 0,-0.0,0,0.5 --output json",
     "d730b3ea6782794972297d9f55552763d8dc30f80db5e6a59c994efcb372ac76"),
    ("sweep --model mixed --q 0.5 --key V0 --values 1e-9,1e-9,0.1",
     "ef6d139130a249baf4ac7bbd13b88cdac76044f844fa3e954da006ac404ed9e6"),
]


# sha256 of `wavefunction` stdout, pinned when L_n^alpha became a mantissa and
# a power of two; u is one numpy exp of a sum of logs, so unlike GOLDEN these
# bytes may depend on the last bit of numpy's exp and log on the platform
GOLDEN_WAVEFUNCTION = [
    ("wavefunction --model mixed --q 0.5 --n 2 --l 1 --samples 50",
     "cc0bb2a3cc53926ffd73483bf40c5befc77edb412e730a457238a58ed05b7e17"),
    ("wavefunction --model mixed --q 0.5 --n 2 --l 1 --samples 50 --output json",
     "525a09cf1780ef26d4a79813d9420682112af438d211d3ced51acf7c16cdcd39"),
    ("wavefunction --model scalar-linear --s 1 --n 3 --l 2 --samples 50 --r-max 8",
     "f76a25c09e8c5cdf67bdbf78209dad9c846b375caa8291d64991504ee4ebd5c9"),
    ("wavefunction --model scalar-linear --s 1 --n 3 --l 2 --samples 50 --r-max 8 --output json",
     "ec25fbd1dceba5da6fde7e780941ccaf4343b35d2c9d8ac594772e5cbe094fd0"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN + GOLDEN_WAVEFUNCTION,
                         ids=[argv for argv, _ in GOLDEN + GOLDEN_WAVEFUNCTION])
def test_golden_table_bytes(capsys, argv, digest):
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the three standard `verify` reports, pinned when the scalar
# oracle became the Sturmian problem at p/2 + 1/4; the observed column comes
# from the oracle's LAPACK eigensolves and numpy's exp, so like
# GOLDEN_WAVEFUNCTION these bytes may depend on the platform
GOLDEN_VERIFY = [
    ("verify --model mixed", 0,
     "5bcb68f3432b8bee2925ee73f0b63789cd4c447028c6a6b2685d935469e9677d"),
    ("verify --model scalar-linear", 0,
     "b15f0c45a301677d9b9047e0bfc504d5fb6e7c489c761172a1c028a8633df674"),
    ("verify --model scalar-linear --mode as_printed", 1,
     "de50a029a71baebf96490bcdff4291ef9fd23c1ac4a061a6b6da112e5df363cb"),
]


@pytest.mark.usefixtures("verify_once")
@pytest.mark.parametrize("argv, code, digest", GOLDEN_VERIFY,
                         ids=[argv for argv, _, _ in GOLDEN_VERIFY])
def test_golden_verify_bytes(capsys, argv, code, digest):
    got, out, err = run(capsys, *argv.split())
    assert (got, err) == (code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `--help` stdout at 80 columns, pinned before the physics flags
# were built from the parameter dataclasses
GOLDEN_HELP = [
    ("", "f54563ac02201a25bf5747b8cc28132f9306a6ab16b156cde8c863cd6cec9e98"),
    ("spectrum", "abb9caf42addd829de939c7ed60add3b73580e9b548370655c9cb40eabc8ea6f"),
    ("sweep", "c248448d8bf7d4be0ffd7c32cd3eea9b672a15317441eab276e415c00d7e2d31"),
    ("wavefunction", "45954e33c0b0fa126f954a6fc48b7200f3111d185d0a01c34d15758fe3144a05"),
    ("nu-solve", "36a027ff7981162499e8d57b9009b8d1e207d597639695bb592f452f8cca2bbc"),
    ("verify", "9e071004482f945c16d9326806e6c43e2dbfec2265137badfa251b5868a3fa8c"),
]


@pytest.mark.parametrize("command, digest", GOLDEN_HELP, ids=[c or "kgbound" for c, _ in GOLDEN_HELP])
def test_golden_help_bytes(capsys, monkeypatch, command, digest):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help at COLUMNS
    with pytest.raises(SystemExit) as info:
        cli.main([*command.split(), "--help"])
    out, err = capsys.readouterr()
    assert (info.value.code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestWavefunction:
    def test_shape_and_peak_location(self, capsys):
        code, out, _ = run(capsys, "wavefunction", "--model", "mixed",
                           "--q", "0.5", "--samples", "200",
                           "--r-min", "0.01", "--r-max", "25")
        assert code == 0
        rows = [ln.split(",") for ln in out.splitlines()
                if not ln.startswith(("#", "r,"))]
        r = [float(a) for a, _ in rows]
        u = [float(b) for _, b in rows]
        peak = r[u.index(max(u))]
        # ground state peaks at r = (L+1)/eps = 1/0.8
        assert peak == pytest.approx(1.25, rel=0.05)
        assert u[0] < max(u) and u[-1] < 1e-4 * max(u)

    def test_not_bound_exit_3(self, capsys):
        code, _, err = run(capsys, "wavefunction", "--model", "mixed",
                           "--q", "0.5", "--branch", "antiparticle")
        assert code == 3
        assert err == "error: level n=0 l=0 branch=antiparticle is threshold, not bound\n"

    def test_empty_sampling_header_only(self, capsys):
        code, out, _ = run(capsys, "wavefunction", "--model", "mixed",
                           "--q", "0.5", "--samples", "0")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "r,u"

    def test_scalar_gaussian(self, capsys):
        code, out, _ = run(capsys, "wavefunction", "--model", "scalar-linear",
                           "--s", "0", "--samples", "50", "--r-max", "6")
        assert code == 0
        rows = [ln.split(",") for ln in out.splitlines()
                if not ln.startswith(("#", "r,"))]
        norm2 = 2.0 * math.pi**-0.25  # of u = N r exp(-r^2/2)
        for a, b in rows[::7]:
            r = float(a)
            assert float(b) == pytest.approx(norm2 * r * math.exp(-0.5 * r * r),
                                             rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("mode", sl.MODES)
    def test_scalar_mode_labels_and_samples_one_variant(self, capsys, mode):
        code, out, _ = run(capsys, "wavefunction", "--model", "scalar-linear", "--s", "1",
                           "--n", "1", "--samples", "5", "--mode", mode)
        assert code == 0
        lines = out.splitlines()
        assert f"# mode={mode}" in lines
        params = sl.LinearMassParams(s=1.0)
        energy = math.sqrt(sl.energy_squared(params, 1, 0, mode))
        assert f"# level: n=1 l=0 branch=particle energy={cli.fmt(energy)}" in lines
        u = wavefunctions.build_scalar(params, 1, 0, energy, as_printed=mode == "as_printed")
        rows = [ln.split(",") for ln in lines if not ln.startswith(("#", "r,"))]
        assert len(rows) == 5
        for r, v in rows:
            assert float(v) == pytest.approx(u.evaluate(float(r)), rel=1e-10, abs=1e-300)


class TestVerify:
    @pytest.mark.usefixtures("verify_once")
    def test_scalar_corrected_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--model", "scalar-linear")
        assert code == 0
        assert "FAIL" not in out

    @pytest.mark.usefixtures("verify_once")
    def test_as_printed_fails_oracle_check(self, capsys):
        code, out, _ = run(capsys, "verify", "--model", "scalar-linear",
                           "--mode", "as_printed")
        assert code == 1
        failing = [ln for ln in out.splitlines() if ln.endswith(",FAIL")]
        assert len(failing) == 1
        assert failing[0].startswith("scalar-oracle-agreement")

    NU_ROWS = [
        ("nu-branch-regression-coulomb", "<=", 1e-12, "pass"),
        ("nu-branch-regression-oscillator", "<=", 1e-12, "pass"),
        ("nu-discriminant-zero", "<=", 1e-12, "pass"),
        ("nu-quantize-ground", "<=", 0.0, "pass"),
    ]
    SCALAR_ROWS = [
        ("scalar-printed-offset-identity", "<=", 1e-12, "pass"),
        ("scalar-corrected-exponent-residual", "<=", 1e-6, "pass"),
        ("scalar-printed-exponent-residual", ">=", 1e-2, "pass"),
        ("scalar-printed-normalization-n0", "<=", 1e-8, "pass"),
        ("scalar-printed-normalization-unusable-n>=1", "<=", 0.0, "pass"),
    ]
    REPORTS = [
        ("mixed", "corrected", 0, NU_ROWS + [
            ("mixed-constant-mass-spectrum", "<=", 1e-12, "pass"),
            ("mixed-antiparticle-threshold", "<=", 0.0, "pass"),
            ("mixed-bound-residuals", "<=", 1e-10, "pass"),
            ("mixed-mass-duality", "<=", 1e-12, "pass"),
            ("mixed-oracle-agreement", "<=", 1e-6, "pass"),
            ("mixed-normalization-closed-vs-quadrature", "<=", 1e-8, "pass"),
        ]),
        ("scalar-linear", "corrected", 0, NU_ROWS + [
            ("scalar-oracle-agreement[corrected]", "<=", 1e-6, "pass"),
        ] + SCALAR_ROWS),
        ("scalar-linear", "as_printed", 1, NU_ROWS + [
            ("scalar-oracle-agreement[as_printed]", "<=", 1e-6, "FAIL"),
        ] + SCALAR_ROWS),
    ]

    def test_every_check_run_prints_a_row(self):
        """A check with a quick set is one `verify` runs, so at least one of its
        rows must be printed; a check none of whose rows is printed has no quick
        set instead."""
        for spec in verify.REGISTRY:
            if spec.quick is not None:
                rows = spec.measure(spec.quick, "corrected")
                assert any(c.in_verify for c in rows), [c.name for c in rows]

    @pytest.mark.usefixtures("verify_once")
    def test_json_report(self, capsys):
        """Every row of each report, in order, with its rule and verdict;
        observed values come from the oracle and LAPACK, so they are not pinned."""
        for model, mode, code, rows in self.REPORTS:
            got, out, _ = run(capsys, "verify", "--model", model, "--mode", mode,
                              "--output", "json")
            assert got == code
            doc = json.loads(out)
            assert [(c["name"], c["comparison"], c["tolerance"], c["status"])
                    for c in doc["checks"]] == rows


class TestNuSolve:
    def test_scalar_branch_coefficients(self, capsys):
        code, out, _ = run(capsys, "nu-solve", "--model", "scalar-linear",
                           "--s", "1")
        assert code == 0
        doc = json.loads(out)
        alpha2 = sl.LinearMassParams(s=1.0).alpha2(0)
        tau = doc["selected"]["tau"]
        assert tau[0] == pytest.approx(2.0 + math.sqrt(4.0 * alpha2 + 1.0), abs=1e-12)
        assert tau[1] == pytest.approx(-2.0, abs=1e-12)

    def test_mixed_branch(self, capsys):
        code, out, _ = run(capsys, "nu-solve", "--model", "mixed",
                           "--q", "0.5", "--energy", "0.6")
        assert code == 0
        doc = json.loads(out)
        assert doc["selected"]["pi"] == pytest.approx([1.0, -0.8], abs=1e-12)
        assert doc["quantization"]["lambda"] == pytest.approx(0.0, abs=1e-12)

    def test_tie_is_one_warning_line(self, capsys):
        code, out, err = run(capsys, "nu-solve", "--model", "mixed", "--q", "0.5", "--b", "0.5",
                             "--beta", "0.5", "--n", "1", "--energy", "0.9917401207983119")
        assert code == 0
        assert err == "warning: multiple admissible branches; choosing the smallest lambda\n"
        assert json.loads(out)["selected"] is not None

    def test_mixed_requires_energy(self, capsys):
        code, _, err = run(capsys, "nu-solve", "--model", "mixed", "--q", "0.5")
        assert code == 2 and "--energy" in err

    def test_zero_coupling_threshold_reports_no_bound_state(self, capsys):
        code, out, _ = run(capsys, "nu-solve", "--model", "mixed",
                           "--q", "0", "--b", "0", "--energy", "1.0")
        assert code == 0
        doc = json.loads(out)
        assert doc["selected"] is None
        assert "error" in doc


class TestSweep:
    def test_equal_mix_formula(self, capsys):
        values = "0.1,0.3,0.5,0.7,0.9"
        code, out, _ = run(capsys, "sweep", "--model", "mixed", "--key", "q",
                           "--values", values, "--n-max", "0", "--l-max", "0")
        assert code == 0
        # no --q: the header shows the placeholder, the rows the swept values
        assert "# params: q=0 b=0 beta=1 V0=0" in out.splitlines()
        got = {}
        for line in out.splitlines():
            if line.startswith("#") or line.startswith("q,"):
                continue
            q, n, l, branch, energy, status, _ = line.split(",")
            if branch == "particle":
                got[float(q)] = float(energy)
        for q in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert got[q] == pytest.approx((1 - q * q) / (1 + q * q), abs=1e-9)

    @pytest.mark.parametrize("model, key, header", [
        # an unset optional swept coupling keeps its dataclass default
        (("--model", "mixed", "--q", "0.5"), "beta",
         f"q=0.5 b=0 beta={cm.MixedCoulombParams(q=0).beta:g} V0=0"),
        (("--model", "scalar-linear", "--s", "1"), "length_scale",
         f"s=1 length_scale={sl.LinearMassParams(s=0).length_scale:g}"),
        # an unset required one reads 0
        (("--model", "mixed"), "q", "q=0 b=0 beta=1 V0=0"),
        (("--model", "scalar-linear"), "s", "s=0 length_scale=1"),
    ])
    def test_unset_swept_coupling_header(self, capsys, model, key, header):
        code, out, _ = run(capsys, "sweep", *model, "--key", key, "--values", "0.5,2",
                           "--n-max", "0", "--l-max", "0")
        assert code == 0
        assert f"# params: {header}" in out.splitlines()

    def test_mass_shape_drives_to_threshold(self, capsys):
        code, out, _ = run(capsys, "sweep", "--model", "mixed", "--key", "b",
                           "--values", "0,0.5,1", "--q", "0.5",
                           "--n-max", "0", "--l-max", "0")
        assert code == 0
        status = {}
        for line in out.splitlines():
            if line.startswith("#") or line.startswith("b,"):
                continue
            b, _, _, branch, energy, st, _ = line.split(",")
            if branch == "particle":
                status[float(b)] = (float(energy), st)
        assert status[0.0][1] == "bound"
        assert status[0.5][0] > status[0.0][0]
        assert status[1.0] == (1.0, "threshold")

    @pytest.mark.parametrize("model, key, values", [
        # b = 1 with q = 1 gives unreal NaN rows
        (("--model", "mixed", "--q", "1", "--V0", "0.2", "--rest-energy", "2"), "b",
         ("0", "0.5", "1", "-0.3")),
        (("--model", "scalar-linear", "--s", "1", "--hbar-c", "0.5", "--mode", "as_printed"), "s",
         ("-1", "0", "2.5")),
    ])
    @pytest.mark.parametrize("output", ["csv", "json"])
    def test_rows_are_the_spectra_of_the_values(self, capsys, model, key, values, output):
        """One sweep writes the rows of one `spectrum` per value, each led by
        its value: CSV byte for byte, JSON value for value."""
        opts = (*model, "--units", "absolute", "--output", output, "--n-max", "2", "--l-max", "1")
        code, out, _ = run(capsys, "sweep", *opts, "--key", key, "--values", ",".join(values))
        assert code == 0
        spectra = [run(capsys, "spectrum", *opts, f"--{key}={value}")[1] for value in values]
        if output == "csv":
            def rows(text):
                return [line for line in text.splitlines() if not line.startswith("#")]
            expected = [f"{key},{rows(spectra[0])[0]}"] + [
                f"{cli.fmt(float(value))},{line}"
                for value, text in zip(values, spectra) for line in rows(text)[1:]]
            assert rows(out) == expected
        else:
            expected = [{key: float(value), **row}
                        for value, text in zip(values, spectra) for row in json.loads(text)["rows"]]
            assert repr(json.loads(out)["rows"]) == repr(expected)

    def test_unknown_key_exit_2(self, capsys):
        for model, choices in ((("--model", "mixed", "--q", "0.5"), "q, b, beta, V0"),
                               (("--model", "scalar-linear", "--s", "1"), "s, length_scale")):
            code, _, err = run(capsys, "sweep", *model, "--key", "mass", "--values", "1,2")
            assert code == 2
            assert err == (f"error: unknown sweep key 'mass' for model {model[1]}"
                           f" (choose from {choices})\n")


class TestNegativeExponentValues:
    """A dash-led number in exponent notation is a value, in either spelling."""

    def test_flag_value(self, capsys):
        base = ("spectrum", "--model", "mixed", "--q", "0.5", "--n-max", "1")
        code, spaced, err = run(capsys, *base, "--beta", "-6.7e-05")
        assert code == 0, err
        _, joined, _ = run(capsys, *base, "--beta=-6.7e-05")
        assert spaced == joined
        assert "beta=-6.70000000000e-05" in spaced

    def test_values_list(self, capsys):
        base = ("sweep", "--model", "mixed", "--q", "0.5", "--key", "beta",
                "--n-max", "0", "--l-max", "0")
        for values in ("-6.7e-05,1", "-1e-3,0.5"):
            code, spaced, err = run(capsys, *base, "--values", values)
            assert code == 0, err
            _, joined, _ = run(capsys, *base, f"--values={values}")
            assert spaced == joined
            lead = cli.fmt(float(values.split(",")[0]))
            rows = [line for line in spaced.splitlines() if line.startswith(lead + ",")]
            assert len(rows) == 2

    def test_range_check_sees_the_value(self, capsys):
        code, out, err = run(capsys, "wavefunction", "--model", "mixed", "--q", "0.5",
                             "--r-min", "-1e-3")
        assert (code, out) == (2, "")
        assert err == "error: require finite 0 < --r-min < --r-max\n"

    def test_dash_led_non_number_is_the_value(self, capsys):
        # the flag's type check rejects it, as it would any other word
        with pytest.raises(SystemExit) as info:
            cli.main(["spectrum", "--model", "mixed", "--q", "-x"])
        assert info.value.code == 2
        assert "argument --q: invalid float value: '-x'" in capsys.readouterr().err

    def test_non_number_is_still_an_option(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(capsys, "spectrum", "--model", "mixed", "--q", "--beta", "1")
        assert info.value.code == 2


class TestConfigFile:
    def test_config_supplies_parameters(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q = 0.5\nn_max = 0\nl_max = 0\n")
        for spelling in (["--config", str(cfg)], [f"--config={cfg}"]):
            code, out, _ = run(capsys, "spectrum", "--model", "mixed", *spelling)
            assert code == 0
            assert "0,0,particle,0.6,bound,0" in out.splitlines()

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q=0.1\nn_max=0\nl_max=0\n")
        _, out, _ = run(capsys, "spectrum", "--model", "mixed",
                        "--config", str(cfg), "--q", "0.5")
        assert "0,0,particle,0.6,bound,0" in out.splitlines()

    def test_unknown_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("coupling=0.5\n")
        code, _, err = run(capsys, "spectrum", "--model", "mixed",
                           "--config", str(cfg))
        assert code == 2 and "coupling" in err

    def test_not_utf8_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff\xfe=1\n")
        code, out, err = run(capsys, "spectrum", "--model", "mixed", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("joined", [False, True])
    @pytest.mark.parametrize("line", ["q=abc", "func=x", "command=verify", "config=x",
                                      "units=bogus", "output=xml", "mode=bogus",
                                      "n=0"])  # n: only a prefix of --n-max
    def test_bad_entry_exit_2(self, tmp_path, line, joined):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        spelling = [f"--config={cfg}"] if joined else ["--config", str(cfg)]
        try:  # --q is valid, so only the config entry can fail
            code = cli.main(["spectrum", "--model", "mixed", "--q", "0.5", *spelling])
        except SystemExit as exc:  # argparse rejects the value
            code = exc.code
        assert code == 2


# killed the interpreter inside scipy's quad before norm_quadrature was guarded
_SEGFAULTED = ("wavefunction", "--model", "scalar-linear", "--hbar-c", "9.13116497106425e-118",
               "--s", "-0.4316035537546634", "--samples", "3")


class TestParameterErrors:
    """Out-of-range or non-finite parameters exit 2 with a message."""

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--model", "mixed", "--q", "0.5", "--n-max", "-1"),
        ("spectrum", "--model", "scalar-linear", "--s", "1", "--length-scale", "-1"),
        ("wavefunction", "--model", "scalar-linear", "--s", "1", "--n", "-1"),
        ("wavefunction", "--model", "mixed", "--q", "0.5", "--n", "-1"),
        ("nu-solve", "--model", "mixed", "--q", "0.5", "--energy", "0.6", "--n", "-1"),
        ("nu-solve", "--model", "scalar-linear", "--s", "1", "--l", "-1"),
        ("spectrum", "--model", "mixed", "--q", "nan"),
        ("spectrum", "--model", "scalar-linear", "--s", "inf"),
        ("spectrum", "--model", "mixed", "--q", "0.5", "--rest-energy", "nan"),
        ("spectrum", "--model", "mixed", "--q", "0.5", "--hbar-c", "inf"),
        ("sweep", "--model", "mixed", "--key", "beta", "--q", "0.5", "--values", "1,nan"),
        # magnitudes whose square overflows or underflows
        ("spectrum", "--model", "scalar-linear", "--s", "1e200"),
        ("spectrum", "--model", "mixed", "--q", "1e200"),
        ("spectrum", "--model", "mixed", "--q", "0.5", "--beta", "1e200"),
        ("spectrum", "--model", "mixed", "--q", "0.5", "--rest-energy", "1e200"),
        ("spectrum", "--model", "scalar-linear", "--s", "1", "--rest-energy", "1e200"),
        ("spectrum", "--model", "scalar-linear", "--s", "1", "--hbar-c", "1e-200"),
        ("wavefunction", "--model", "scalar-linear", "--s", "1e200", "--samples", "2"),
        ("nu-solve", "--model", "scalar-linear", "--s", "1e200"),
        # u^2 or its integral out of float range (these crashed, printed NaN
        # samples, divided by zero or overflowed in the closed-form norm)
        _SEGFAULTED,
        ("wavefunction", "--model", "scalar-linear", "--s", "1e100", "--samples", "2"),
        ("wavefunction", "--model", "scalar-linear", "--s=-9.657126897494705e-308",
         "--length-scale=2.46689211131263e+16", "--hbar-c=6.415311413441338e-97",
         "--rest-energy=7156334929300054.0", "--n=2", "--l=2"),
        ("wavefunction", "--model", "mixed", "--q", "0.5", "--b", "-1e94"),
        # derived quantities whose squares overflow
        ("nu-solve", "--model", "scalar-linear", "--s", "-3.09e100"),
        ("nu-solve", "--model", "mixed", "--q=6.770621796783135e+16",
         "--b=6.770621796783135e+16", "--beta=25.0", "--V0=3.335534877844873e+219",
         "--energy=25.0", "--hbar-c=6.770621796783135e+16",
         "--rest-energy=6.770621796783135e+16"),
        ("nu-solve", "--model", "scalar-linear", "--s=1.832824376787495e-235",
         "--length-scale=1.832824376787495e-235", "--hbar-c=2.7521900096995868e+16",
         "--rest-energy=30.0"),
        # a non-finite energy
        ("nu-solve", "--model", "mixed", "--q", "0.5", "--energy", "nan"),
        # a sweep value that is not a number
        ("sweep", "--model", "mixed", "--q", "0.5", "--key", "q", "--values", "abc"),
        # a sampling range outside finite 0 < r_min < r_max, or negative samples
        ("wavefunction", "--model", "mixed", "--q", "0.5", "--r-min", "0"),
        ("wavefunction", "--model", "mixed", "--q", "0.5", "--r-min", "-1"),
        ("wavefunction", "--model", "mixed", "--q", "0.5", "--r-min", "30"),
        ("wavefunction", "--model", "mixed", "--q", "0.5", "--r-max", "nan"),
        ("wavefunction", "--model", "scalar-linear", "--s", "1", "--r-max", "inf"),
        ("wavefunction", "--model", "mixed", "--q", "0.5", "--samples", "-3"),
        # the mixed model has no printed variant
        ("spectrum", "--model", "mixed", "--q", "0.5", "--mode", "as_printed"),
        ("sweep", "--model", "mixed", "--q", "0.5", "--key", "b", "--values", "0",
         "--mode", "as_printed"),
        ("wavefunction", "--model", "mixed", "--q", "0.5", "--mode", "as_printed"),
        ("verify", "--model", "mixed", "--mode", "as_printed"),
        # an empty value list
        ("sweep", "--model", "mixed", "--q", "0.5", "--key", "q", "--values", ","),
        ("sweep", "--model", "mixed", "--q", "0.5", "--key", "q", "--values", ""),
        ("sweep", "--model", "scalar-linear", "--key", "s", "--values", ""),
        # integers beyond float range, and tables or grids larger than the
        # address space, which numpy refuses before allocating them
        ("nu-solve", "--model", "mixed", "--q", "0.5", "--energy", "0.6", "--n", str(10**400)),
        ("wavefunction", "--model", "mixed", "--q", "0.5", "--n", str(10**400)),
        ("wavefunction", "--model", "scalar-linear", "--s", "1", "--n", str(10**400)),
        # n beyond the size limit of the quadrature rule
        ("wavefunction", "--model", "mixed", "--q", "0.5", "--n", str(wavefunctions.MAX_N + 1)),
        ("wavefunction", "--model", "scalar-linear", "--s", "1", "--n",
         str(wavefunctions.MAX_N + 1)),
        ("wavefunction", "--model", "mixed", "--q", "0.5", "--l", str(10**400)),
        ("spectrum", "--model", "mixed", "--q", "0.5", "--n-max", str(10**19)),
        ("spectrum", "--model", "scalar-linear", "--s", "1", "--n-max", str(10**400)),
        ("sweep", "--model", "mixed", "--q", "0.5", "--key", "b", "--values", "0,1",
         "--l-max", str(10**19)),
        ("spectrum", "--model", "mixed", "--q", "0.5", "--n-max", "10000000", "--l-max", "10000000"),
        ("wavefunction", "--model", "mixed", "--q", "0.5", "--samples", str(10**14)),
        ("wavefunction", "--model", "mixed", "--q", "0.5", "--samples", str(10**19)),
        ("wavefunction", "--model", "mixed", "--q", "0.5", "--samples", str(10**400)),
    ])
    def test_exit_2(self, capsys, argv):
        if argv == _SEGFAULTED:  # a crash must fail this test, not end the run
            env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kgbound.__file__)))
            proc = subprocess.run([sys.executable, "-m", "kgbound.cli", *argv],
                                  capture_output=True, text=True, env=env)
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        else:
            code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("n", [wavefunctions.MAX_N + 1, 10**400])
    @pytest.mark.parametrize("couplings", [("mixed", "--q", "0.5"), ("scalar-linear", "--s", "1")])
    def test_n_above_max_named_before_any_level(self, capsys, monkeypatch, n, couplings):
        def no_level(*args, **kwargs):
            raise AssertionError("a level was built")

        monkeypatch.setattr(cm, "candidate_energies", no_level)
        monkeypatch.setattr(sl, "energy_squared", no_level)
        code, out, err = run(capsys, "wavefunction", "--model", *couplings, "--n", str(n))
        assert (code, out) == (2, "")
        assert err == f"error: --n must be at most {wavefunctions.MAX_N}, the quadrature limit\n"


class TestCachedParser:
    """One parser serves every call of the process."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_reuse_leaks_no_state(self, capsys, monkeypatch, tmp_path):
        # argparse wraps its usage line at COLUMNS; give both sides the same width
        monkeypatch.setenv("COLUMNS", "80")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q = 0.3\nn_max = 1\nl_max = 0\n")
        calls = [
            ("spectrum", "--model", "mixed", "--config", str(cfg)),
            ("spectrum", "--model", "mixed", "--q", "abc"),  # argparse rejects it
            ("spectrum", "--model", "mixed", "--q", "0.5", "--n-max", "-1"),
            ("spectrum", "--model", "mixed", "--q", "0.5"),
        ]
        in_process = []
        for argv in calls:
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        assert [code for code, _, _ in in_process] == [0, 2, 2, 0]
        env = dict(os.environ, COLUMNS="80",
                   PYTHONPATH=os.path.dirname(os.path.dirname(kgbound.__file__)))
        for argv, got in zip(calls, in_process):
            proc = subprocess.run([sys.executable, "-m", "kgbound.cli", *argv],
                                  capture_output=True, text=True, env=env, timeout=60)
            assert got == (proc.returncode, proc.stdout, proc.stderr), argv


class TestClosedPipe:
    def test_reader_closing_early_is_quiet(self):
        # more output than a pipe buffers, so the writer meets the closed pipe
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kgbound.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "kgbound.cli", "spectrum", "--model", "mixed", "--q", "0.5",
             "--n-max", "3000", "--l-max", "3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"# schema=1\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=60)
        assert err == b""


_SOLVERS_PROBE = """
import contextlib, io, json, sys
from kgbound import cli, coulomb_mixed as cm, oracle, scalar_linear as sl, wavefunctions

SOLVERS = ("scipy.linalg", "scipy.optimize", "scipy.integrate")
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
params = cm.MixedCoulombParams(q=0.5)
level = cm.validate(params, 0, 0, cm.candidate_energies(params, 0, 0)[0], "particle")
norm = wavefunctions.norm_quadrature(wavefunctions.build_mixed(params, level))
scalar_norm = wavefunctions.build_scalar(sl.LinearMassParams(s=1.0), 2, 1, 1.0).norm
before = [name for name in SOLVERS if name in sys.modules]
lapack_before = oracle._tridiagonal_lapack.cache_info().currsize
energy = oracle.solve_modelA(params, 0, 0)
after = [name for name in SOLVERS if name in sys.modules]
lapack_after = oracle._tridiagonal_lapack.cache_info().currsize
with contextlib.redirect_stdout(io.StringIO()):
    verify_code = cli.main(["verify", "--model", "mixed"])
after_verify = [name for name in SOLVERS if name in sys.modules]
print(json.dumps({"codes": codes, "before": before, "after": after,
                  "lapack_before": lapack_before, "lapack_after": lapack_after,
                  "verify_code": verify_code, "after_verify": after_verify,
                  "energy": energy, "norm": norm, "scalar_norm": scalar_norm}))
"""


class TestStartUp:
    """The closed-form commands, `wavefunction` and the normalization never
    load scipy's solvers; the oracle loads scipy's LAPACK extension module on
    first use, and no scipy subpackage."""

    NO_SOLVERS = [
        ["spectrum", "--model", "mixed", "--q", "0.5"],
        ["spectrum", "--model", "scalar-linear", "--s", "1"],
        ["sweep", "--model", "mixed", "--q", "0.5", "--key", "b", "--values", "0,0.2"],
        ["sweep", "--model", "scalar-linear", "--s", "1", "--key", "s", "--values", "0.5,1"],
        ["nu-solve", "--model", "mixed", "--q", "0.5", "--energy", "0.6"],
        ["nu-solve", "--model", "scalar-linear", "--s", "1"],
        ["wavefunction", "--model", "mixed", "--q", "0.5"],
        ["wavefunction", "--model", "scalar-linear", "--s", "1"],
    ]

    def test_solvers_load_on_first_use(self):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kgbound.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", _SOLVERS_PROBE, json.dumps(self.NO_SOLVERS)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["codes"] == [0] * len(self.NO_SOLVERS)
        assert report["before"] == []
        assert report["lapack_before"] == 0
        assert report["after"] == []
        assert report["lapack_after"] == 1
        # the whole mixed verify, oracle included, needs no solver subpackage
        assert report["verify_code"] == 0
        assert report["after_verify"] == []
        params = cm.MixedCoulombParams(q=0.5)
        level = cm.validate(params, 0, 0, cm.candidate_energies(params, 0, 0)[0], "particle")
        assert report["energy"] == oracle.solve_modelA(params, 0, 0)
        assert report["norm"] == wavefunctions.norm_quadrature(wavefunctions.build_mixed(params, level))
        assert report["scalar_norm"] == wavefunctions.build_scalar(sl.LinearMassParams(s=1.0), 2, 1, 1.0).norm


class TestOptions:
    """A command accepts only the options it reads."""

    @pytest.mark.parametrize("argv, option", [
        (("verify", "--model", "mixed"), ("q", "0.5")),
        # --mode is also a prefix of --model, which must not stand in for it
        (("nu-solve", "--model", "scalar-linear", "--s", "1"), ("mode", "mixed")),
    ])
    def test_unread_option_exit_2(self, capsys, tmp_path, argv, option):
        key, value = option
        with pytest.raises(SystemExit) as info:
            cli.main([*argv, f"--{key}", value])
        assert info.value.code == 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        code, _, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 2 and f"unknown config key {key!r}" in err

    REQUIRED = {"mixed": ("--q", "0.5"), "scalar-linear": ("--s", "1")}
    EXTRA = {("mixed", "sweep"): ("--key", "b", "--values", "0,0.5"),
             ("mixed", "nu-solve"): ("--energy", "0.6"),
             ("scalar-linear", "sweep"): ("--key", "s", "--values", "0.5,1")}

    @pytest.mark.parametrize("command", ["spectrum", "sweep", "wavefunction", "nu-solve"])
    @pytest.mark.parametrize("model, key, flag, owner", [
        ("mixed", "s", "--s", "scalar-linear"),
        ("mixed", "length_scale", "--length-scale", "scalar-linear"),
        ("scalar-linear", "q", "--q", "mixed"),
        ("scalar-linear", "b", "--b", "mixed"),
        ("scalar-linear", "beta", "--beta", "mixed"),
        ("scalar-linear", "V0", "--V0", "mixed"),
    ])
    def test_other_models_coupling_exit_2(self, capsys, tmp_path, command, model, key, flag,
                                          owner):
        argv = (command, "--model", model, *self.REQUIRED[model],
                *self.EXTRA.get((model, command), ()))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}=0.5\n")
        for given in ((flag, "0.5"), ("--config", str(cfg))):
            code, out, err = run(capsys, *argv, *given)
            assert (code, out) == (2, "")
            assert err == f"error: {flag} applies to the {owner} model only\n"
