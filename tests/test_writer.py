"""The table writers of ``run --out`` and ``sweep``.

``sweep`` writes its rows by ``repr`` at any grid size, each distinct
nonzero float of a block spelled once through a memo (``cli._Spelled``)
and the int crossings outside it. ``run --out``
writes through ``cli._write_table``, whose cells come from orjson at
every table size. A float is plain when it is 0 or ``1e-4 <= |x| <
1e16``; orjson spells a plain float as ``repr`` does, and every other
float (nan and the infinities too) is written from its value by
``repr``. Plainness is found once per table, so the two cell functions
take it as an argument, and ``cells`` finds it as the writer does. CSV
goes by rows: given each row's plainness, each run of plain rows of a
stacked block of the 13 float columns is one orjson dump and every other
run is ``repr`` of its rows, and each row's closing ``]`` and the two
bytes after it are rewritten in place as ``,``, its flag and a newline
(``cli._csv_rows``); ``TestCsvRowEnds`` puts runs, flags and block ends
where that could slip by a byte. JSON goes by column blocks, whose non-plain
cells are patched at the indices given (``cli._column_cells``), and whose
flag cells come from the flags' nonzero indices; the cases at the block
edges check each block's share of the table-wide indices, mask and flags.
Either way every cell must read as ``repr`` spells it (ints as ints,
non-finite floats as the format spells them), and the file must be
byte-identical to the row-template writer the blocked one replaced
(``helpers.template_table_bytes``). The demos' files are the same under
every BLAS kernel, and their digests are stored here, so that a
host-dependent change to any cell shows.
"""

import csv
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import phaselab as pl
from helpers import RUN_FIELDS, reference_sweep_rows, reference_table_bytes, template_table_bytes
from phaselab import cli

B = cli._BLOCK_ROWS
DEMOS = os.path.join(os.path.dirname(__file__), "..", "demos", "schedules")
DEMO_NAMES = ["mes_minus", "mes_plus", "partial_z_turn"]
FORMATS = ("csv", "json")


def oracle_cell(x, fmt) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if fmt == "json" and not math.isfinite(x):
        return "null" if math.isnan(x) else json.dumps(x)
    return repr(x)


def orjson_dumps():
    """The ``dumps`` that ``cli._write_table`` passes to its cell helpers."""
    import orjson

    return functools.partial(orjson.dumps, option=orjson.OPT_SERIALIZE_NUMPY)


def paths():
    return [("fast", orjson_dumps())]


def cells(values, fmt, dumps, column=1):
    """The cells the writer makes of ``values``: JSON's column function on
    their array, or CSV's row function on a ``(len(values), 13)`` float
    block holding them in ``column``, its other cells plain, beside flags
    of 1; ``column`` 13 is the flags, beside a plain block. Either gets the
    plainness ``cli._write_table`` finds once per table: the non-plain
    indices of a float column, none of an int one."""
    values = np.asarray(values)
    bad = (~cli._plain(values)).nonzero()[0] if values.dtype.kind == "f" else np.empty(0, int)
    if fmt == "json":
        return cli._column_cells(values, bad, dumps)
    block = np.full((len(values), 13), 0.5)
    flags = np.ones(len(values), dtype=np.int64)
    if column == 13:
        flags = values
    else:
        block[:, column] = values
    plain = np.ones(len(values), dtype=bool)
    plain[bad] = False
    rows = bytes(cli._csv_rows(block, flags, plain, dumps)).decode().splitlines()
    return [line.split(",")[column] for line in rows]


def neighbours(x, n=40):
    """``x`` and its ``n`` float neighbours on either side."""
    out = [x]
    lo = hi = x
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


CORPUS = [
    *neighbours(1e-5), *neighbours(1e-4), *neighbours(1e16),
    *neighbours(-1e-5), *neighbours(-1e-4), *neighbours(-1e16),
    5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 2.0**53, 0.0, -0.0, math.nan, math.inf, -math.inf,
]
INTS = [0, 1, -1, 2**53, 2**63 - 1, -(2**63)]
# the CSV row function's int column is the 0/1 crossing flags
FLAGS = [0, 1]


def test_orjson_is_installed():
    # a runtime dependency: run --out writes every table through it
    assert orjson_dumps()(np.array([0.5, 1.0])) == b"[0.5,1.0]"


class TestCells:
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("path,dumps", paths())
    def test_corpus(self, fmt, path, dumps):
        want = [oracle_cell(x, fmt) for x in CORPUS]
        assert cells(CORPUS, fmt, dumps) == want
        ints = INTS if fmt == "json" else FLAGS
        assert cells(np.array(ints), fmt, dumps, column=13) == [str(i) for i in ints]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64), st.sampled_from(FORMATS))
    def test_floats_read_as_repr(self, values, fmt):
        want = [oracle_cell(x, fmt) for x in values]
        for _, dumps in paths():
            assert cells(values, fmt, dumps) == want

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=64),
           st.sampled_from(FORMATS))
    def test_int_columns_read_as_ints(self, values, fmt):
        if fmt == "csv":  # into the row function's range, the flags
            values = [v & 1 for v in values]
        for _, dumps in paths():
            got = cells(np.array(values, dtype=np.int64), fmt, dumps, column=13)
            assert got == [str(v) for v in values]

    def test_run_columns_are_c_contiguous(self):
        # orjson takes only C-contiguous arrays; the ball axes are rows
        path = os.path.join(DEMOS, "mes_minus.sched")
        with open(path, encoding="utf-8") as fh:
            series = pl.phase_samples(pl.parse_schedule(fh.read()), 20)
        for name in RUN_FIELDS:
            assert getattr(series, name).flags.c_contiguous, name

    def test_big_values_in_positional_notation(self):
        # a formatter that writes 1e16 and up positionally, as orjson may;
        # in CSV the rows holding them never reach it
        def dumps(block):
            return repr(np.vectorize(lambda x: format(x, ".1f"))(block).tolist()).replace(
                "'", "").replace(", ", ",").encode()

        values = [1e16, -2.5e16, 1.7976931348623157e308, 0.5]
        want = [repr(x) for x in values]
        for fmt in FORMATS:
            assert cells(values, fmt, dumps) == want

    @pytest.mark.parametrize("token,want", [
        ("10000000000000000.0", "1e+16"),
        ("-12345678901234568.0", "-1.2345678901234568e+16"),
        ("1000000000000000.0", "1000000000000000.0"),
        ("-9999999999999998.0", "-9999999999999998.0"),
        ("0.00001", "1e-05"),
        ("-0.000015", "-1.5e-05"),
        ("1.5e-5", "1.5e-05"),
        ("1e16", "1e+16"),
        ("0.0001", "0.0001"),
        ("-0.0", "-0.0"),
        ("null", "null"),
    ])
    def test_respelling_takes_any_notation(self, token, want):
        # a formatter that spells the value as ``token``: a plain float's
        # token is kept, any other is respelled from the value, whatever
        # its notation (JSON, where nan is ``null``)
        value = math.nan if token == "null" else float(token)

        def dumps(block):
            return f"[{token},0.5,{token}]".encode()

        assert cells(np.array([value, 0.5, value]), "json", dumps) == [want, "0.5", want]

    @pytest.mark.parametrize("x,plain", [
        *[(edge * sign, True) for edge in (1e-4, math.nextafter(1e16, 0.0)) for sign in (1, -1)],
        *[(edge * sign, False) for edge in (math.nextafter(1e-4, 0.0), 1e16) for sign in (1, -1)],
        (math.nextafter(1e-4, 1.0), True), (-math.nextafter(1e-4, 1.0), True),
        (math.nextafter(1e16, math.inf), False), (-math.nextafter(1e16, math.inf), False),
        (0.0, True), (-0.0, True), (5e-324, False), (-5e-324, False),
        (math.nan, False), (math.inf, False), (-math.inf, False),
    ])
    def test_plainness_at_its_edges(self, x, plain):
        assert cli._plain(x) == plain
        assert cli._plain(np.array([x, x])).tolist() == [plain, plain]
        if plain:  # orjson's own spelling is kept
            assert orjson_dumps()(x).decode() == repr(x)
        for fmt in FORMATS:  # and every other one written by repr
            assert cells([0.5, x, 0.5], fmt, orjson_dumps())[1] == oracle_cell(x, fmt)


def series_of(cols):
    """A :class:`PhaseSeries` of the 14 ``run --out`` columns ``cols``; the
    writer reads no ``crossings``."""
    return pl.PhaseSeries(*cols, None)


def table(rows, rng):
    """``run --out``-shaped columns, 13 float arrays and a 0/1 int array,
    with nan, inf and -inf in the first, a middle (6) and the last float
    column."""
    scale = 10.0 ** rng.integers(-8, 18, size=(13, rows))
    floats = rng.standard_normal((13, rows)) * scale
    if rows:
        for c in (0, 6, 12):
            floats[c, rng.integers(0, rows, size=3)] = [math.nan, math.inf, -math.inf]
    return [*floats, rng.integers(0, 2, size=rows)]


class TestWriter:
    @pytest.mark.parametrize("rows", [0, 1, B - 1, B, B + 1])
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_matches_the_row_template_writer(self, tmp_path, rows, fmt):
        cols = table(rows, np.random.default_rng(rows))
        out = tmp_path / f"t.{fmt}"
        cli._write_table(out, series_of(cols), fmt)
        assert out.read_bytes() == template_table_bytes(RUN_FIELDS, cols, fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_flags_and_non_plain_cells_at_block_edges(self, tmp_path, fmt):
        # the first and last row of a table and of its blocks, where a
        # block's share of the table-wide indices and masks begins and ends
        rows = 2 * B + 5
        edges = [0, B - 1, B, 2 * B, rows - 1]
        floats = np.full((13, rows), 0.25)
        for k, r in enumerate(edges):  # each value in every float column
            floats[:, r] = np.roll(np.resize([math.nan, math.inf, -math.inf, 1e-5, 1e16], 13), k)
        flags = np.zeros(rows, dtype=np.int64)
        flags[edges] = 1
        cols = [*floats, flags]
        out = tmp_path / f"t.{fmt}"
        cli._write_table(out, series_of(cols), fmt)
        assert out.read_bytes() == template_table_bytes(RUN_FIELDS, cols, fmt)


def plain_table(rows, seed=0):
    """The 13 float columns, all cells plain, and 0 flags of a ``run
    --out``-shaped table."""
    rng = np.random.default_rng(seed)
    floats = rng.uniform(1e-3, 1e3, (13, rows)) * rng.choice([-1.0, 1.0], (13, rows))
    return floats, np.zeros(rows, dtype=np.int64)


class TestCsvRowEnds:
    """A CSV row is ended in its run's text in place: its ``]`` and the two
    bytes after it become ``,``, its flag and a newline. These put runs,
    flags and block ends where that could slip by a byte."""

    def check(self, tmp_path, floats, flags):
        cols = [*floats, flags]
        out = tmp_path / "t.csv"
        cli._write_table(out, series_of(cols), "csv")
        assert out.read_bytes() == template_table_bytes(RUN_FIELDS, cols, "csv")

    def test_one_row_runs(self, tmp_path):
        # plain and non-plain rows alternate on every row of three blocks
        floats, flags = plain_table(2 * B + 3)
        floats[5, 1::2] = math.nan
        flags[::3] = 1
        self.check(tmp_path, floats, flags)

    def test_non_plain_run_ending_a_block(self, tmp_path):
        floats, flags = plain_table(2 * B)
        floats[0, B - 3:B] = 1e-5
        floats[12, 2 * B - 1] = math.inf
        flags[[B - 1, 2 * B - 1]] = 1
        self.check(tmp_path, floats, flags)

    @pytest.mark.parametrize("last_plain", [True, False])
    @pytest.mark.parametrize("rows", [1, B + 1])
    def test_table_sizes(self, tmp_path, rows, last_plain):
        floats, flags = plain_table(rows, rows)
        if not last_plain:
            floats[3, -1] = -math.inf
        flags[-1] = 1
        self.check(tmp_path, floats, flags)

    def test_flag_on_each_runs_first_and_last_row(self, tmp_path):
        rows = 2 * B + 5
        floats, flags = plain_table(rows)
        bad = np.zeros(rows, dtype=bool)
        for lo, hi in [(3, 7), (10, 11), (B - 2, B + 2), (2 * B, rows)]:
            bad[lo:hi] = True
        floats[7, bad] = 5e-324
        # a run begins where plainness changes and at each block's first row
        starts = sorted({0, *range(0, rows, B), *((bad[1:] != bad[:-1]).nonzero()[0] + 1)})
        flags[starts] = 1
        flags[[s - 1 for s in starts[1:]] + [rows - 1]] = 1
        assert 0 < flags.sum() < rows
        self.check(tmp_path, floats, flags)

    def test_spare_byte_is_never_read(self, tmp_path):
        # it is uninitialised; here it holds a "]", which would end one more row
        floats, flags = plain_table(B + 1)
        floats[2, ::5] = math.nan
        empty = np.empty
        with mock.patch.object(np, "empty", lambda *a, **k: np.full_like(empty(*a, **k), ord("]"))):
            self.check(tmp_path, floats, flags)

    @pytest.mark.parametrize("plain", [True, False])
    @pytest.mark.parametrize("flag", [2, -1, 256, -(2**63)])
    def test_flag_other_than_0_or_1_raises(self, flag, plain):
        # 256 + ord("0") would wrap to the byte "0"
        block = np.full((3, 13), 0.5 if plain else math.nan)
        with pytest.raises(ValueError, match="0 or 1"):
            cli._csv_rows(block, np.array([0, flag, 1]), np.full(3, plain), orjson_dumps())


# a product state turned half way about x: its last sample is orthogonal to
# the first, so its phases there are NaN
HALF_TURN = "phaselab-schedule v1\nstate schmidt 1 0\nsegment 1 0 0 3.141592653589793\n"


@pytest.mark.parametrize("steps", [2, 1025, 2000])
@pytest.mark.parametrize("name", [*DEMO_NAMES, "half_turn"])
def test_csv_and_json_hold_the_same_values(tmp_path, capsys, name, steps):
    # read back by the stdlib csv and json modules alone: each CSV float
    # cell is repr of the JSON number (nan where JSON has null), each flag
    # the JSON int; at 1025 steps the four-segment demos end in a one-row block
    path = os.path.join(DEMOS, name + ".sched")
    if name == "half_turn":
        path = tmp_path / "s.sched"
        path.write_text(HALF_TURN)
    for fmt in FORMATS:
        assert cli.main(["run", str(path), "--steps", str(steps), "--format", fmt,
                         "--out", str(tmp_path / f"s.{fmt}")]) == 0
    with open(tmp_path / "s.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    with open(tmp_path / "s.json", encoding="utf-8") as fh:
        objects = json.load(fh)
    assert header == RUN_FIELDS and len(rows) == len(objects) > 0
    for row, obj in zip(rows, objects):
        assert list(obj) == header
        *values, flag = obj.values()
        assert row[:-1] == ["nan" if v is None else repr(v) for v in values]
        assert type(flag) is int and row[-1] == str(flag) and flag in (0, 1)
    if name == "half_turn":
        assert any(None in obj.values() for obj in objects)


NON_PLAIN = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e16, -1e16, 5e-324,
                     math.nextafter(1e-4, 0.0), -1.7976931348623157e308]),
    st.floats().filter(lambda x: not cli._plain(x)),
)
PLACEMENTS = {
    "block edges": lambda rows, start: [0, B - 1, B, 2 * B - 1, rows - 1],
    "consecutive": lambda rows, start: range(start, start + 4),
    "every row": lambda rows, start: range(rows),
    "only row": lambda rows, start: [0],
}


@st.composite
def run_shaped_tables(draw):
    """``run --out``-shaped columns, 13 float arrays and a 0/1 int array,
    whose cells are plain except the drawn ones, placed on the rows of a
    placement."""
    placement = draw(st.sampled_from(sorted(PLACEMENTS)))
    rows = 1 if placement == "only row" else draw(st.sampled_from([2, 5, B, B + 1, 2 * B + 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    floats = rng.uniform(1e-4, 1.0, (13, rows)) * 10.0 ** rng.integers(0, 16, (13, rows))
    floats *= rng.choice([-1.0, 1.0], (13, rows))
    floats[rng.integers(0, 13, rows), np.arange(rows)] = rng.choice([0.0, -0.0], rows)
    values = draw(st.lists(NON_PLAIN, min_size=1, max_size=8))
    start = draw(st.integers(0, rows - 1))
    for n, r in enumerate(PLACEMENTS[placement](rows, start)):
        if r < rows:
            floats[rng.integers(0, 13), r] = values[n % len(values)]
    return [*floats, rng.integers(0, 2, rows)]


class TestRunShapedTables:
    @settings(max_examples=60, deadline=None)
    @given(run_shaped_tables())
    def test_match_the_row_template_writer(self, cols):
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(cli, "_csv_rows", wraps=cli._csv_rows) as by_rows:
            for fmt in FORMATS:
                out = os.path.join(tmp, f"t.{fmt}")
                cli._write_table(out, series_of(cols), fmt)
                with open(out, "rb") as fh:
                    assert fh.read() == template_table_bytes(RUN_FIELDS, cols, fmt)
                assert by_rows.called == (fmt == "csv")  # JSON goes by column blocks
                by_rows.reset_mock()

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("name", DEMO_NAMES)
    def test_run_out_of_each_demo(self, tmp_path, capsys, name, fmt):
        path = os.path.join(DEMOS, name + ".sched")
        with open(path, encoding="utf-8") as fh:
            sched = pl.parse_schedule(fh.read())
        series = pl.phase_samples(sched, pl.DEFAULT_SAMPLES)
        cols = [getattr(series, f) for f in RUN_FIELDS]
        out = tmp_path / f"series.{fmt}"
        with mock.patch.object(cli, "_csv_rows", wraps=cli._csv_rows) as by_rows:
            assert cli.main(["run", path, "--out", str(out), "--format", fmt]) == 0
        assert by_rows.called == (fmt == "csv")
        assert out.read_bytes() == template_table_bytes(RUN_FIELDS, cols, fmt)


# SHA-256 of each demo's run --out file at the default --steps
DEMO_DIGESTS = {
    "mes_minus.csv": "16c6ae37794e7ad4117e57e6f176cac56604cef277b60941afc5a4bfa99a521e",
    "mes_minus.json": "c02de7a4ea85e5a78f36c38e7618cedc4523be8b8f7cd08b37fa088beb8b0c12",
    "mes_plus.csv": "d893909bbdb35bc5fb34ff1bdbef3506fd463e428131ba0bbfd8e36c3a7b5203",
    "mes_plus.json": "20ee923af3cef11a5f915555df974db62c82214b6e92743d42357929a3343abc",
    "partial_z_turn.csv": "c20648d2839d91a7cac4ca6ae88e3f099cf15806f0776f667b835e575115d504",
    "partial_z_turn.json": "f98e7dd5c3723e753a45b104569303c932c34046a5d8424407f751fd63ee4d5b",
}

# run --out on each demo, CSV and JSON, in a fresh interpreter; argv is the
# output directory; prints each file's SHA-256 as JSON
DIGEST_SCRIPT = """
import contextlib, hashlib, io, json, os, sys
from phaselab.cli import main
digests = {}
for name in NAMES:
    for fmt in ("csv", "json"):
        out = os.path.join(sys.argv[1], name + "." + fmt)
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", os.path.join(DEMOS, name + ".sched"), "--out", out, "--format", fmt])
        assert code == 0, code
        with open(out, "rb") as fh:
            digests[name + "." + fmt] = hashlib.sha256(fh.read()).hexdigest()
print(json.dumps(digests))
"""


def demo_digests(tmp_path, coretype=None) -> dict:
    """:data:`DIGEST_SCRIPT`'s digests, with OpenBLAS's kernel forced to
    ``coretype`` (None: the one it picks for the CPU)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    out = tmp_path / (coretype or "default")
    out.mkdir()
    code = f"NAMES = {DEMO_NAMES!r}\nDEMOS = {os.path.abspath(DEMOS)!r}\n" + DIGEST_SCRIPT
    proc = subprocess.run([sys.executable, "-c", code, str(out)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


class TestDemoBytes:
    """Every ``run --out`` cell is a scalar formula evaluated elementwise in
    a fixed order, so no BLAS kernel, which numpy's OpenBLAS picks by the
    CPU, can move a byte."""

    def test_same_bytes_under_each_blas_kernel(self, tmp_path):
        default = demo_digests(tmp_path)
        assert len(default) == 6
        for coretype in ("Haswell", "Nehalem"):
            assert demo_digests(tmp_path, coretype) == default, coretype

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("name", DEMO_NAMES)
    def test_files_match_their_stored_digests(self, tmp_path, capsys, name, fmt):
        out = tmp_path / f"{name}.{fmt}"
        path = os.path.join(DEMOS, name + ".sched")
        assert cli.main(["run", path, "--out", str(out), "--format", fmt]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == DEMO_DIGESTS[f"{name}.{fmt}"]


# floats that a memo of repr could mix up: zeros of either sign, which
# compare equal, nan, which equals nothing, the infinities and subnormals
MEMO_SPECIALS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                 2.2250738585072014e-308, 1e-310, 1.0, -1.0]
MEMO_VALUES = st.one_of(st.sampled_from(MEMO_SPECIALS), st.floats())


class TestSweepTable:
    """``sweep`` writes its rows by ``repr`` at any grid size, with nan for
    the closure residual of a degenerate (lambda0 = 0.5) row. Each block's
    floats are spelled through one memo of ``repr`` (``cli._Spelled``),
    which stores no zero; the int crossings are spelled outside it."""

    @pytest.mark.parametrize("lam,theta,axis,turns", [
        ("0:1:11", f"0:{math.pi!r}:9", "z", 1),  # the README grid, one block
        # 0.0 and -0.0 in phi_geo, and the crossings 0 beside lambda0 0.0
        ("0:1:11", f"0:{math.pi!r}:9", "z", 3),
        ("0:1:33", "-1:1:33", "x", 2),  # 1089 rows, past one block
        ("0:1:51", f"0:{math.pi!r}:51", "x", 3),  # 18207 cells
    ])
    def test_matches_the_reference_writer(self, tmp_path, capsys, lam, theta, axis, turns):
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--lambda0", lam, "--theta", theta, "--axis", axis,
                         "--turns", str(turns), "--out", str(out)]) == 0
        (l0, l1, n), (t0, t1, m) = (spec.split(":") for spec in (lam, theta))
        rows = reference_sweep_rows(np.linspace(float(l0), float(l1), int(n)),
                                    np.linspace(float(t0), float(t1), int(m)),
                                    {"x": (1.0, 0.0, 0.0), "z": (0.0, 0.0, 1.0)}[axis], turns)
        got = out.read_bytes()
        assert got == reference_table_bytes(cli.SWEEP_FIELDS, rows)
        assert any(math.isnan(row[-1]) for row in rows) and b",nan\n" in got

    @settings(max_examples=300, deadline=None)
    @given(st.lists(MEMO_VALUES, min_size=1, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=30)))
    @example([0.0, -0.0, 0.0])
    @example([-0.0, 0.0, -0.0])
    @example([math.nan, math.nan, 5e-324, 5e-324, -math.inf, math.inf])
    def test_memo_spells_as_repr(self, values):
        # drawn from a small pool, so that values repeat within one memo
        spell = cli._Spelled().__getitem__
        assert [spell(x) for x in values] == [repr(x) for x in values]
