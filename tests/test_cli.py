"""Command-line interface: formats, exit codes, determinism."""

import argparse
import json
import math
import os
import warnings

import numpy as np
import pytest

import phaselab as pl
from helpers import RUN_FIELDS, reference_run_rows, reference_sweep_rows, reference_table_bytes
from phaselab import cli
from phaselab.cli import SWEEP_FIELDS, main

DEMO_SCHEDULES = os.path.join(os.path.dirname(__file__), "..", "demos", "schedules")

MES_MINUS = """phaselab-schedule v1
state schmidt 0.5 0.0
evolve-qubit 1
builtin minus
"""

MES_PLUS = """phaselab-schedule v1
state schmidt 0.5 0.0
evolve-qubit 1
builtin plus
"""

Z_TURN_PRODUCT = """phaselab-schedule v1
state schmidt 1 0
segment 0 0 1 6.283185307179586
"""

LAM03_Z = """phaselab-schedule v1
state schmidt 0.3 0.0
evolve-qubit 1
segment 0 0 1 6.283185307179586
"""

EMPTY = """phaselab-schedule v1
state schmidt 0.3 0.0
evolve-qubit 1
"""

NOT_CYCLIC = """phaselab-schedule v1
state schmidt 0.3 0.7
evolve-qubit 1
segment 1 0 0 1.0
"""

BAD_LINE = """phaselab-schedule v1
state schmidt 0.5 0.0
segment 0 0 one 1.0
"""


# Cyclic schedules of segment pairs ``a`` and ``2 pi - a`` about one axis,
# as ``(lambda0, theta, qubit, pairs)``, and their ``breakdown`` stdout as
# Python 3.11 prints it. Every sum along a schedule is a left-to-right fold,
# so every Python prints these bytes; a float ``sum``, compensated from 3.12
# on, moves the dynamical and geometric phases by ulps there.
FOLD_CASES = [
    ((0.79, 2.34, 1, [((0.2, -0.1, -0.7), 5.84), ((-1.0, 0.5, 0.9), 1.16)]),
     '{"total": 3.3776359857941453e-17, "dynamical": 0.14325040155983082, '
     '"geometric": -0.1432504015598308, "crossings": 0, "parity": "even", '
     '"degenerate": false, "closure_residual": 0.0}\n'),
    ((0.31, 5.89, 2, [((0.3, 0.2, -1.0), 3.37), ((-0.5, 0.3, -0.1), 4.94),
                      ((0.3, 0.6, -0.3), 3.94)]),
     '{"total": 3.141592653589793, "dynamical": -1.8121963179878655, '
     '"geometric": -1.3293963356019276, "crossings": 0, "parity": "even", '
     '"degenerate": false, "closure_residual": 0.0}\n'),
    ((0.62, 0.43, 2, [((-0.7, -0.5, -0.4), 1.14), ((-0.4, -0.5, -0.0), 0.39),
                      ((0.8, -0.3, 0.9), 4.19)]),
     '{"total": 3.141592653589793, "dynamical": -0.22891175633175953, '
     '"geometric": -2.9126808972580336, "crossings": 1, "parity": "odd", '
     '"degenerate": false, "closure_residual": 0.0}\n'),
]


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestRun:
    def test_minus_summary_and_csv(self, tmp_path, capsys):
        sched = write(tmp_path, "m.sched", MES_MINUS)
        out = tmp_path / "series.csv"
        assert main(["run", sched, "--steps", "400", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(RUN_FIELDS)
        assert len(lines) == 1 + 1 + 4 * 399
        final = lines[-1].split(",")
        assert abs(float(final[3]) - math.pi) < 1e-6
        assert final[-1] in ("0", "1")
        captured = capsys.readouterr()
        assert "final total phase" in captured.out
        assert "crossings: 1 (odd)" in captured.out

    def test_segment_of_1e17_radians(self, tmp_path, capsys):
        # about 1.6e16 zeros, counted per segment rather than one by one
        sched = write(tmp_path, "long.sched", "phaselab-schedule v1\n"
                      "state schmidt 1 1.5707963267948966\nsegment 0 0 1 1e17\n")
        out = tmp_path / "series.csv"
        assert main(["run", sched, "--steps", "50", "--out", str(out)]) == 0
        count = int(capsys.readouterr().out.split("crossings: ")[1].split()[0])
        assert abs(count - 1e17 / (2 * math.pi)) <= 1.0
        assert [line[-1] for line in out.read_text().splitlines()[1:]] == ["0"] + ["1"] * 49

    def test_nan_serialized_in_csv(self, tmp_path):
        sched = write(tmp_path, "m.sched", MES_MINUS)
        out = tmp_path / "series.csv"
        main(["run", sched, "--steps", "400", "--out", str(out)])
        body = out.read_text()
        assert "nan" in body.split("\n", 1)[1]

    def test_empty_schedule_single_row(self, tmp_path):
        sched = write(tmp_path, "e.sched", EMPTY)
        out = tmp_path / "series.csv"
        assert main(["run", sched, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[3]) == 0.0

    def test_json_format(self, tmp_path):
        sched = write(tmp_path, "m.sched", MES_MINUS)
        out = tmp_path / "series.json"
        main(["run", sched, "--steps", "50", "--out", str(out), "--format", "json"])
        rows = json.loads(out.read_text())
        assert list(rows[0].keys()) == RUN_FIELDS
        assert any(r["phase_total_principal"] is None for r in rows)  # the border sample

    def test_not_cyclic_is_warning_not_error(self, tmp_path, capsys):
        sched = write(tmp_path, "n.sched", NOT_CYCLIC)
        assert main(["run", sched, "--steps", "50"]) == 0
        assert "not cyclic" in capsys.readouterr().err

    def test_determinism_byte_identical(self, tmp_path):
        sched = write(tmp_path, "l.sched", LAM03_Z)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", sched, "--steps", "300", "--out", str(out1)])
        main(["run", sched, "--steps", "300", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("builtin,want", [("minus", math.pi), ("plus", 0.0)])
    def test_partially_entangled_endpoints(self, tmp_path, builtin, want):
        text = ("phaselab-schedule v1\n"
                "state schmidt 0.4 0.0\n"
                f"builtin {builtin}\n")
        sched = write(tmp_path, "s.sched", text)
        out = tmp_path / "series.csv"
        assert main(["run", sched, "--steps", "2000", "--out", str(out)]) == 0
        final = float(out.read_text().splitlines()[-1].split(",")[3])
        assert abs(pl.principal(final - want)) < 1e-6


    def test_final_phase_of_minus_identity_matches_breakdown(self, tmp_path, capsys):
        # U_T = -I: np.angle of the final overlap is exactly -pi, which the
        # principal value in (-pi, pi] shows as pi, as breakdown does
        sched = write(tmp_path, "z.sched", Z_TURN_PRODUCT)
        assert main(["breakdown", sched]) == 0
        total = json.loads(capsys.readouterr().out)["total"]
        assert total == math.pi
        assert main(["run", sched]) == 0
        assert f"final total phase: {total!r}\n" in capsys.readouterr().out
        s = pl.parse_schedule(Z_TURN_PRODUCT)
        principal = pl.phase_samples(s).phase_total_principal
        assert np.all((-math.pi < principal) & (principal <= math.pi))

    @pytest.mark.parametrize("source", [
        "mes_minus", "mes_plus", "partial_z_turn",
        "state schmidt 0.3 0\nbuiltin plus\n", "state schmidt 0.3 0\nbuiltin minus\n",
    ])
    def test_last_phase_dyn_is_breakdowns_dynamical(self, tmp_path, capsys, source):
        # each segment end of the series is the core's dynamical fold, so the
        # last row carries breakdown's dynamical phase bit for bit
        if "\n" in source:
            sched = write(tmp_path, "s.sched", "phaselab-schedule v1\n" + source)
        else:
            sched = os.path.join(DEMO_SCHEDULES, source + ".sched")
        assert main(["breakdown", sched]) == 0
        dynamical = json.loads(capsys.readouterr().out)["dynamical"]
        out = tmp_path / "series.csv"
        assert main(["run", sched, "--out", str(out)]) == 0
        last = out.read_text().splitlines()[-1].split(",")
        assert last[RUN_FIELDS.index("phase_dyn")] == repr(dynamical)

    def test_orthogonal_final_state_summary_is_nan(self, tmp_path, capsys):
        # a half turn of a maximally entangled state ends orthogonal to its start
        sched = write(tmp_path, "h.sched", "phaselab-schedule v1\nstate schmidt 0.5 0\n"
                      "segment 0 0 1 3.141592653589793\n")
        assert main(["run", sched]) == 0
        captured = capsys.readouterr()
        assert captured.out == "final total phase: nan\ncrossings: 0 (even)\n"
        assert captured.err == ("warning: schedule is not cyclic "
                                "(final overlap magnitude 0.000000000)\n")

    def test_principal_column_in_range(self, tmp_path):
        sched = write(tmp_path, "m.sched", MES_MINUS)
        out = tmp_path / "series.csv"
        assert main(["run", sched, "--out", str(out)]) == 0
        cells = [float(line.split(",")[3]) for line in out.read_text().splitlines()[1:]]
        defined = [x for x in cells if not math.isnan(x)]
        assert math.pi in defined
        assert all(-math.pi < x <= math.pi for x in defined)


class TestBreakdown:
    def test_mes_minus_json(self, tmp_path, capsys):
        sched = write(tmp_path, "m.sched", MES_MINUS)
        assert main(["breakdown", sched, "--steps", "400"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"total", "dynamical", "geometric", "crossings",
                                "parity", "degenerate", "closure_residual"}
        assert abs(payload["total"] - math.pi) < 1e-9
        assert abs(payload["dynamical"]) < 1e-12
        assert payload["geometric"] == 0.0
        assert payload["crossings"] == 1
        assert payload["parity"] == "odd"
        assert payload["degenerate"] is True
        assert payload["closure_residual"] is None

    def test_fixed_axis_values(self, tmp_path, capsys):
        sched = write(tmp_path, "l.sched", LAM03_Z)
        assert main(["breakdown", sched]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["total"] - math.pi) < 1e-9
        assert abs(payload["dynamical"] - 0.4 * math.pi) < 1e-9
        assert abs(payload["geometric"] - 0.6 * math.pi) < 1e-4
        assert payload["closure_residual"] < 1e-4

    def test_product_equator(self, tmp_path, capsys):
        text = ("phaselab-schedule v1\n"
                "state schmidt 1.0 1.5707963267948966\n"
                "segment 0 0 1 6.283185307179586\n")
        sched = write(tmp_path, "p.sched", text)
        assert main(["breakdown", sched]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["dynamical"]) < 1e-9
        assert abs(abs(payload["geometric"]) - math.pi) < 1e-4

    def test_not_cyclic_exit_3(self, tmp_path, capsys):
        sched = write(tmp_path, "n.sched", NOT_CYCLIC)
        assert main(["breakdown", sched]) == 3
        assert "not cyclic" in capsys.readouterr().err.lower()

    def test_no_segments_prints_a_float_dynamical_phase(self, tmp_path, capsys):
        sched = write(tmp_path, "e.sched", EMPTY)
        assert main(["breakdown", sched]) == 0
        out = capsys.readouterr().out
        assert '"dynamical": 0.0,' in out
        assert type(json.loads(out)["dynamical"]) is float

    @pytest.mark.parametrize("case, want", FOLD_CASES)
    def test_cyclic_pairs_print_the_same_bytes_on_every_python(self, tmp_path, capsys,
                                                               case, want):
        lam, theta, qubit, pairs = case
        lines = [pl.HEADER, f"state schmidt {lam!r} {theta!r}", f"evolve-qubit {qubit}"]
        for axis, a in pairs:
            lines += [f"segment {' '.join(map(repr, axis))} {d!r}" for d in (a, 2 * math.pi - a)]
        sched = write(tmp_path, "f.sched", "\n".join(lines) + "\n")
        assert main(["breakdown", sched]) == 0
        assert capsys.readouterr().out == want

    def test_matches_run_final_row(self, tmp_path, capsys):
        sched = write(tmp_path, "l.sched", LAM03_Z)
        out = tmp_path / "series.csv"
        main(["run", sched, "--steps", "200", "--out", str(out)])
        capsys.readouterr()
        main(["breakdown", sched, "--steps", "200"])
        payload = json.loads(capsys.readouterr().out)
        final = float(out.read_text().splitlines()[-1].split(",")[3])
        assert abs(final - payload["total"]) < 1e-10


class TestSweep:
    def test_grid_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--lambda0", "0:1:3", "--theta",
                     "0:3.141592653589793:3", "--out", str(out), "--steps", "400"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_FIELDS)
        assert len(lines) == 1 + 9
        # lambda0-major ordering
        lams = [float(l.split(",")[0]) for l in lines[1:]]
        assert lams == sorted(lams)
        # the middle row block is the degenerate maximally entangled case
        mid = [l for l in lines[1:] if l.startswith("0.5,")]
        assert len(mid) == 3
        for row in mid:
            vals = row.split(",")
            assert float(vals[4]) == 0.0  # flagged geometric phase
            assert vals[6] == "nan"
            assert abs(float(vals[3])) < 1e-12  # no dynamical phase either
        # product rows oscillate with theta exactly as for a single qubit
        for lam_text, sign in (("0.0,", -1.0), ("1.0,", 1.0)):
            for row in (l for l in lines[1:] if l.startswith(lam_text)):
                vals = [float(x) for x in row.split(",")[:5]]
                theta, geo = vals[1], vals[4]
                want = -math.pi * (1 - sign * math.cos(theta))
                assert abs(pl.principal(geo - want)) < 1e-4

    def test_identity_sum_on_grid(self, tmp_path):
        # non-degenerate grid: every row obeys phi_geo + phi_dyn = pi mod 2pi
        out = tmp_path / "sweep.csv"
        main(["sweep", "--lambda0", "0.1:0.7:3", "--theta", "0.2:2.9:3",
              "--out", str(out), "--steps", "400"])
        for line in out.read_text().splitlines()[1:]:
            vals = [float(x) for x in line.split(",")[:7]]
            _, _, tot, dyn, geo, _, resid = vals
            assert abs(pl.principal(geo + dyn - math.pi)) < 1e-4
            assert abs(pl.principal(tot - math.pi)) < 1e-9
            assert resid < 1e-4

    def test_malformed_range_exit_2(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--lambda0", "0..1", "--theta", "0:1:2",
                     "--out", str(out)]) == 2

    def test_lambda_outside_domain_exit_2(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--lambda0", "0:2:3", "--theta", "0:1:2",
                     "--out", str(out)]) == 2

    @pytest.mark.parametrize("axis", ["x", "z"])
    def test_readme_grid_three_turns_closes(self, tmp_path, axis):
        # U_T = -I on every row; the decomposition must still close. The
        # exact form closes by construction up to rounding, so this guards
        # the branch choice; the sampled-oracle test in test_phases guards
        # the geometric value itself
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--lambda0", "0:1:11", "--theta",
                     "0:3.141592653589793:9", "--axis", axis, "--turns", "3",
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 99
        for row in rows:
            if float(row[0]) != 0.5:
                assert float(row[6]) <= 1e-12, row

    def test_many_turns_count_every_turn(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--lambda0", "0.2:0.2:1", "--theta",
                     "1.5707963267948966:1.5707963267948966:1", "--axis", "z",
                     "--turns", "100000000", "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[5] == "100000000"

    @pytest.mark.parametrize("lam", ["0:1_0:2", "0:\u0661:2", "0:1:1_1", "0:1:\u0662"],
                             ids=["end-underscore", "end-unicode", "count-underscore",
                                  "count-unicode"])
    def test_range_outside_the_number_grammar_exit_2(self, tmp_path, capsys, lam):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--lambda0", lam, "--theta", "0:1:2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: malformed lambda0 range {lam!r}; expected a:b:n\n")
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--turns", "--steps"])
    @pytest.mark.parametrize("token", ["1_0", "\u0661", "\uff13"])
    def test_integer_option_outside_the_grammar_is_usage_error(self, tmp_path, capsys,
                                                                option, token):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--lambda0", "0:1:2", "--theta", "0:1:2", option, token,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"usage error: argument {option}: not an integer: {token!r}\n")

    def test_schedule_number_outside_the_grammar_exit_2(self, tmp_path, capsys):
        sched = write(tmp_path, "u.sched",
                      "phaselab-schedule v1\nstate schmidt \u0661 0\nsegment 0 0 1 1_0\n")
        assert main(["breakdown", sched]) == 2
        assert capsys.readouterr().err == "error: line 2: not a number: '\u0661'\n"

    def test_non_finite_range_exit_2(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--lambda0", "0:1:2", "--theta", "0:inf:2",
                     "--out", str(out)]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--lambda0", "0.2:0.8:2", "--theta", "0:2:2", "--steps", "300"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("turns", [10**308, 10**400], ids=["1e308", "1e400"])
    def test_turns_overflowing_a_float_is_validation_error(self, tmp_path, capsys, turns):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--lambda0", "0:1:2", "--theta", "0:1:2",
                     "--turns", str(turns), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: turns too large: 2 pi turns overflows a float\n")
        assert not out.exists()

    def test_range_may_start_with_a_minus_sign(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--lambda0", "0:1:2", "--theta", "-1:1:3", "--out", str(a)]) == 0
        assert main(["sweep", "--lambda0", "0:1:2", "--theta=-1:1:3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()
        assert main(["sweep", "--lambda0", "0:1:2", "--theta", "-x", "--out", str(a)]) == 1
        assert capsys.readouterr().err == "usage error: argument --theta: expected one argument\n"

    @pytest.mark.parametrize("args,message", [
        (["--lambda0", "0:1:2", "--turns", "0"], "turns must be >= 1"),
        (["--lambda0", "0:1:0"], "lambda0 range count must be >= 1"),
    ], ids=["turns", "lambda0-count"])
    def test_value_out_of_range_is_validation_error(self, tmp_path, capsys, args, message):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", *args, "--theta", "0:1:2", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_range_spanning_past_float_max_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--lambda0", "0:1:2", "--theta=-1e308:1e308:3", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: theta range '-1e308:1e308:3' spans past the largest float\n")


class TestReadout:
    def test_identity_schedule(self, tmp_path, capsys):
        sched = write(tmp_path, "e.sched", EMPTY)
        assert main(["readout", sched]) == 0
        out = capsys.readouterr().out
        assert "click probability: 0.0" in out

    def test_mes_minus_certain_click(self, tmp_path, capsys):
        sched = write(tmp_path, "m.sched", MES_MINUS)
        assert main(["readout", sched]) == 0
        out = capsys.readouterr().out
        assert "click probability: 1.0" in out
        assert "|cos(total phase)|: 1.0" in out

    def test_mes_plus_no_click(self, tmp_path, capsys):
        sched = write(tmp_path, "p.sched", MES_PLUS)
        assert main(["readout", sched]) == 0
        assert "click probability: 0.0" in capsys.readouterr().out

    def test_not_cyclic_warns_as_run_does(self, tmp_path, capsys):
        # the second line reads |Re <s0|U|s0>|, which is |cos(total phase)|
        # only on a cyclic schedule; here cos(arg <s0|U|s0>) is 0.990
        sched = write(tmp_path, "n.sched", NOT_CYCLIC)
        assert main(["readout", sched]) == 0
        readout = capsys.readouterr()
        assert readout.out == ("click probability: 0.06120871905481362\n"
                               "|cos(total phase)|: 0.8775825618903728\n")
        assert readout.err == ("warning: schedule is not cyclic "
                               "(final overlap magnitude 0.886235703)\n")
        assert main(["run", sched, "--steps", "50"]) == 0
        assert capsys.readouterr().err == readout.err

    def test_cyclic_gives_no_warning(self, tmp_path, capsys):
        sched = write(tmp_path, "m.sched", MES_MINUS)
        assert main(["readout", sched]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv,code", [
        (["readout", "{sched}"], 0),
        (["run", "{sched}"], 0),
        (["run", "{sched}", "--steps", "20", "--out", "{out}"], 0),
        (["breakdown", "{sched}"], 3),
    ])
    def test_one_boundary_record_per_command(self, tmp_path, capsys, monkeypatch, argv, code):
        # the warning, the probability and the summary share one record
        calls = []
        record = pl.core._quaternions

        def counted(segments):
            calls.append(segments)
            return record(segments)

        monkeypatch.setattr(pl.core, "_quaternions", counted)
        sched = write(tmp_path, "n.sched", NOT_CYCLIC)
        argv = [a.format(sched=sched, out=tmp_path / "series.csv") for a in argv]
        assert main(argv) == code
        assert len(calls) == 1

    @pytest.mark.parametrize("argv,summary", [
        (["run", "{sched}"], "crossings: 1 (odd)\n"),
        (["run", "{sched}", "--steps", "20", "--out", "{out}"], "crossings: 1 (odd)\n"),
        (["breakdown", "{sched}"], '"crossings": 1, "parity": "odd"'),
        (["sweep", "--lambda0", "0:1:3", "--theta", "0:1:2", "--out", "{out}"],
         "wrote 6 grid points"),
    ])
    def test_one_crossing_search_per_command(self, tmp_path, capsys, monkeypatch, argv,
                                             summary):
        # one scan per state: run --out counts its summary's crossings from
        # the series' zeros, and sweep makes one per grid point
        scans = 6 if argv[0] == "sweep" else 1
        calls = []
        scan = pl.core._scan

        def counted(rho, bounds):
            calls.append(bounds)
            return scan(rho, bounds)

        monkeypatch.setattr(pl.core, "_scan", counted)
        monkeypatch.setattr(cli, "_scan", counted)
        sched = write(tmp_path, "m.sched", MES_MINUS)
        argv = [a.format(sched=sched, out=tmp_path / "series.csv") for a in argv]
        assert main(argv) == 0
        assert len(calls) == scans
        assert summary in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["run", "{sched}"], ["breakdown", "{sched}"], ["readout", "{sched}"],
        ["sweep", "--lambda0", "0:1:3", "--theta", "0:1:2", "--out", "{out}"],
    ])
    def test_one_argv_parse_per_command(self, tmp_path, capsys, monkeypatch, argv):
        # the command's own subparser parses the rest of argv, once; the
        # top-level parser would parse argv only to hand that rest over
        calls = []
        parse = cli._Parser.parse_known_args

        def counted(parser, args=None, namespace=None):
            calls.append(parser.prog)
            return parse(parser, args, namespace)

        monkeypatch.setattr(cli._Parser, "parse_known_args", counted)
        sched = write(tmp_path, "m.sched", MES_MINUS)
        argv = [a.format(sched=sched, out=tmp_path / "sweep.csv") for a in argv]
        assert main(argv) == 0
        assert calls == [f"phaselab {argv[0]}"]


class TestExitCodes:
    def test_usage_error_exit_1(self, capsys):
        assert main(["frobnicate"]) == 1
        assert main([]) == 1

    @pytest.mark.parametrize("argv, rest", [
        (["run", "{sched}", "--steps", "20", "-hx"], "x"), (["-hx"], "x"),
        (["breakdown", "-hhx", "{sched}"], "x"), (["run", "{sched}", "-hx=1"], "x=1"),
        (["run", "{sched}", "-hh=x"], "=x"), (["run", "{sched}", "-hx", "--steps", "x"], "x"),
    ])
    def test_help_run_into_another_character_is_usage_error(self, tmp_path, capsys, argv,
                                                            rest):
        # Python 3.13's argparse takes "-h" out of "-hx" and shows help;
        # 3.10 to 3.12 reject the token, and so does phaselab on each of them
        sched = write(tmp_path, "m.sched", MES_MINUS)
        assert main([a.format(sched=sched) for a in argv]) == 1
        assert capsys.readouterr() == (
            "", f"usage error: argument -h/--help: ignored explicit argument {rest!r}\n")

    @pytest.mark.parametrize("argv", [["-h", "-hx"], ["run", "-hh"]])
    def test_help_reached_first_still_shows_help(self, capsys, argv):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 0
        assert capsys.readouterr().out.startswith("usage: phaselab ")

    @pytest.mark.parametrize("argv, message", [
        (["run", "{sched}", "--format", "xml"],
         "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate' "
                         "(choose from 'run', 'breakdown', 'sweep', 'readout')"),
    ])
    def test_invalid_choice_names_the_choices_quoted(self, tmp_path, capsys, argv, message):
        # argparse quotes them up to 3.12.7 and 3.13.0, and not from 3.12.8
        # and 3.13.1 on; phaselab quotes them on each
        sched = write(tmp_path, "m.sched", MES_MINUS)
        assert main([a.format(sched=sched) for a in argv]) == 1
        assert capsys.readouterr() == ("", f"usage error: {message}\n")

    @pytest.mark.parametrize("as_list", [False, True], ids=["tuple", "list"])
    def test_help_rule_takes_either_shape_of_option_tuples(self, monkeypatch, as_list):
        # argparse's _parse_optional returns one option tuple up to 3.12.7 and
        # 3.13.0, and a list of them from 3.12.8 and 3.13.1 on; the -hx rule
        # reads and returns either shape, whichever this interpreter has
        parent = argparse.ArgumentParser._parse_optional

        def reshaped(self, arg_string):
            found = parent(self, arg_string)
            if isinstance(found, list):
                found, = found
            return [found] if as_list and found is not None else found

        monkeypatch.setattr(argparse.ArgumentParser, "_parse_optional", reshaped)
        parser = cli._Parser(prog="phaselab")
        found = [parser._parse_optional(a) for a in ("-hx", "-h", "-hh")]
        if as_list:
            assert all(type(f) is list and len(f) == 1 for f in found)
            found = [f[0] for f in found]
        (ignored, *_, arg), kept, twice = found
        assert type(ignored) is cli._Ignored and arg is None
        assert kept[0] is twice[0] is parser._option_string_actions["-h"]
        assert parser._parse_optional("m.sched") is None
        with pytest.raises(argparse.ArgumentError, match="ignored explicit argument 'x'"):
            ignored(parser, argparse.Namespace(), [])

    def test_parse_error_exit_2_names_line(self, tmp_path, capsys):
        sched = write(tmp_path, "bad.sched", BAD_LINE)
        assert main(["run", sched]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.sched")]) == 2

    def test_unwritable_out_error_comes_first(self, tmp_path, capsys):
        # a non-cyclic schedule warns, but a failed write is the error line
        sched = write(tmp_path, "n.sched", NOT_CYCLIC)
        assert main(["run", sched, "--steps", "2", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("body,token", [
        ("state schmidt 0.3 0.0\nsegment 0 0 1 inf\n", "inf"),
        ("state schmidt 0.3 0.0\nsegment nan 0 1 1.0\n", "nan"),
        ("state schmidt 0.3 nan\n", "nan"),
    ])
    def test_non_finite_number_exit_2_names_line(self, tmp_path, capsys, body, token):
        sched = write(tmp_path, "nf.sched", "phaselab-schedule v1\n" + body)
        assert main(["breakdown", sched]) == 2
        err = capsys.readouterr().err
        assert f"line {1 + body.count(chr(10))}" in err  # the last line
        assert repr(token) in err

    @pytest.mark.parametrize("line,message", [
        ("state", "state needs a kind: 'schmidt' or 'amplitudes'"),
        ("state amplitudes 1 0 0 0", "state amplitudes takes 8 numbers (re im, four times)"),
        ("state bell", "unknown state kind 'bell'"),
    ])
    def test_malformed_state_line_exit_2_names_line(self, tmp_path, capsys, line, message):
        sched = write(tmp_path, "st.sched", f"phaselab-schedule v1\n{line}\n")
        assert main(["breakdown", sched]) == 2
        assert capsys.readouterr().err == f"error: line 2: {message}\n"

    def test_state_norm_at_the_threshold_exit_2(self, tmp_path, capsys):
        sched = write(tmp_path, "zero.sched", "phaselab-schedule v1\n"
                      "state amplitudes 1e-9 0 0 0 0 0 0 0\nsegment 0 0 1 1.0\n")
        assert main(["breakdown", sched]) == 2
        assert capsys.readouterr().err == "error: line 2: state norm 1e-09 is not above 1e-9\n"

    @pytest.mark.parametrize("argv", [
        ["run", "{sched}", "--steps", "1"],
        ["breakdown", "{sched}", "--steps", "1"],
        ["sweep", "--lambda0", "0:1:2", "--theta", "0:1:2", "--out", "{out}",
         "--steps", "0"],
    ])
    def test_steps_below_two_is_usage_error(self, tmp_path, capsys, argv):
        sched = write(tmp_path, "m.sched", MES_MINUS)
        out = str(tmp_path / "sweep.csv")
        argv = [a.format(sched=sched, out=out) for a in argv]
        assert main(argv) == 1
        assert "--steps" in capsys.readouterr().err

    def test_steps_past_the_largest_array_exit_3(self, tmp_path, capsys):
        # numpy refuses the shape before it allocates anything
        sched = write(tmp_path, "m.sched", MES_MINUS)
        out = tmp_path / "series.csv"
        assert main(["run", sched, "--steps", str(10**30), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {4 * (10**30 - 1) + 1} samples do not fit in memory\n"
        assert not out.exists()

    def test_steps_without_out_are_only_validated(self, tmp_path, capsys):
        # without --out nothing is sampled, so no --steps is too large
        sched = write(tmp_path, "m.sched", MES_MINUS)
        assert main(["run", sched]) == 0
        default = capsys.readouterr()
        assert main(["run", sched, "--steps", str(10**30)]) == 0
        assert capsys.readouterr() == default

    def test_samples_out_of_memory_exit_3(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise MemoryError

        sched = write(tmp_path, "m.sched", MES_MINUS)
        import phaselab.phases  # noqa: F401 (loaded before numpy is patched)

        monkeypatch.setattr(np, "empty", refuse)
        assert main(["run", sched, "--steps", "1000000000000", "--out",
                     str(tmp_path / "series.csv")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {4 * (10**12 - 1) + 1} samples do not fit in memory\n"

    @pytest.mark.parametrize("command,stage", [
        ("run", "_load"), ("breakdown", "_load"), ("readout", "_load"), ("sweep", "_linspace"),
        # past the sampler, the series temporaries and the writer's blocks
        # may still run out of memory
        ("run --out", "_series_columns"), ("run --out", "_write_table"),
    ])
    def test_out_of_memory_exit_3(self, tmp_path, capsys, monkeypatch, command, stage):
        def refuse(*args, **kwargs):
            raise MemoryError

        import phaselab.phases

        monkeypatch.setattr(phaselab.phases if stage == "_series_columns" else cli, stage, refuse)
        if command == "sweep":
            argv = ["sweep", "--lambda0", "0:1:3", "--theta", "0:1:3",
                    "--out", str(tmp_path / "sweep.csv")]
        elif command == "run --out":
            argv = ["run", write(tmp_path, "m.sched", MES_MINUS),
                    "--out", str(tmp_path / "series.csv")]
        else:
            argv = [command, write(tmp_path, "m.sched", MES_MINUS)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory\n"

    @pytest.mark.parametrize("command", ["run", "breakdown", "readout"])
    def test_durations_summing_past_float_max_exit_2(self, tmp_path, capsys, command):
        sched = write(tmp_path, "o.sched", "phaselab-schedule v1\nstate schmidt 0.3 0\n"
                      "segment 0 0 1 1e308\nsegment 0 0 1 1e308\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, sched]) == 2
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 4: durations sum past the largest float\n"

    def test_schedule_not_utf8_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bin.sched"
        path.write_bytes(b"phaselab-schedule v1\n\xff\xfe\n")
        assert main(["breakdown", str(path)]) == 2
        assert "utf-8" in capsys.readouterr().err

    def test_undecodable_byte_past_the_first_read_chunk(self, tmp_path, capsys):
        # the offset is the byte's place in the whole file, as text mode gives it
        path = tmp_path / "long.sched"
        path.write_bytes(b"phaselab-schedule v1\r\n" + b"#" * 9000 + b"\r\n\xff\n")
        with pytest.raises(UnicodeDecodeError) as text_mode:
            with open(path, encoding="utf-8") as fh:
                fh.read()
        message = "'utf-8' codec can't decode byte 0xff in position 9024: invalid start byte"
        assert str(text_mode.value) == message
        assert main(["breakdown", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("text, code, err", [
        (MES_MINUS.replace("evolve-qubit 1", "\n# a comment\n\nevolve-qubit 1  # qubit 1"), 0, ""),
        (BAD_LINE.replace("phaselab-schedule v1", "\n# header next\nphaselab-schedule v1"), 2,
         "error: line 5: not a number: 'one'\n"),
    ])
    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_cr_line_ends_read_as_lf(self, tmp_path, capsys, text, code, err, newline):
        results = []
        for name, end in (("lf.sched", "\n"), ("other.sched", newline)):
            path = tmp_path / name
            path.write_bytes(text.replace("\n", end).encode())
            results.append((main(["breakdown", str(path)]), capsys.readouterr()))
        assert results[1] == results[0]
        assert results[0][0] == code and results[0][1].err == err

    def test_validation_error_exit_2(self, tmp_path, capsys):
        sched = write(tmp_path, "v.sched",
                      "phaselab-schedule v1\nstate schmidt 2.0 0.0\n")
        assert main(["breakdown", sched]) == 2

    def test_usage_error_then_breakdown_in_one_process(self, tmp_path, capsys):
        # the parser is built once and reused across calls
        sched = write(tmp_path, "m.sched", MES_MINUS)
        assert main(["breakdown"]) == 1
        assert "usage error" in capsys.readouterr().err
        assert main(["breakdown", sched]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        mes = pl.schmidt_state(0.5, 0.0)
        b = pl.phase_breakdown(pl.RotationSchedule(tuple(pl.builtin_minus()), 1, mes))
        assert json.loads(captured.out) == {
            "total": b.total, "dynamical": b.dynamical, "geometric": b.geometric,
            "crossings": b.crossings, "parity": b.parity,
            "degenerate": b.degenerate, "closure_residual": None}


class TestGoldenWriter:
    """``run --out`` and ``sweep`` bytes equal the row-by-row reference
    writer fed from the public ``phase_samples`` / ``phase_breakdown``."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", ["mes_minus", "mes_plus", "partial_z_turn"])
    def test_run_demo_schedules(self, tmp_path, capsys, name, fmt):
        path = os.path.join(DEMO_SCHEDULES, name + ".sched")
        out = tmp_path / f"series.{fmt}"
        assert main(["run", path, "--out", str(out), "--format", fmt]) == 0
        with open(path, encoding="utf-8") as fh:
            sched = pl.parse_schedule(fh.read())
        want = reference_table_bytes(RUN_FIELDS, reference_run_rows(sched, pl.DEFAULT_SAMPLES), fmt)
        got = out.read_bytes()
        assert got == want
        if name == "mes_minus":  # the junction sample is orthogonal: NaN phases
            body = got.decode()
            assert ('"phase_total_principal": null, "phase_total_unwrapped": null'
                    if fmt == "json" else ",nan,nan,") in body

    @pytest.mark.parametrize("axis,turns", [("z", 1), ("x", 3)])
    def test_sweep_readme_grid(self, tmp_path, capsys, axis, turns):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--lambda0", "0:1:11", "--theta", "0:3.141592653589793:9",
                     "--axis", axis, "--turns", str(turns), "--out", str(out)]) == 0
        rows = reference_sweep_rows(np.linspace(0.0, 1.0, 11),
                                    np.linspace(0.0, 3.141592653589793, 9),
                                    {"x": (1.0, 0.0, 0.0), "z": (0.0, 0.0, 1.0)}[axis], turns)
        assert out.read_bytes() == reference_table_bytes(SWEEP_FIELDS, rows)
