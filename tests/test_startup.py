"""Startup guard: the exact commands and the exact library API never
import numpy, ``dataclasses`` or orjson, and no part of the package
imports ``dataclasses``.

``import phaselab.cli`` and the ``breakdown``, ``sweep`` and ``readout``
commands and ``run`` without ``--out``, their error exits included, run
on the plain-float core (``phaselab.core``), and load neither numpy nor
``dataclasses`` and the ``inspect`` it imports. Nor do they load orjson,
which ``run --out``'s writer imports for every table; ``sweep`` writes by
``repr`` at any grid size, so a 51x51 grid loads neither. The same holds
for the core's names read from ``phaselab`` itself. Every record class,
the sampled API's too, is a slots class, so the whole package,
numpy-backed modules included, loads no ``dataclasses``. ``run --out``
without numpy or orjson exits 3 with an ``error:`` line naming it, and
leaves no file. Each check runs in a fresh interpreter
with ``PYTHONPATH`` set to this checkout's ``src``, since the test
process itself has numpy loaded.
"""

import inspect
import json
import math
import os
import subprocess
import sys
import textwrap

import pytest

import phaselab as pl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DEMOS = os.path.join(ROOT, "demos", "schedules")

# phaselab.__all__ before the lazy package import, in order
PUBLIC_NAMES = [
    "PhaseLabError", "ZeroNorm", "DomainError", "DegenerateSpectrum", "NotSpecialUnitary",
    "OrthogonalStep", "NotCyclic", "ParseError", "ValidationError", "schmidt_state",
    "apply_local", "reduced_density", "inner_product", "bloch_of_pure", "hopf_coords",
    "concurrence", "ball_radius", "Purification", "purify", "SO3Path",
    "so3_path", "HEADER", "DEFAULT_SAMPLES", "RotationSegment",
    "RotationSchedule", "builtin_plus", "builtin_minus", "parse_schedule",
    "serialize_schedule", "unitary_at", "total_duration", "ORTHOGONALITY_EPS",
    "CROSSING_EPS", "DYNAMICAL_SIGN", "principal", "PhaseBreakdown", "dynamical_phase",
    "geometric_phase_mixed", "topological_crossings", "phase_breakdown",
    "readout_probability", "PhaseSeries", "total_phase", "fixed_axis_closed_forms",
    "phase_samples", "__version__",
]


def fresh(code: str, tmp_path) -> dict:
    """Run ``code`` in a new interpreter; it reports through ``emit(key,
    value)``, collected here as a dict."""
    prelude = textwrap.dedent("""\
        import contextlib, io, json, sys
        _report = {}
        def emit(key, value):
            _report[key] = value
        def heavy_loaded():
            return [name for name in ("numpy", "dataclasses", "inspect", "orjson")
                    if name in sys.modules]
        def run(argv):
            from phaselab.cli import main
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return main(argv)
        """)
    tail = "\nprint(json.dumps(_report))\n"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", prelude + textwrap.dedent(code) + tail],
                          env=env, cwd=str(tmp_path), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_exact_commands_never_import_numpy(tmp_path):
    bad = tmp_path / "bad.sched"
    bad.write_text("phaselab-schedule v1\nstate schmidt 0.5 0\nsegment 0 0 one 1\n")
    open_ = tmp_path / "open.sched"
    open_.write_text("phaselab-schedule v1\nstate schmidt 0.3 0.7\nsegment 1 0 0 1.0\n")
    mes_minus = os.path.join(DEMOS, "mes_minus.sched")
    mes_plus = os.path.join(DEMOS, "mes_plus.sched")
    report = fresh(f"""
        emit("before", heavy_loaded())
        import phaselab.cli
        emit("import phaselab.cli", heavy_loaded())
        for name, argv in [
            ("breakdown", ["breakdown", {mes_minus!r}]),
            ("sweep", ["sweep", "--lambda0", "0:1:11", "--theta", "0:{math.pi!r}:9",
                       "--out", "sweep.csv"]),
            ("sweep 51x51", ["sweep", "--lambda0", "0:1:51", "--theta", "0:{math.pi!r}:51",
                             "--axis", "x", "--turns", "3", "--out", "big.csv"]),
            ("readout", ["readout", {mes_plus!r}]),
            ("run", ["run", {mes_minus!r}]),
            ("run --steps", ["run", {mes_minus!r}, "--steps", "{10**30}"]),
            ("readout not cyclic", ["readout", {str(open_)!r}]),
            ("run not cyclic", ["run", {str(open_)!r}]),
            ("parse error", ["breakdown", {str(bad)!r}]),
            ("run parse error", ["run", {str(bad)!r}]),
            ("not cyclic", ["breakdown", {str(open_)!r}]),
            ("sweep range error", ["sweep", "--lambda0", "0:2:3", "--theta", "0:1:2",
                                   "--out", "sweep.csv"]),
            ("usage error", ["readout"]),
        ]:
            emit(name, [run(argv), heavy_loaded()])
        emit("run --out", [run(["run", {mes_minus!r}, "--steps", "20", "--out", "series.csv"]),
                           open("series.csv").read().count("\\n"), "orjson" in sys.modules])
        emit("run --out default", [run(["run", {mes_minus!r}, "--out", "series.csv"]),
                                   "orjson" in sys.modules])
        """, tmp_path)
    assert report == {
        "before": [],
        "import phaselab.cli": [],
        "breakdown": [0, []],
        "sweep": [0, []],
        "sweep 51x51": [0, []],
        "readout": [0, []],
        "run": [0, []],
        "run --steps": [0, []],
        "readout not cyclic": [0, []],
        "run not cyclic": [0, []],
        "parse error": [2, []],
        "run parse error": [2, []],
        "not cyclic": [3, []],
        "sweep range error": [2, []],
        "usage error": [1, []],
        "run --out": [0, 1 + 1 + 4 * 19, True],
        "run --out default": [0, True],
    }


@pytest.mark.parametrize("module", ["numpy", "orjson"])
def test_run_out_without_a_dependency_exits_3(tmp_path, module):
    mes_minus = os.path.join(DEMOS, "mes_minus.sched")
    (tmp_path / "kept.csv").write_text("kept\n")
    report = fresh(f"""
        sys.modules[{module!r}] = None  # its import fails
        from phaselab.cli import main
        err = io.StringIO()
        for name in ("new.csv", "kept.csv"):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                emit(name, main(["run", {mes_minus!r}, "--out", name]))
        emit("stderr", err.getvalue())
        """, tmp_path)
    assert report == {"new.csv": 3, "kept.csv": 3,
                      "stderr": f"error: cannot import {module}\n" * 2}
    assert sorted(os.listdir(tmp_path)) == ["kept.csv"]
    assert (tmp_path / "kept.csv").read_text() == "kept\n"


def _exact_calls(pl, path, degenerate):
    """The exact API's results on one schedule file, read from ``phaselab``."""
    with open(path, encoding="utf-8") as fh:
        s = pl.parse_schedule(fh.read())
    b = pl.phase_breakdown(s)
    row = [[b.total, b.dynamical, b.geometric, b.crossings, b.parity, b.degenerate],
           pl.readout_probability(s), list(pl.topological_crossings(s)),
           pl.dynamical_phase(s)]
    if not degenerate:
        row += [pl.geometric_phase_mixed(s), pl.principal(b.total + 7.0)]
    return row


def test_exact_library_api_never_imports_numpy(tmp_path):
    mes_minus = os.path.join(DEMOS, "mes_minus.sched")
    partial = os.path.join(DEMOS, "partial_z_turn.sched")
    report = fresh(inspect.getsource(_exact_calls) + textwrap.dedent(f"""
        import phaselab as pl
        emit("mes_minus", _exact_calls(pl, {mes_minus!r}, True))
        emit("partial", _exact_calls(pl, {partial!r}, False))
        emit("names", [pl.PhaseBreakdown.__name__, pl.ORTHOGONALITY_EPS, pl.CROSSING_EPS,
                       pl.DYNAMICAL_SIGN, pl.DEFAULT_SAMPLES])
        emit("heavy", heavy_loaded())
        """), tmp_path)
    assert report == {
        "mes_minus": _exact_calls(pl, mes_minus, True),
        "partial": _exact_calls(pl, partial, False),
        "names": ["PhaseBreakdown", 1e-9, 1e-6, -1.0, 2000],
        "heavy": [],
    }


def test_whole_package_never_imports_dataclasses(tmp_path):
    mes_minus = os.path.join(DEMOS, "mes_minus.sched")
    report = fresh(f"""
        import phaselab as pl
        emit("names", len(pl.__all__))  # binds every lazy module's names
        with open({mes_minus!r}, encoding="utf-8") as fh:
            sched = pl.parse_schedule(fh.read())
        pl.purify(pl.reduced_density(pl.schmidt_state(0.3, 0.7), 1))
        pl.phase_samples(sched, 20)
        pl.so3_path(sched, 20)
        emit("run --out", run(["run", {mes_minus!r}, "--out", "series.csv"]))
        emit("loaded", [name for name in ("numpy", "dataclasses") if name in sys.modules])
        """, tmp_path)
    assert report == {"names": len(PUBLIC_NAMES), "run --out": 0, "loaded": ["numpy"]}


def test_package_names_load_on_first_access(tmp_path):
    report = fresh("""
        import phaselab
        emit("import phaselab", heavy_loaded())
        emit("schmidt_state", type(phaselab.schmidt_state(0.3, 0.0)).__module__)
        emit("so3_path", phaselab.so3_path.__module__)
        emit("__all__", phaselab.__all__)
        namespace = {}
        exec("from phaselab import *", namespace)
        emit("star", sorted(set(namespace) - {"__builtins__"}))
        """, tmp_path)
    assert report["import phaselab"] == []
    assert report["schmidt_state"] == "numpy"
    assert report["so3_path"] == "phaselab.geometry"
    assert report["__all__"] == PUBLIC_NAMES
    assert report["star"] == sorted(PUBLIC_NAMES)


def test_star_import_in_a_fresh_interpreter(tmp_path):
    report = fresh(f"""
        from phaselab import *
        emit("names", [so3_path.__name__, schmidt_state.__name__, phase_breakdown.__name__])
        import phaselab
        emit("dir", sorted(set({PUBLIC_NAMES!r}) - set(dir(phaselab))))
        """, tmp_path)
    assert report == {"names": ["so3_path", "schmidt_state", "phase_breakdown"], "dir": []}


def test_dir_lists_the_lazy_names_in_a_fresh_interpreter(tmp_path):
    report = fresh(f"""
        import phaselab
        emit("before", heavy_loaded())
        names = dir(phaselab)
        emit("lazy", ["purify" in names, "phase_samples" in names])
        emit("missing", sorted(set({PUBLIC_NAMES!r}) - set(names)))
        """, tmp_path)
    assert report == {"before": [], "lazy": [True, True], "missing": []}
