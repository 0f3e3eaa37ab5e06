"""Self-tests of the benchmark: the oracle checker accepts the program's
outputs, rejects deliberately corrupted ones, and tracing leaves every
output byte-identical."""

from __future__ import annotations

import json
import os
import types

import numpy as np
import pytest

import inputs
import oracles
import run
from tracer import Tracer

SEED = 7


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


@pytest.fixture(scope="module")
def outputs(cli, tmp_path_factory):
    """One run of a small slice of each workload: key -> (op, Output)."""
    tmp = str(tmp_path_factory.mktemp("perfbench"))
    keep = {
        "breakdown": lambda k: True,
        "sweep": lambda k: k in ("sweep-x1a", "sweep-y3a", "sweep-z3a"),
        "series": lambda k: k.startswith(("series-mes_minus", "series-r2-")),
    }
    ops = [op for w, pick in keep.items()
           for op in inputs.make_ops(w, SEED, tmp, run.ROOT) if pick(op.key)]
    runner = run.Runner(cli, ops)
    runner.passes(0.0, 1)
    return {op.key: (op, runner.first[op.key]) for op in ops}


def test_checker_passes_on_program_outputs(outputs):
    ops = [op for op, _ in outputs.values()]
    checked = run.verify(ops, {k: o for k, (_, o) in outputs.items()}, SEED)
    assert {k: c.problems for k, c in checked.items() if c.problems} == {}


def _breakdown(outputs, key):
    op, out = outputs[key]
    return op.spec, json.loads(out.stdout)


def _check_breakdown(spec, payload):
    return oracles.check_breakdown(spec, 0, json.dumps(payload)).problems


def test_flags_flipped_dynamical_sign(outputs):
    key = next(k for k in outputs if k.startswith("breakdown-partial-"))
    spec, payload = _breakdown(outputs, key)
    assert abs(payload["dynamical"]) > 1e-6
    payload["dynamical"] = -payload["dynamical"]
    assert _check_breakdown(spec, payload)


def test_flags_wrong_crossing_count(outputs):
    spec, payload = _breakdown(outputs, "breakdown-builtin-minus-0.5")
    assert payload["crossings"] == 1
    payload.update(crossings=0, parity="even")
    assert _check_breakdown(spec, payload)


def _series(outputs, key):
    op, out = outputs[key]
    with open(op.out, encoding="utf-8") as fh:
        text = fh.read()
    return op, out, text


def _check_series(op, out, text):
    rng = np.random.default_rng(0)
    return oracles.check_series(op.spec, out.rc, out.stdout, out.stderr, text,
                                op.fmt, rng).problems


def test_flags_dropped_row(outputs):
    op, out, text = _series(outputs, "series-mes_minus.csv")
    lines = text.splitlines(keepends=True)
    assert _check_series(op, out, "".join(lines[:100] + lines[101:]))
    sweep_op, sweep_out = outputs["sweep-z3a"]
    with open(sweep_op.out, encoding="utf-8") as fh:
        rows = fh.read().splitlines(keepends=True)
    assert oracles.check_sweep(sweep_op.sweep, 0, "".join(rows[:-1])).problems


def test_flags_nan_written_as_zero(outputs):
    op, out, text = _series(outputs, "series-mes_minus.csv")
    assert ",nan," in text
    corrupted = text.replace(",nan,", ",0.0,")
    assert _check_series(op, out, corrupted)
    _, _, json_text = _series(outputs, "series-mes_minus.json")
    assert not oracles.same_series(corrupted, json_text)
    assert oracles.same_series(text, json_text)


def test_tracing_leaves_outputs_byte_identical(cli, outputs):
    mes = next(k for k in outputs if k.startswith("breakdown-mes-"))
    keys = ("series-mes_minus.csv", "series-mes_minus.json", "sweep-y3a", mes)
    ops = [outputs[k][0] for k in keys]
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.Runner(cli, ops)
        traced.passes(0.0, 1, tracer)
    finally:
        tracer.uninstall()
    assert len(tracer.start) > 0 and not hasattr(cli.main, "__wrapped__")
    for op in ops:
        assert op.out is None or os.path.exists(op.out), op.key
        assert traced.first[op.key].fingerprint == outputs[op.key][1].fingerprint, op.key


def test_unparsable_shapes_fail_without_raising(outputs):
    spec, payload = _breakdown(outputs, "breakdown-builtin-minus-0.5")
    for stdout in ("null", "3", "[]", json.dumps(dict(payload, total="x"))):
        assert oracles.check_breakdown(spec, 0, stdout).problems, stdout
    op, out, _ = _series(outputs, "series-mes_minus.json")
    for text in ("null", "[1, 2]", '[{"t": []}]'):
        assert oracles.load_series_json(text) is None, text
        assert _check_series(op, out, text), text


def test_runner_removes_stale_out_file(tmp_path):
    stale = tmp_path / "stale.csv"
    stale.write_text("left by an earlier run\n")
    op = inputs.Op("writes-nothing", [], out=str(stale))
    runner = run.Runner(types.SimpleNamespace(main=lambda argv: 0), [op])
    runner.invoke(op)
    assert not stale.exists() and runner.first[op.key].nbytes == 0


def test_normalise_scales_by_the_references_around_each_command():
    ref = run.REF_S
    refs = np.array([ref, 2 * ref, 2 * ref, 4 * ref])
    # command 0: median(ref, ref, 2ref); 1: median(ref, 2ref, 2ref);
    # 2: median(2ref, 2ref, 4ref)
    scaled = run.normalise(np.array([1.0, 1.0, 1.0]), refs)
    assert np.allclose(scaled, [1.0, 0.5, 0.5])
