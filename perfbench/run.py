"""phaselab benchmark: end-to-end CLI throughput and latency, per-layer traces.

Usage, from the repository root:

    python3 perfbench/run.py --workload series|breakdown|sweep --seed N \\
        --seconds S --trace 0|1

The program under test is ``src/phaselab`` of the checkout this file sits
in. It is driven in-process through ``phaselab.cli.main(argv)`` by one
closed-loop client (no threads, BLAS pinned to one thread) on schedule
files generated from ``--seed``. Whole passes over the workload's
invocations run while another pass fits into ``--seconds``. A fixed
reference kernel is timed next to every command, and command times are
reported at the nominal host speed (``normalise``), so that the shared
host's slow and fast spells cancel out. Every output is then checked
against independent oracles (``oracles.py``), outside the timed region.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` half the time runs untraced and half with boundary
spans (``tracer.py``), and the per-layer metrics are reported, each per
command. Spans are written to ``perfbench/work/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported, here and in children

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import inputs
import oracles
from tracer import LAYERS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", "work")
SETUP_WARMUP = 3
SETUP_RUNS = 7
# The nominal host, to whose speed time metrics are scaled (``normalise``),
# runs the reference kernel in REF_S seconds. Changing it rescales every
# time metric, so it stays fixed.
REF_S = 0.005

TRACED_FUNCTIONS = (
    "schedule._unitary_samples", "geometry.su2_to_so3", "cli.main",
    "phases.geometric_phase_mixed", "phases.topological_crossings",
    "phases.overlap_at", "schedule.unitary_at", "qstate.evolution_operator",
    "geometry.transversal_zero_times", "geometry.purify",
    "phases.phase_samples", "phases.phase_breakdown",
    "phases.dynamical_phase", "schedule.parse_schedule",
)
PER_LAYER = (
    [f"{lay}.{kind}" for lay in LAYERS for kind in ("self_s", "calls")]
    + [f"{fn}.{kind}" for fn in TRACED_FUNCTIONS for kind in ("calls", "self_s")]
    + ["cli.rows_out", "cli.bytes_out", "phases.crossings", "phases.crossing_yield",
       "closure_violations", "trace.overhead_frac"]
)
UNITS = {"self_s": "s", "calls": "count", "rows_out": "count", "bytes_out": "B",
         "crossings": "count", "crossing_yield": "1/1000", "closure_violations": "count",
         "overhead_frac": "ratio"}


class ProgramMissing(Exception):
    pass


def load_cli():
    """Import ``phaselab.cli`` from this checkout's ``src``, nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "phaselab", "cli.py")):
        raise ProgramMissing(f"no phaselab sources under {SRC}")
    sys.path.insert(0, SRC)
    cli = importlib.import_module("phaselab.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"phaselab.cli imported from {cli.__file__}, not {SRC}")
    return cli


def measure_setup() -> float:
    """Median wall time of ``import phaselab.cli`` in a fresh interpreter."""
    cmd = [sys.executable, "-c", "import phaselab.cli"]
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    # The first runs write the bytecode cache and read cold files; they
    # also run slow for a while after the machine idles.
    for _ in range(SETUP_WARMUP + SETUP_RUNS):
        t0 = perf_counter()
        # No timeout: with one, the wait polls and rounds times up to 50 ms.
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times[SETUP_WARMUP:])


@dataclass
class Output:
    fingerprint: str
    rc: object
    stdout: str
    stderr: str
    nbytes: int


class Runner:
    """Closed-loop client. Remembers the first output of every key and
    counts later invocations whose output is not byte-identical to it."""

    def __init__(self, cli, ops):
        self.cli, self.ops = cli, ops
        self.first: dict[str, Output] = {}
        self.runs = Counter()
        self.diverged = Counter()

    def invoke(self, op) -> float:
        if op.out and os.path.exists(op.out):
            os.remove(op.out)  # so a command that writes nothing is seen
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(op.argv)
        except Exception as exc:  # an exception escaping main is a failed command
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
        data = b""
        if op.out and os.path.exists(op.out):
            with open(op.out, "rb") as fh:
                data = fh.read()
        h = hashlib.sha256(repr((rc, out.getvalue(), err.getvalue())).encode())
        h.update(data)
        self.runs[op.key] += 1
        seen = self.first.get(op.key)
        if seen is None:
            self.first[op.key] = Output(h.hexdigest(), rc, out.getvalue(), err.getvalue(),
                                        len(data) + len(out.getvalue().encode()))
        elif seen.fingerprint != h.hexdigest():
            self.diverged[op.key] += 1
        return elapsed

    def passes(self, budget: float, min_passes: int, tracer=None) -> tuple:
        """Run whole passes while another pass of the mean length still
        fits in ``budget`` seconds. The reference kernel is timed before
        each command and after the last one. Returns the command times
        and the reference times, one more of those."""
        times: list[float] = []
        refs: list[float] = []
        n = 0
        reference_kernel()  # the first call runs cold and slow
        start = perf_counter()
        while n < min_passes or (perf_counter() - start) * (n + 1) / n <= budget:
            for op in self.ops:
                refs.append(time_reference())
                if tracer is not None:
                    tracer.op = len(times)
                times.append(self.invoke(op))
            n += 1
        refs.append(time_reference())
        return np.array(times), np.array(refs)


def reference_kernel() -> int:
    """Fixed work in the program's proportions: an interpreter loop over
    small complex matrices, a block of 2000 rotation matrices gathered
    into a list and stacked, and CSV rows formatted with ``repr``. Nothing
    here calls phaselab, so a change to the program leaves it alone."""
    eye = np.eye(2, dtype=complex)
    sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
    acc = 0.0
    for i in range(130):
        m = math.cos(i * 1e-3) * eye - 1j * math.sin(i * 1e-3) * sigma_x
        acc += abs(complex(np.trace(m @ m)))
    half = np.arange(1, 2000) * 1e-3
    units = [eye]
    units.extend((np.cos(half)[:, None, None] * eye
                  - 1j * np.sin(half)[:, None, None] * sigma_x) @ sigma_x)
    acc += float(np.abs(np.einsum("kij,ji->k", np.array(units), sigma_x)).sum())
    buf = io.StringIO()
    for i in range(200):
        buf.write(",".join(repr(acc * j + i) for j in range(14)) + "\n")
    return len(buf.getvalue())


def time_reference() -> float:
    t0 = perf_counter()
    reference_kernel()
    return perf_counter() - t0


def normalise(times: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Command times at the nominal host speed, where the reference kernel
    takes REF_S. Command i is scaled by REF_S over the median of the three
    reference times around it: before the previous command, before it and
    after it."""
    around = np.stack([refs[np.maximum(np.arange(len(times)) - 1, 0)],
                       refs[:-1], refs[1:]])
    return times * REF_S / np.median(around, axis=0)


def verify(ops, first: dict[str, Output], seed: int) -> dict:
    """Check the first output of every key against the oracles."""
    rng = np.random.default_rng([seed, 1])
    checked = {}
    texts = {}
    for op in ops:
        o = first[op.key]
        text = ""
        if op.out and os.path.exists(op.out):
            with open(op.out, encoding="utf-8") as fh:
                text = fh.read()
        if op.sweep is not None:
            checked[op.key] = oracles.check_sweep(op.sweep, o.rc, text)
        elif op.fmt is None:
            checked[op.key] = oracles.check_breakdown(op.spec, o.rc, o.stdout)
        else:
            checked[op.key] = oracles.check_series(op.spec, o.rc, o.stdout, o.stderr,
                                                   text, op.fmt, rng)
            texts[op.key] = text
    for key in texts:  # CSV and JSON of one schedule hold the same series
        pair = key[:-4] + ".json"
        if key.endswith(".csv") and pair in texts:
            if not (checked[key].problems or checked[pair].problems
                    or oracles.same_series(texts[key], texts[pair])):
                for k in (key, pair):
                    checked[k].problems.append("CSV and JSON series differ")
    return checked


def percentile_ms(times, q) -> float:
    return float(np.percentile(times, q)) * 1000.0


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, str]:
    cli = load_cli()
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        ops = inputs.make_ops(workload, seed, tmp, ROOT)
        runner = Runner(cli, ops)
        if not trace:
            raw, refs = runner.passes(seconds, 2)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            plain = normalise(*runner.passes(seconds / 2.0, 1))
            tracer = Tracer()
            tracer.install()
            try:
                raw, refs = runner.passes(seconds / 2.0, 1, tracer)
            finally:
                tracer.uninstall()
        times = normalise(raw, refs)
        checked = verify(ops, runner.first, seed)
    setup_s = None if trace else measure_setup()  # after the passes, on a busy CPU
    per_op = [ops[i % len(ops)].key for i in range(len(times))]  # passes are whole
    attempted = sum(runner.runs.values())
    failed = sum(runner.runs[k] if c.problems else runner.diverged[k]
                 for k, c in checked.items())
    violations = sum(c.violations for c in checked.values())
    rows = sum(checked[k].rows for k in per_op)
    total = float(times.sum())
    if not trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(times) / total, "1/s"),
            "op_ms_p50": (percentile_ms(times, 50), "ms"),
            "op_ms_p90": (percentile_ms(times, 90), "ms"),
            "rows_per_s": (rows / total, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        n = len(times)
        layer = tracer.summary(n)
        crossings = sum(checked[k].crossings for k in per_op)
        layer["cli.rows_out"] = rows / n
        layer["cli.bytes_out"] = sum(runner.first[k].nbytes for k in per_op) / n
        layer["phases.crossings"] = crossings / n
        overlap_calls = layer.get("phases.overlap_at.calls", 0.0) * n
        layer["phases.crossing_yield"] = 1000.0 * crossings / overlap_calls if overlap_calls else 0.0
        layer["closure_violations"] = violations
        layer["trace.overhead_frac"] = (total / n) / plain.mean() - 1.0
        metrics = {m: (layer.get(m, 0), UNITS[m.rsplit(".", 1)[-1]]) for m in PER_LAYER}
        tracer.write(os.path.join(WORK, f"trace-{workload}-{seed}.csv"))
    problems = sorted({f"{k}: {p}" for k, c in checked.items() for p in c.problems[:3]})
    summary = (f"# {workload} seed={seed} trace={int(trace)}: "
               f"{len(times)} timed commands (the percentile sample count), {attempted} attempted, "
               f"{failed} failed (failed_frac {failed / attempted:.4g}), "
               f"closure_violations {violations} per pass\n"
               f"# unscaled: {len(raw) / raw.sum():.4g} ops/s, p50 {percentile_ms(raw, 50):.4g} ms; "
               f"host speed {REF_S / np.median(refs):.3f} of nominal")
    for p in problems[:20]:
        summary += f"\n# problem: {p}"
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("series", "breakdown", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(summary)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
