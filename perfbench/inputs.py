"""Seeded inputs for the three workloads.

``make_ops`` writes one pass worth of schedule files into a work
directory and returns the CLI invocations that use them, in a seeded
order. The seed chooses states, axes, durations, angles and order; the
shape of a pass (how many schedules of each kind, their segment counts,
the grid sizes) is fixed, so passes from different seeds cost about the
same and runs with different seeds are comparable.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

import oracles

TWO_PI = 2.0 * math.pi
README_THETA = f"0:{math.pi!r}:9"
DEMOS = ("mes_minus", "mes_plus", "partial_z_turn")


@dataclass
class Op:
    """One CLI invocation. ``key`` names it within a pass; every pass runs
    the same keys, so repeats of a key must give identical output."""

    key: str
    argv: list
    spec: oracles.Spec | None = None  # schedule read by the oracles
    sweep: dict | None = None  # sweep arguments read by the oracles
    out: str | None = None
    fmt: str | None = None


def _f(x: float) -> str:
    return repr(float(x))


def _axis(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _rot(axis, duration) -> np.ndarray:
    """SU(2) rotation used to build cyclic completions."""
    c, s = math.cos(duration / 2.0), math.sin(duration / 2.0)
    return c * np.eye(2) - 1j * s * np.einsum("k,kij->ij", axis, oracles.SIGMA)


def _state_line(kind: str, rng) -> str:
    """``partial``: random amplitudes, eigenvalue gap in [0.1, 0.9];
    ``mes``: exact maximally entangled; ``product``: lambda0 of 0 or 1."""
    theta = _f(rng.uniform(0.0, TWO_PI))
    if kind == "mes":
        return f"state schmidt 0.5 {theta}"
    if kind == "product":
        return f"state schmidt {int(rng.integers(0, 2))} {theta}"
    while True:
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        a = v.reshape(2, 2)
        gap = math.sqrt(max(0.0, 1.0 - 4.0 * abs(np.linalg.det(a)) ** 2))
        if 0.1 <= gap <= 0.9:
            return "state amplitudes " + " ".join(_f(p) for z in v for p in (z.real, z.imag))


def _random_segments(rng, n: int) -> list:
    return [(_axis(rng), float(rng.uniform(0.3, 6.0))) for _ in range(n)]


def _product(segments) -> np.ndarray:
    u = np.eye(2, dtype=complex)
    for n, d in segments:
        u = _rot(n, d) @ u
    return u


def _completion(segments, extra_turn: bool):
    """The one segment that returns the prefix to U_T = I, or to -I with
    an extra 2pi turn."""
    u = _product(segments)
    v = np.array([(0.5j * np.trace(u @ s)).real for s in oracles.SIGMA])
    angle = 2.0 * math.atan2(float(np.linalg.norm(v)), float(np.trace(u).real / 2.0))
    return -v / np.linalg.norm(v), angle + (TWO_PI if extra_turn else 0.0)


def _cyclic(rng, n: int, extra_turn: bool) -> list:
    """``n`` segments whose product is +-I: a random prefix plus its
    completion, or for ``n == 1`` whole turns about a random axis."""
    if n == 1:
        return [(_axis(rng), TWO_PI * (2 if extra_turn else 1))]
    while True:
        prefix = _random_segments(rng, n - 1)
        axis, angle = _completion(prefix, extra_turn)
        if angle > 1e-3:
            return prefix + [(axis, angle)]


def _non_cyclic(rng, state: str, qubit: int, n: int) -> list:
    while True:
        segs = _random_segments(rng, n)
        rho = oracles.parse(_text(state, qubit)).rho
        if abs(abs(np.trace(_product(segs) @ rho)) - 1.0) > 0.05:
            return segs


def _text(state: str, qubit: int, segments=(), builtin: str | None = None) -> str:
    lines = ["phaselab-schedule v1", state, f"evolve-qubit {qubit}"]
    lines += [f"segment {' '.join(_f(c) for c in n)} {_f(d)}" for n, d in segments]
    if builtin:
        lines.append(f"builtin {builtin}")
    return "\n".join(lines) + "\n"


def _schedule_op(workdir: str, key: str, text: str, argv_head: list) -> Op:
    path = os.path.join(workdir, key + ".sched")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return Op(key, argv_head + [path], spec=oracles.parse(text))


def _series(rng, workdir: str, root: str) -> list:
    """The three demo schedules and five seeded ones, each written as CSV
    and as JSON, except the one-segment demo, written as CSV only. Segment
    count, state kind and cyclicity are fixed per seeded schedule, so only
    values vary with the seed.

    A pass thus holds 15 commands. With whole passes and a command count
    ending in 5, the median and the 90th percentile fall in the middle of
    one command's samples, not on the edge between two commands' costs."""
    texts = {}
    for name in DEMOS:
        with open(os.path.join(root, "demos", "schedules", name + ".sched"),
                  encoding="utf-8") as fh:
            texts[name] = fh.read()
    shapes = ((1, "partial", True), (2, "product", False), (3, "mes", True),
              (5, "partial", False), (8, "partial", True))
    for n, kind, cyclic in shapes:
        state, qubit = _state_line(kind, rng), int(rng.integers(1, 3))
        if cyclic:
            segs = _cyclic(rng, n, bool(rng.integers(0, 2)))
        else:
            segs = _non_cyclic(rng, state, qubit, n)
        texts[f"r{n}-{kind}-{'cyc' if cyclic else 'open'}"] = _text(state, qubit, segs)
    ops = []
    for name, text in texts.items():
        base = _schedule_op(workdir, "series-" + name, text, ["run"])
        for fmt in ("csv",) if name == "partial_z_turn" else ("csv", "json"):
            out = os.path.join(workdir, f"{base.key}.{fmt}")
            ops.append(Op(f"{base.key}.{fmt}", ["run", base.argv[-1], "--out", out,
                                                 "--format", fmt], base.spec, out=out, fmt=fmt))
    return [ops[i] for i in rng.permutation(len(ops))]


def _breakdown(rng, workdir: str) -> list:
    """Builtin plus and minus at lambda0 in {0.3, 0.4, 0.48, 0.5}; cyclic
    schedules of 2 to 8 segments on partially entangled, maximally
    entangled and product states, ending at U_T = I or -I; three
    non-cyclic schedules, which must exit 3."""
    texts = {}
    for lam in (0.3, 0.4, 0.48, 0.5):
        for b in ("plus", "minus"):
            texts[f"builtin-{b}-{lam}"] = _text(f"state schmidt {lam} 0.0", 1, builtin=b)
    for kind in ("partial", "mes", "product"):
        for n in range(2, 9):
            extra = bool(rng.integers(0, 2))
            state = _state_line(kind, rng)
            texts[f"{kind}-{n}{'-2pi' if extra else ''}"] = _text(
                state, int(rng.integers(1, 3)), _cyclic(rng, n, extra))
    for n in (1, 2, 3):
        state, qubit = _state_line("partial", rng), int(rng.integers(1, 3))
        texts[f"open-{n}"] = _text(state, qubit, _non_cyclic(rng, state, qubit, n))
    ops = [_schedule_op(workdir, "breakdown-" + k, t, ["breakdown"]) for k, t in texts.items()]
    return [ops[i] for i in rng.permutation(len(ops))]


def _sweep(rng, workdir: str) -> list:
    """The README grid about z and x, the README grid at three turns about
    x and z (where the eigenstate rows expose the closure defect), and
    seeded 5x5 grids for each axis and turn count 1..3: two each about x
    and z, one about y, whose rows all cross and cost twice as much.

    The mix puts the median command in the middle of the small x and z
    grids and the 90th percentile in the middle of the README grids, not
    on the edge between two grid costs."""
    grids = [
        ("readme", "0:1:11", README_THETA, "z", 1),
        ("readme-x1", "0:1:11", README_THETA, "x", 1),
        ("readme-x3", "0:1:11", README_THETA, "x", 3),
        ("readme-z3", "0:1:11", README_THETA, "z", 3),
    ]
    for axis, copies in (("x", "ab"), ("y", "a"), ("z", "ab")):
        for turns in (1, 2, 3):
            for copy in copies:
                t0 = rng.uniform(0.0, math.pi)
                t1 = t0 + rng.uniform(0.5 * math.pi, math.pi)
                grids.append((f"{axis}{turns}{copy}", "0:1:5", f"{_f(t0)}:{_f(t1)}:5",
                              axis, turns))
    ops = []
    for name, lam, theta, axis, turns in grids:
        out = os.path.join(workdir, f"sweep-{name}.csv")
        argv = ["sweep", "--lambda0", lam, "--theta", theta, "--axis", axis,
                "--turns", str(turns), "--out", out]
        args = {"lambda0": lam, "theta": theta, "axis": axis, "turns": turns}
        ops.append(Op(f"sweep-{name}", argv, sweep=args, out=out))
    return [ops[i] for i in rng.permutation(len(ops))]


def make_ops(workload: str, seed: int, workdir: str, root: str) -> list:
    """One pass of ``workload``'s invocations, generated from ``seed``."""
    rng = np.random.default_rng(seed)
    if workload == "series":
        return _series(rng, workdir, root)
    if workload == "breakdown":
        return _breakdown(rng, workdir)
    return _sweep(rng, workdir)
