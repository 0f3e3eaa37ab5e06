"""Independent output checks for the phaselab CLI.

Every expected value here is computed from the schedule text or the sweep
arguments with numpy and ``scipy.linalg.expm``; nothing calls phaselab's
numerics, so a defect in the program cannot make its own check pass.
Tolerances are the ones the test suite uses.

Each ``check_*`` function returns a :class:`Checked`: the problems found
(none when the output is correct), the output's row and crossing counts,
and its closure violations: results whose reported
``total - dynamical - geometric`` is more than 1e-4 from 0 mod 2pi.
Violations are recorded, not failed: the program reports them
self-consistently, and the sweep grids at three turns are known to have
them.

The geometric phase is deliberately not compared with the
eigenstate-weighted Pancharatnam sum: at U_T = -I that sum flips branch
on +-pi rounding, so closure is checked instead.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi
SIGMA = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)
DEFAULT_STEPS = 2000  # the CLI's documented --steps default
ORTHOGONALITY_EPS = 1e-9
CROSSING_EPS = 1e-6
CLOSURE_LIMIT = 1e-4
SPOT_ROWS = 8  # series rows whose overlap is recomputed per output

# The builtin four-segment loops: cube-diagonal axes, 2pi/3 each.
BUILTIN_AXES = {
    "plus": ((-1, -1, -1), (1, -1, -1), (-1, -1, 1), (-1, 1, 1)),
    "minus": ((-1, -1, -1), (1, -1, -1), (-1, -1, -1), (1, -1, -1)),
}
BUILTIN_STEP = TWO_PI / 3.0

RUN_FIELDS = [
    "t", "sp_re", "sp_im", "phase_total_principal", "phase_total_unwrapped",
    "phase_dyn", "bloch_x", "bloch_y", "bloch_z", "so3_ax", "so3_ay",
    "so3_az", "so3_angle", "crossing_flag",
]
SWEEP_FIELDS = [
    "lambda0", "theta", "phi_total", "phi_dyn", "phi_geo", "crossings",
    "closure_residual",
]
BREAKDOWN_KEYS = [
    "total", "dynamical", "geometric", "crossings", "parity", "degenerate",
    "closure_residual",
]
AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}


def mod2pi(x: float) -> float:
    """Distance of ``x`` from 0 modulo 2pi."""
    return abs(math.remainder(x, TWO_PI))


def schmidt(lambda0: float, theta: float) -> np.ndarray:
    r0, r1 = math.sqrt(lambda0), math.sqrt(1.0 - lambda0)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([r0 * c, -r1 * s, r0 * s, r1 * c], dtype=complex)


def seg_unitary(axis, duration: float) -> np.ndarray:
    """``exp(-i duration (axis . sigma) / 2)`` by matrix exponential."""
    from scipy.linalg import expm  # imported on first check, so not in peak_rss_mb

    return expm(-0.5j * duration * np.einsum("k,kij->ij", axis, SIGMA))


def bloch(rho: np.ndarray) -> np.ndarray:
    return np.einsum("ij,kji->k", rho, SIGMA).real


@dataclass
class Spec:
    """What a schedule file says, as read by :func:`parse`."""

    state: np.ndarray
    qubit: int = 1
    axes: list = field(default_factory=list)
    durations: list = field(default_factory=list)
    schmidt: tuple | None = None  # (lambda0, theta) when declared that way
    builtins: list = field(default_factory=list)

    @property
    def rho(self) -> np.ndarray:
        """Reduced density matrix of the evolved qubit."""
        a = self.state.reshape(2, 2)
        return a @ a.conj().T if self.qubit == 1 else a.T @ a.conj()

    def boundaries(self):
        """Segment start times and cumulative products before each segment."""
        times, prods = [0.0], [np.eye(2, dtype=complex)]
        for n, d in zip(self.axes, self.durations):
            times.append(times[-1] + d)
            prods.append(seg_unitary(n, d) @ prods[-1])
        return times, prods

    def unitary_at(self, t: float, bounds=None) -> np.ndarray:
        times, prods = bounds or self.boundaries()
        k = max(0, min(len(self.axes) - 1, int(np.searchsorted(times, t, "right")) - 1))
        if not self.axes:
            return prods[0]
        return seg_unitary(self.axes[k], t - times[k]) @ prods[k]

    def final_overlap(self) -> complex:
        return complex(np.trace(self.boundaries()[1][-1] @ self.rho))

    def dynamical(self) -> float:
        """``-(1/2) sum_k (n_k . b_k) d_k`` with b_k the Bloch vector at the
        start of segment k."""
        rho = self.rho
        _, prods = self.boundaries()
        acc = 0.0
        for n, d, u in zip(self.axes, self.durations, prods):
            acc -= 0.5 * float(np.dot(n, bloch(u @ rho @ u.conj().T))) * d
        return acc

    def gap(self) -> float:
        """Eigenvalue gap of the evolved qubit's reduced density matrix."""
        ev = np.linalg.eigvalsh(self.rho)
        return float(ev[1] - ev[0])


def parse(text: str) -> Spec:
    """Read the schedule directives the benchmark's inputs use."""
    spec = None
    qubit = 1
    axes, durs, builtins = [], [], []
    for raw in text.splitlines():
        f = raw.split("#", 1)[0].split()
        if not f or f[0] == "phaselab-schedule":
            continue
        if f[:2] == ["state", "schmidt"]:
            lam, th = float(f[2]), float(f[3])
            spec = Spec(schmidt(lam, th), schmidt=(lam, th))
        elif f[:2] == ["state", "amplitudes"]:
            v = [float(x) for x in f[2:]]
            amps = np.array([complex(v[i], v[i + 1]) for i in range(0, 8, 2)])
            spec = Spec(amps / np.linalg.norm(amps))
        elif f[0] == "evolve-qubit":
            qubit = int(f[1])
        elif f[0] == "segment":
            n = np.array([float(x) for x in f[1:4]])
            axes.append(n / np.linalg.norm(n))
            durs.append(float(f[4]))
        elif f[0] == "builtin":
            builtins.append(f[1])
            for a in BUILTIN_AXES[f[1]]:
                axes.append(np.array(a, dtype=float) / math.sqrt(3.0))
                durs.append(BUILTIN_STEP)
        else:
            raise ValueError(f"oracle parser: unknown directive {raw!r}")
    spec.qubit, spec.axes, spec.durations, spec.builtins = qubit, axes, durs, builtins
    return spec


@dataclass
class Checked:
    problems: list
    rows: int = 0
    crossings: int = 0
    violations: int = 0


def is_cyclic(spec: Spec) -> bool:
    return abs(abs(spec.final_overlap()) - 1.0) <= 1e-6


def _near(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def check_breakdown(spec: Spec, rc: int, stdout: str) -> Checked:
    """``phaselab breakdown``: exit 3 on a non-cyclic schedule, otherwise one
    JSON object whose values agree with the oracles."""
    if not is_cyclic(spec):
        return Checked([] if rc == 3 and not stdout else [f"non-cyclic: rc={rc}"])
    if rc != 0:
        return Checked([f"rc={rc}"])
    try:
        out = json.loads(stdout)
    except ValueError:
        return Checked(["stdout is not JSON"])
    if not isinstance(out, dict):
        return Checked(["stdout is not a JSON object"])
    if list(out) != BREAKDOWN_KEYS:
        return Checked([f"keys {list(out)}"])
    try:
        return _check_breakdown_values(spec, out)
    except (TypeError, ValueError) as exc:  # a value of the wrong type
        return Checked([f"unparsable value: {exc}"])


def _check_breakdown_values(spec: Spec, out: dict) -> Checked:
    bad = []
    total, dyn, geo = out["total"], out["dynamical"], out["geometric"]
    v = spec.final_overlap()
    if mod2pi(total - math.atan2(v.imag, v.real)) > 1e-9:
        bad.append(f"total {total} != arg Tr(U_T rho)")
    if not _near(dyn, spec.dynamical(), 1e-9):
        bad.append(f"dynamical {dyn} != {spec.dynamical()}")
    degenerate = spec.gap() <= 1e-9
    if out["degenerate"] is not degenerate:
        bad.append(f"degenerate {out['degenerate']} != {degenerate}")
    residual = out["closure_residual"]
    violations = 0
    if degenerate:
        if residual is not None or geo != 0.0:
            bad.append(f"degenerate result reports geo {geo}, residual {residual}")
    elif residual is None or not _near(residual, mod2pi(total - dyn - geo), 1e-12):
        bad.append(f"closure_residual {residual} inconsistent")
    else:
        violations = int(residual > CLOSURE_LIMIT)
    crossings = out["crossings"]
    if not isinstance(crossings, int) or crossings < 0:
        return Checked(bad + [f"crossings {crossings!r}"])
    if out["parity"] != ("odd" if crossings % 2 else "even"):
        bad.append(f"parity {out['parity']} with {crossings} crossings")
    if degenerate and out["parity"] != ("odd" if v.real < 0 else "even"):
        bad.append(f"MES parity {out['parity']} but Tr U_T = {2 * v.real:+.3f}")
    bad += _criterion_3(spec, crossings)
    return Checked(bad, 1, crossings, violations)


def _criterion_3(spec: Spec, crossings) -> list:
    """Builtin loops on schmidt(lambda0, 0): at lambda0 = 0.5 plus has 0
    crossings and minus 1; below 0.5 minus has 0."""
    if len(spec.builtins) != 1 or len(spec.axes) != 4 or spec.qubit != 1:
        return []
    if spec.schmidt is None or spec.schmidt[1] != 0.0:
        return []
    lam, kind = spec.schmidt[0], spec.builtins[0]
    if lam == 0.5:
        want = 1 if kind == "minus" else 0
    elif lam < 0.5 and kind == "minus":
        want = 0
    else:
        return []
    return [] if crossings == want else [f"builtin {kind} at {lam}: {crossings} crossings"]


def parse_range(spec: str) -> np.ndarray:
    a, b, n = spec.split(":")
    return np.linspace(float(a), float(b), int(n))


def check_sweep(args: dict, rc: int, csv_text: str) -> Checked:
    """``phaselab sweep``: every grid row against the closed forms for a
    fixed-axis turn with ``b = (2 lambda0 - 1)(sin theta, 0, cos theta)``."""
    if rc != 0:
        return Checked([f"rc={rc}"])
    lines = csv_text.splitlines()
    if not lines or lines[0] != ",".join(SWEEP_FIELDS):
        return Checked(["missing SWEEP_FIELDS header"])
    lams, thetas = parse_range(args["lambda0"]), parse_range(args["theta"])
    turns = int(args["turns"])
    n = np.array(AXES[args["axis"]])
    if len(lines) - 1 != len(lams) * len(thetas):
        return Checked([f"{len(lines) - 1} rows for a {len(lams)}x{len(thetas)} grid"])
    result = Checked([], len(lines) - 1)
    bad = result.problems
    rows = iter(lines[1:])
    for lam in lams:  # lambda0-major
        for th in thetas:
            cells = next(rows).split(",")
            try:
                r_lam, r_th, tot, dyn, geo = (float(c) for c in cells[:5])
                cross, res = int(cells[5]), float(cells[6])
            except (ValueError, IndexError):
                return Checked([f"unparsable row {cells}"])
            where = f"row ({lam}, {th})"
            if not (_near(r_lam, lam, 1e-12) and _near(r_th, th, 1e-12)):
                bad.append(f"{where}: order, got ({r_lam}, {r_th})")
                continue
            nb = (2.0 * lam - 1.0) * float(np.dot(n, (math.sin(th), 0.0, math.cos(th))))
            if mod2pi(tot - turns * math.pi) > 1e-9:
                bad.append(f"{where}: total {tot}")
            if not _near(dyn, -math.pi * turns * nb, 1e-9):
                bad.append(f"{where}: dynamical {dyn}")
            if cross != (turns if abs(nb) <= CROSSING_EPS else 0):
                bad.append(f"{where}: crossings {cross}")
            result.crossings += cross
            if abs(2.0 * lam - 1.0) <= 1e-9:
                if not (math.isnan(res) and geo == 0.0):
                    bad.append(f"{where}: degenerate row reports geo {geo}, residual {res}")
            elif not _near(res, mod2pi(tot - dyn - geo), 1e-12):
                bad.append(f"{where}: closure_residual {res} inconsistent")
            else:
                result.violations += res > CLOSURE_LIMIT
    return result


def load_series_csv(text: str) -> np.ndarray:
    return np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)


def load_series_json(text: str):
    """Rows as an array (null read as NaN); None unless the text is a list
    of objects whose keys are RUN_FIELDS."""
    rows = json.loads(text)
    if not isinstance(rows, list) or any(
        not isinstance(r, dict) or list(r) != RUN_FIELDS for r in rows
    ):
        return None
    return np.array(
        [[math.nan if r[f] is None else r[f] for f in RUN_FIELDS] for r in rows],
        dtype=float,
    ).reshape(len(rows), len(RUN_FIELDS))


def _summary(stdout: str):
    """(final total, crossing count) from the ``run`` summary lines."""
    lines = stdout.splitlines()
    total = float(lines[0].split(": ", 1)[1])
    count, parity = lines[1].split(": ", 1)[1].split()
    if parity != ("(odd)" if int(count) % 2 else "(even)"):
        raise ValueError(f"parity {parity} with {count} crossings")
    return total, int(count)


def check_series(spec: Spec, rc: int, stdout: str, stderr: str, text: str,
                 fmt: str, rng: np.random.Generator) -> Checked:
    """``phaselab run --out``: one output file in CSV or JSON."""
    if rc != 0:
        return Checked([f"rc={rc}"])
    cyclic = is_cyclic(spec)
    if ("not cyclic" in stderr) == cyclic:
        return Checked([f"cyclic={cyclic} but stderr={stderr!r}"])
    try:
        final_total, count = _summary(stdout)
        if fmt == "csv":
            if text.split("\n", 1)[0] != ",".join(RUN_FIELDS):
                return Checked(["missing RUN_FIELDS header"])
            a = load_series_csv(text)
        else:
            a = load_series_json(text)
            if a is None:
                return Checked(["JSON row keys differ from RUN_FIELDS"])
    except (ValueError, IndexError, TypeError) as exc:
        return Checked([f"unparsable output: {exc}"])
    nseg = len(spec.axes)
    want_rows = 1 + nseg * (DEFAULT_STEPS - 1)
    if len(a) != want_rows:
        return Checked([f"{len(a)} rows, expected {want_rows}"])
    t, sp = a[:, 0], a[:, 1] + 1j * a[:, 2]
    prin, unwr, dyn = a[:, 3], a[:, 4], a[:, 5]
    bad = []
    times, prods = spec.boundaries()
    if t[0] != 0.0 or np.any(np.diff(t) <= 0.0) or not _near(t[-1], times[-1], 1e-9):
        bad.append("t does not increase strictly from 0 to the total duration")
    for i in sorted(rng.choice(len(a), size=min(SPOT_ROWS, len(a)), replace=False)):
        want = complex(np.trace(spec.unitary_at(t[i], (times, prods)) @ spec.rho))
        if abs(sp[i] - want) > 1e-9:
            bad.append(f"row {i}: sp {sp[i]} != Tr(U(t) rho) {want}")
    if not _near(dyn[-1], spec.dynamical(), 1e-9):
        bad.append(f"final phase_dyn {dyn[-1]} != {spec.dynamical()}")
    orth = np.abs(sp) <= ORTHOGONALITY_EPS
    if not np.array_equal(np.isnan(prin), orth) or not np.array_equal(np.isnan(unwr), orth):
        bad.append("phase is not nan exactly where |sp| <= 1e-9")
    elif np.any(np.abs(np.remainder(prin[~orth] - np.angle(sp[~orth]) + math.pi, TWO_PI)
                       - math.pi) > 1e-9):
        bad.append("phase_total_principal != arg(sp)")
    if np.any(np.linalg.norm(a[:, 6:9], axis=1) > 1.0 + 1e-9):
        bad.append("|bloch| > 1")
    if np.any((a[:, 12] < 0.0) | (a[:, 12] > math.pi)):
        bad.append("so3_angle outside [0, pi]")
    flags = a[:, 13]
    if not np.all((flags == 0) | (flags == 1)) or int(flags.sum()) != count:
        bad.append(f"crossing_flag sum {flags.sum()} != printed {count}")
    v = spec.final_overlap()
    if abs(v) > ORTHOGONALITY_EPS and mod2pi(final_total - math.atan2(v.imag, v.real)) > 1e-9:
        bad.append(f"final total phase {final_total} != arg Tr(U_T rho)")
    return Checked(bad, len(a), count)


def same_series(csv_text: str, json_text: str) -> bool:
    """The CSV and JSON series of one run hold the same numbers, with
    ``nan`` in CSV exactly where JSON has ``null``."""
    a, b = load_series_csv(csv_text), load_series_json(json_text)
    return b is not None and a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
