"""Shared random generators and brute-force oracles for the test suite."""

import cmath
import io
import json
import math
import re
from dataclasses import dataclass

import numpy as np

import phaselab as pl
from matrices import evolution_operator, pauli_dot, quaternion_of, su2_to_so3


# the columns run --out writes, in the README's order, spelled out here so
# that the writer's output is checked against the documented schema rather
# than against the PhaseSeries fields the writer reads
RUN_FIELDS = [
    "t", "sp_re", "sp_im", "phase_total_principal", "phase_total_unwrapped", "phase_dyn",
    "bloch_x", "bloch_y", "bloch_z", "so3_ax", "so3_ay", "so3_az", "so3_angle", "crossing_flag",
]


def random_state(rng) -> np.ndarray:
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return v / np.linalg.norm(v)


def random_qubit(rng) -> np.ndarray:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def random_axis(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_su2(rng) -> np.ndarray:
    return evolution_operator(random_axis(rng), float(rng.uniform(0.0, 2.0 * math.pi)))


def random_mes(rng) -> np.ndarray:
    """Random maximally entangled state: local rotations of the Bell state."""
    s = pl.schmidt_state(0.5, 0.0)
    s = pl.apply_local(random_su2(rng), 1, s)
    return pl.apply_local(random_su2(rng), 2, s)


def random_segments(rng, max_segments=6, min_segments=1):
    n = int(rng.integers(min_segments, max_segments + 1))
    return tuple(
        pl.RotationSegment(random_axis(rng), float(rng.uniform(0.3, 6.0)))
        for _ in range(n)
    )


def random_schedule(rng, state=None, max_segments=6):
    if state is None:
        state = random_state(rng)
    qubit = int(rng.integers(1, 3))
    return pl.RotationSchedule(random_segments(rng, max_segments), qubit, state)


def cyclic_completion(segments):
    """Segments followed by their exact inverses in reverse order; the total
    unitary is the identity, so any schedule built this way is cyclic."""
    inverse = tuple(pl.RotationSegment([-x for x in s.axis], s.duration)
                    for s in reversed(segments))
    return tuple(segments) + inverse


def random_cyclic_schedule(rng, state=None, max_prefix=3, extra_turn=False):
    if state is None:
        state = random_state(rng)
    segs = cyclic_completion(random_segments(rng, max_prefix))
    if extra_turn:
        segs = segs + (pl.RotationSegment(np.array([0.0, 0.0, 1.0]), 2.0 * math.pi),)
    return pl.RotationSchedule(segs, int(rng.integers(1, 3)), state)


def evolve(schedule, state=None) -> np.ndarray:
    """Final state of a schedule via the exact boundary product."""
    psi = schedule.initial if state is None else state
    u = pl.unitary_at(schedule, pl.total_duration(schedule))
    return pl.apply_local(u, schedule.evolved_qubit, psi)


def sampled_unitaries(schedule, samples_per_segment) -> list:
    """The sampler's ``(time, cumulative unitary)`` pairs, the unitaries as
    2x2 matrices: ``schedule._unitary_samples`` on the core's boundary
    record."""
    bounds = pl.core._quaternions(schedule.segments)
    times, quats = pl.schedule._unitary_samples(bounds, samples_per_segment)
    return list(zip(times.tolist(), pl.qstate._su2_matrix(quats)))


def kron_apply(u, qubit, state) -> np.ndarray:
    """4x4 matrix-product oracle for apply_local."""
    eye = np.eye(2, dtype=complex)
    big = np.kron(u, eye) if qubit == 1 else np.kron(eye, u)
    return big @ np.asarray(state, dtype=complex)


def brute_partial_trace(state, keep) -> np.ndarray:
    """Index-summation oracle for reduced_density from the 4x4 projector."""
    psi = np.asarray(state, dtype=complex)
    proj = np.outer(psi, psi.conj()).reshape(2, 2, 2, 2)  # [i, j, i', j']
    if keep == 1:
        return np.einsum("ijkj->ik", proj)
    return np.einsum("ijil->jl", proj)


def explicit_bloch(rho) -> np.ndarray:
    """Bloch vector ``Tr(sigma rho)`` of a qubit density matrix, the traces
    written out: ``[2 Re r01, 2 Im r10, Re(r00 - r11)]``."""
    r = np.asarray(rho, dtype=complex)
    return np.array([2.0 * r[0, 1].real, 2.0 * r[1, 0].imag, (r[0, 0] - r[1, 1]).real])


def geometric_phase_pure(path, closed: bool = True) -> float:
    """Discrete overlap-product phase of a pure-state path,
    ``-arg[<p0|p1><p1|p2> ... ]``, with the closing leg appended when
    ``closed``; reported in (-pi, pi].

    Gauge invariant by construction (per-state phase factors cancel
    between adjacent legs) and converges to minus half the enclosed
    signed solid angle as the mesh refines. Raises OrthogonalStep when
    consecutive states are orthogonal.
    """
    arr = np.asarray(path, dtype=complex)
    if arr.ndim != 2 or len(arr) < 3:
        raise pl.DomainError("path must contain at least 3 states")
    legs = np.einsum("kj,kj->k", arr[:-1].conj(), arr[1:])
    if closed:
        legs = np.append(legs, np.vdot(arr[-1], arr[0]))
    if np.any(np.abs(legs) <= pl.ORTHOGONALITY_EPS):
        raise pl.OrthogonalStep("consecutive path states are orthogonal")
    return pl.principal(-float(np.sum(np.angle(legs))))


def triangle_solid_angle(a, b, c) -> float:
    """Signed solid angle of the geodesic triangle through three unit
    Bloch vectors (positive for counterclockwise seen from outside)."""
    num = float(np.dot(a, np.cross(b, c)))
    den = 1.0 + float(np.dot(a, b)) + float(np.dot(b, c)) + float(np.dot(c, a))
    return 2.0 * math.atan2(num, den)


def dynamical_quadrature(s0, schedule, steps_per_segment=20000) -> float:
    """Brute-force midpoint quadrature of -<H> dt along the evolution."""
    psi = np.asarray(s0, dtype=complex)
    q = schedule.evolved_qubit
    acc = 0.0
    for seg in schedule.segments:
        h = pauli_dot(seg.axis) / 2.0
        dt = seg.duration / steps_per_segment
        for k in range(steps_per_segment):
            u = evolution_operator(seg.axis, (k + 0.5) * dt)
            mid = pl.apply_local(u, q, psi)
            rho = pl.reduced_density(mid, q)
            acc -= float(np.trace(h @ rho).real) * dt
        psi = pl.apply_local(evolution_operator(seg.axis, seg.duration), q, psi)
    return acc


def sampled_geometric_phase(s0, schedule, steps_per_segment=2000) -> float:
    """Overlap-product oracle for the mixed geometric phase.

    Each eigenstate of the evolved qubit's reduced density matrix is
    transported sample by sample and its closed overlap-product phase
    taken with :func:`geometric_phase_pure`. The weighted sum needs real
    numbers, not classes mod 2pi, so each phase is moved onto the branch
    where it equals the eigenstate's total phase minus its dynamical
    phase; both come from the samples alone (the total phase on the
    branch nearest the mixed total ``arg Tr(U_T rho)``, the dynamical one
    by trapezoid quadrature of ``-<H> dt``, which only has to pick the
    right branch).
    """
    rho = pl.reduced_density(np.asarray(s0, dtype=complex), schedule.evolved_qubit)
    pur = pl.purify(rho)
    times, units = matrix_unitary_samples(schedule, steps_per_segment)
    # the segment axis active on each sample interval
    ends = np.cumsum([seg.duration for seg in schedule.segments])
    mids = 0.5 * (times[1:] + times[:-1])
    axes = np.array([seg.axis for seg in schedule.segments])[np.searchsorted(ends, mids)]
    tot = cmath.phase(complex(np.trace(units[-1] @ rho)))
    weighted = 0.0
    for weight, vec in ((pur.weight_m, pur.state_m), (pur.weight_n, pur.state_n)):
        path = units @ vec
        barg = geometric_phase_pure(path, closed=True)
        cross = path[:, 0].conj() * path[:, 1]
        b = np.stack([2 * cross.real, 2 * cross.imag,
                      np.abs(path[:, 0]) ** 2 - np.abs(path[:, 1]) ** 2], axis=1)
        h = 0.5 * np.einsum("kj,kj->k", axes, 0.5 * (b[1:] + b[:-1]))
        dyn = -float(np.sum(h * np.diff(times)))
        end = tot + pl.principal(cmath.phase(complex(np.vdot(vec, path[-1]))) - tot)
        weighted += weight * (barg + 2 * math.pi * round((end - dyn - barg) / (2 * math.pi)))
    return pl.principal(weighted)


def dense_crossing_count(s0, schedule, steps_per_segment=4000) -> int:
    """Crossings of the initial-state overlap counted from dense samples:
    consecutive samples (skipping exact zeros) whose overlaps point more
    than a right angle apart. A zero passes between them; a near miss
    needs a minimum below about one step to do the same."""
    rho = pl.reduced_density(np.asarray(s0, dtype=complex), schedule.evolved_qubit)
    _, units = matrix_unitary_samples(schedule, steps_per_segment)
    z = np.einsum("kij,ji->k", units, rho)
    z = z[np.abs(z) > 1e-12]
    return int(np.sum((z[:-1] * z[1:].conj()).real < 0.0))


def loop_unwrap_skipnan(p) -> np.ndarray:
    """Sequential-loop oracle for the minimal-jump unwrap through NaN gaps:
    each defined increment wrapped into (-pi, pi] by ``principal``."""
    out = np.full(len(p), math.nan)
    last = None
    last_out = 0.0
    for i, v in enumerate(p):
        if math.isnan(v):
            continue
        out[i] = v if last is None else last_out + pl.principal(v - last)
        last = v
        last_out = out[i]
    return out


@dataclass(frozen=True, eq=False)
class SO3Point:
    """A rotation as ``(axis, angle)`` in the radius-pi ball, angle in [0, pi].

    Boundary points (angle == pi) are identified with their antipodes and
    the identity carries the canonical axis (0, 0, 1).
    """

    axis: np.ndarray
    angle: float

    def displacement(self) -> np.ndarray:
        """Ball coordinates ``axis * angle``."""
        return self.axis * self.angle

    def same_rotation(self, other: "SO3Point", atol: float = 1e-9) -> bool:
        """Whether ``other`` is this rotation within ``atol``: angles within
        ``atol`` and axes or ball coordinates too, or both near the identity,
        or antipodal points of the boundary."""
        if abs(self.angle - other.angle) > atol:
            return False
        if self.angle <= atol and other.angle <= atol:
            return True
        # near the identity the axis is ill-conditioned, the ball coordinates are not
        if float(np.linalg.norm(self.displacement() - other.displacement())) <= atol:
            return True
        if float(np.linalg.norm(self.axis - other.axis)) <= atol:
            return True
        near_pi = abs(self.angle - math.pi) <= atol
        return near_pi and float(np.linalg.norm(self.axis + other.axis)) <= atol

    def __eq__(self, other):
        if not isinstance(other, SO3Point):
            return NotImplemented
        return self.same_rotation(other)


def so3_point(u):
    """The program's rotation-ball point of an SU(2) matrix: ``geometry._ball``
    on its quaternion."""
    w, v = quaternion_of(u)
    axes, angles = pl.geometry._ball(np.atleast_1d(w), np.atleast_2d(v).T)
    return SO3Point(axes[:, 0], float(angles[0]))


def _cell(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _json_value(x):
    if isinstance(x, (int, np.integer)):
        return int(x)
    x = float(x)
    return None if math.isnan(x) else x


def reference_table_bytes(fields, rows, fmt="csv") -> bytes:
    """Row-by-row reference writer: ``repr`` per cell for CSV, ``json.dump``
    of per-row objects (NaN as null) for JSON."""
    if fmt == "csv":
        text = ",".join(fields) + "\n"
        text += "".join(",".join(_cell(x) for x in row) + "\n" for row in rows)
    else:
        buf = io.StringIO()
        json.dump([dict(zip(fields, (_json_value(x) for x in row))) for row in rows], buf)
        text = buf.getvalue() + "\n"
    return text.encode("utf-8")


def _template_json_cells(values):
    if math.isfinite(sum(values)):
        return values
    return [x if math.isfinite(x) else "null" if math.isnan(x) else json.dumps(x)
            for x in values]


def template_table_bytes(fields, cols, fmt="csv") -> bytes:
    """The row-template writer the blocked ``cli._write_table`` replaced:
    columns as lists, one ``%s`` template per row, so each cell is ``str``
    of a Python float or int."""
    cols = [np.asarray(c).tolist() if isinstance(c, np.ndarray) else list(c) for c in cols]
    if fmt == "csv":
        head, sep, tail = ",".join(fields) + "\n", "", ""
        template = ",".join(["%s"] * len(fields)) + "\n"
    else:
        cols = [_template_json_cells(values) for values in cols]
        head, sep, tail = "[", ", ", "]\n"
        template = "{" + ", ".join(f"{json.dumps(f)}: %s" for f in fields) + "}"
    rows = zip(*cols)
    first = next(rows, None)
    buf = io.StringIO()
    buf.write(head if first is None else head + template % first)
    later = sep + template
    buf.writelines(later % row for row in rows)
    buf.write(tail)
    return buf.getvalue().encode("utf-8")


def reference_run_rows(schedule, steps):
    """``run --out`` rows built from the public ``phase_samples``' columns."""
    series = pl.phase_samples(schedule, steps)
    return list(zip(*(getattr(series, f).tolist() for f in RUN_FIELDS)))


def reference_sweep_rows(lambdas, thetas, axis, turns=1):
    """``sweep`` rows built from the public ``phase_breakdown``."""
    rows = []
    for lam in lambdas:
        for th in thetas:
            state = pl.schmidt_state(float(lam), float(th))
            seg = pl.RotationSegment(np.array(axis, dtype=float), 2.0 * math.pi * turns)
            b = pl.phase_breakdown(pl.RotationSchedule((seg,), 1, state))
            rows.append([float(lam), float(th), b.total, b.dynamical, b.geometric,
                         b.crossings, b.closure_residual])
    return rows


# Matrix oracles for the exact core: the 2x2-matrix forms of the exact
# phase decomposition, on the boundary products B_k as matrices
# (tests/matrices.py), with np.trace, pauli_dot and the purification by eigh.

def matrix_boundaries(schedule):
    """Cumulative end times and the boundary products B_k, k = 0..n, as
    2x2 matrices: products of :func:`matrices.evolution_operator` matrices."""
    times = [0.0]
    prods = [np.eye(2, dtype=complex)]
    for seg in schedule.segments:
        times.append(times[-1] + seg.duration)
        prods.append(evolution_operator(seg.axis, seg.duration) @ prods[-1])
    return times, prods


def _matrix_inputs(s0, schedule):
    rho = pl.reduced_density(np.asarray(s0, dtype=complex), schedule.evolved_qubit)
    return rho, matrix_boundaries(schedule)


def matrix_overlap_zero_times(schedule, rho, bounds) -> list:
    """Zero times of ``Tr(U(t) rho)`` from the matrix boundary products,
    with the same per-segment closed form and junction rules as the core
    (see ``core._scan``), listed one by one."""
    times, prods = bounds
    segs = schedule.segments
    zs = [complex(np.trace(u @ rho)) for u in prods]
    at_zero = [abs(z) <= pl.CROSSING_EPS for z in zs]
    zeros = []
    entered = None
    for k, seg in enumerate(segs):
        m = prods[k] @ rho
        c = complex(np.trace(pauli_dot(seg.axis) @ m))
        if k and at_zero[k] and entered is None:
            entered = (k, complex(np.trace(pauli_dot(segs[k - 1].axis) @ m)))
        if entered is not None:
            if abs(c) <= pl.CROSSING_EPS or (at_zero[k + 1] and seg.duration < math.pi):
                continue
            e = entered[1]
            if (e * c.conjugate()).real > pl.ORTHOGONALITY_EPS * abs(e) * abs(c):
                zeros.append(times[entered[0]])
            entered = None
        a, b = zs[k], -1j * c
        tau = math.atan2((a * b.conjugate()).real, 0.5 * (abs(a) ** 2 - abs(b) ** 2))
        tau += math.pi
        z = a * math.cos(0.5 * tau) + b * math.sin(0.5 * tau)
        if tau >= seg.duration or abs(z) > pl.CROSSING_EPS:
            continue
        last = math.ceil((seg.duration - tau) / (2.0 * math.pi)) - 1
        lo = int(at_zero[k] and tau < math.pi)
        hi = last - int(at_zero[k + 1] and tau + 2.0 * math.pi * last > seg.duration - math.pi)
        zeros.extend(times[k] + (tau + 2.0 * math.pi * j) for j in range(lo, hi + 1))
    return zeros


def _matrix_dynamical(schedule, prods, rho) -> float:
    b0 = explicit_bloch(rho)
    return sum(
        pl.DYNAMICAL_SIGN * 0.25 * seg.duration
        * float(np.dot(b0, explicit_bloch(u.conj().T @ pauli_dot(seg.axis) @ u)))
        for seg, u in zip(schedule.segments, prods))


def _matrix_geometric(final, rho, dyn) -> float:
    pur = pl.purify(rho)
    tot = pl.principal(cmath.phase(complex(np.trace(final @ rho))))
    weighted = 0.0
    for weight, vec in ((pur.weight_m, pur.state_m), (pur.weight_n, pur.state_n)):
        z = complex(np.vdot(vec, final @ vec))
        if abs(z) <= pl.ORTHOGONALITY_EPS:
            raise pl.OrthogonalStep("an eigenstate ends orthogonal to its start")
        arg = pl.principal(cmath.phase(z))
        weighted += weight * (tot + pl.principal(arg - tot))
    return pl.principal(weighted - dyn)


def matrix_dynamical_phase(s0, schedule) -> float:
    rho, (_, prods) = _matrix_inputs(s0, schedule)
    return _matrix_dynamical(schedule, prods, rho)


def matrix_topological_crossings(s0, schedule):
    rho, bounds = _matrix_inputs(s0, schedule)
    count = len(matrix_overlap_zero_times(schedule, rho, bounds))
    return count, ("odd" if count % 2 else "even")


def matrix_readout_probability(s0, schedule) -> float:
    rho, (_, prods) = _matrix_inputs(s0, schedule)
    v = complex(np.trace(prods[-1] @ rho))
    return min(1.0, max(0.0, 0.5 * (1.0 - v.real)))


def matrix_phase_breakdown(s0, schedule):
    """``PhaseBreakdown`` from matrices: ``np.trace`` of the boundary
    products, the purification by ``eigh`` and the Heisenberg-picture
    dynamical rates ``b0 . h_k / 2``."""
    rho, (times, prods) = _matrix_inputs(s0, schedule)
    v = complex(np.trace(prods[-1] @ rho))
    if abs(abs(v) - 1.0) > 1e-6:
        raise pl.NotCyclic(f"final overlap magnitude {abs(v):.9f} differs from 1 beyond 1e-6")
    total = pl.principal(cmath.phase(v))
    dyn = _matrix_dynamical(schedule, prods, rho)
    try:
        geo = _matrix_geometric(prods[-1], rho, dyn)
        degenerate, residual = False, abs(pl.principal(total - dyn - geo))
    except pl.DegenerateSpectrum:
        geo, degenerate, residual = 0.0, True, math.nan
    count = len(matrix_overlap_zero_times(schedule, rho, (times, prods)))
    return pl.PhaseBreakdown(total, dyn, geo, count, "odd" if count % 2 else "even",
                             degenerate, residual)


def matrix_unitary_samples(schedule, samples_per_segment):
    """Sampled times (M,) and cumulative unitaries (M, 2, 2): on segment k,
    ``(cos(tau/2) I - i sin(tau/2) n_k . sigma) B_k``, ending on the exact
    matrix boundary product ``B_{k+1}``."""
    bt, bp = matrix_boundaries(schedule)
    per = samples_per_segment - 1
    times = np.empty(len(schedule.segments) * per + 1)
    units = np.empty((len(times), 2, 2), dtype=complex)
    times[0], units[0] = 0.0, bp[0]
    eye = np.eye(2, dtype=complex)
    for k, seg in enumerate(schedule.segments):
        offs = seg.duration / per * np.arange(1, samples_per_segment)
        c, s = np.cos(0.5 * offs), np.sin(0.5 * offs)
        block = slice(k * per + 1, (k + 1) * per + 1)
        units[block] = (c[:, None, None] * eye - 1j * s[:, None, None] * pauli_dot(seg.axis)) @ bp[k]
        times[block] = bt[k] + offs
        times[block.stop - 1], units[block.stop - 1] = bt[k + 1], bp[k + 1]
    return times, units


def matrix_series_columns(s0, schedule, samples_per_segment):
    """``phases._series_columns`` from matrices: ``sp = Tr(U rho)`` and the
    transported state ``U rho U+`` by einsum, the ball from the matrix
    decode ``su2_to_so3`` of each unit; the dynamical rates, the dynamical
    phase at segment ends and the zero runs are the core's (``core._scan``)."""
    if samples_per_segment < 2:
        raise pl.DomainError("samples_per_segment must be >= 2")
    rho = pl.reduced_density(np.asarray(s0, dtype=complex), schedule.evolved_qubit)
    pauli, bounds = pl.phases._exact_inputs(
        pl.RotationSchedule(schedule.segments, schedule.evolved_qubit, s0))
    times, units = matrix_unitary_samples(schedule, samples_per_segment)
    sps = np.einsum("kij,ji->k", units, rho)
    rhot = np.einsum("kij,jl,kml->kim", units, rho, units.conj())
    blochs = (2.0 * rhot[:, 0, 1].real, 2.0 * rhot[:, 1, 0].imag,
              (rhot[:, 0, 0] - rhot[:, 1, 1]).real)
    raw = np.where(np.abs(sps) > pl.ORTHOGONALITY_EPS, np.angle(sps), math.nan)
    dyn = np.zeros(len(times))
    per = samples_per_segment - 1
    _, rates, ends, runs = pl.core._scan(pauli, bounds)
    for k, rate in enumerate(rates):
        sl = slice(k * per + 1, (k + 1) * per + 1)
        dyn[sl] = ends[k] + rate * (times[sl] - times[k * per])
        dyn[(k + 1) * per] = ends[k + 1]
    balls = [su2_to_so3(u) for u in units]
    axes, angles = np.array([a for a, _ in balls]), np.array([t for _, t in balls])
    zeros = pl.core.ZeroTimes(bounds[0], runs)
    flags = np.zeros(len(times), dtype=int)
    for z in zeros:
        flags[min(int(np.searchsorted(times, z)), len(times) - 1)] = 1
    columns = (times, sps.real, sps.imag, np.where(raw == -math.pi, math.pi, raw),
               loop_unwrap_skipnan(raw), dyn, *blochs, *axes.T, angles)
    return columns, flags, zeros


# The documented number grammar as regular expressions, ASCII only
_DECIMAL = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?", re.ASCII)
_INTEGER = re.compile(r"[+-]?\d+", re.ASCII)


def regex_number(token: str, kind=float):
    """The oracle of ``schedule._number``: ``kind(token)`` for a token the
    grammar's expression matches whole, any spelling of inf or nan that
    ``float`` takes as a float, and ValueError for every other token."""
    if (_INTEGER if kind is int else _DECIMAL).fullmatch(token):
        return kind(token)
    x = float(token)
    if kind is int or math.isfinite(x):
        raise ValueError(f"not a number of the documented grammar: {token!r}")
    return x
