"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line; run with ``pytest -s`` to see them.
"""

import math

import numpy as np

import phaselab as pl
from helpers import (
    cyclic_completion,
    evolve,
    explicit_bloch,
    matrix_unitary_samples,
    random_mes,
    random_qubit,
    random_schedule,
    random_segments,
    random_state,
    random_su2,
    so3_point,
)

Z_AXIS = np.array([0.0, 0.0, 1.0])


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'}  {criterion}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def z_turn(state, turns=1):
    return pl.RotationSchedule(
        (pl.RotationSegment(Z_AXIS.copy(), 2 * math.pi * turns),), 1, state)


def test_criterion_1_single_qubit_cyclic_law():
    """theta grid, lambda0 = 1, one z turn, N = 1e5: phi_d = -pi cos(theta)
    within 1e-6, phi_g = -pi (1 - cos(theta)) within 1e-4 mod 2pi, total
    phase pi within 1e-10."""
    worst_d = worst_g = worst_t = 0.0
    for k in range(7):
        theta = k * math.pi / 6
        s = pl.schmidt_state(1.0, theta)
        sched = z_turn(s)
        dyn = pl.dynamical_phase(sched)
        geo = pl.geometric_phase_mixed(sched)
        tot = pl.total_phase(s, evolve(sched))
        worst_d = max(worst_d, abs(dyn - (-math.pi * math.cos(theta))))
        worst_g = max(worst_g, abs(pl.principal(geo - (-math.pi * (1 - math.cos(theta))))))
        worst_t = max(worst_t, abs(pl.principal(tot - math.pi)))
    ok = worst_d < 1e-6 and worst_g < 1e-4 and worst_t < 1e-10
    report("criterion 1: single-qubit cyclic law", ok,
           f"dyn {worst_d:.2e}, geo {worst_g:.2e}, total {worst_t:.2e}")


def test_criterion_2_fixed_axis_closed_forms():
    """lambda0 in {0,...,1} minus 0.5, theta in {0, pi/8, ..., pi}: computed
    phi_d and phi_g match the closed forms up to the documented overall
    sign within 1e-4 mod 2pi, and phi_g + phi_d = pi within 1e-4."""
    worst_d = worst_g = worst_sum = 0.0
    for lam in [k / 10 for k in range(11) if k != 5]:
        for j in range(9):
            theta = j * math.pi / 8
            s = pl.schmidt_state(lam, theta)
            b = pl.phase_breakdown(z_turn(s))
            cf_d, cf_g, _ = pl.fixed_axis_closed_forms(lam, theta)
            worst_d = max(worst_d, abs(pl.principal(b.dynamical - (-cf_d))))
            worst_g = max(worst_g, abs(pl.principal(b.geometric - (-cf_g))))
            worst_sum = max(worst_sum, abs(pl.principal(b.geometric + b.dynamical - math.pi)))
    ok = worst_d < 1e-4 and worst_g < 1e-4 and worst_sum < 1e-4
    report("criterion 2: fixed-axis two-qubit closed forms", ok,
           f"dyn {worst_d:.2e}, geo {worst_g:.2e}, sum {worst_sum:.2e}")


def test_criterion_3_homotopy_classes():
    """Builtin plus ends at total 0 and minus at pi (1e-6) for lambda0 in
    {0.3, 0.4, 0.48, 0.5}; crossings: plus 0 and minus 1 at lambda0 = 0.5,
    minus 0 below it."""
    ok = True
    details = []
    for lam in (0.3, 0.4, 0.48, 0.5):
        s = pl.schmidt_state(lam, 0.0)
        plus = pl.RotationSchedule(tuple(pl.builtin_plus()), 1, s)
        minus = pl.RotationSchedule(tuple(pl.builtin_minus()), 1, s)
        tp = pl.total_phase(s, evolve(plus))
        tm = pl.total_phase(s, evolve(minus))
        cp, _ = pl.topological_crossings(plus)
        cm, _ = pl.topological_crossings(minus)
        ok &= abs(pl.principal(tp)) < 1e-6
        ok &= abs(pl.principal(tm - math.pi)) < 1e-6
        if lam == 0.5:
            ok &= cp == 0 and cm == 1
        else:
            ok &= cm == 0
        details.append(f"lam={lam}: plus {tp:+.1e}/{cp}, minus {tm:+.6f}/{cm}")
    report("criterion 3: homotopy classes of the builtin trajectories", ok,
           "; ".join(details[-2:]))


def test_criterion_4_sharpening():
    """For the minus trajectory the maximum |d(unwrapped total)/dt| grows
    strictly across lambda0 = 0.3 -> 0.4 -> 0.48 (N = 4000 per segment)."""
    slopes = []
    for lam in (0.3, 0.4, 0.48):
        s = pl.schmidt_state(lam, 0.0)
        sched = pl.RotationSchedule(tuple(pl.builtin_minus()), 1, s)
        series = pl.phase_samples(sched, 4000)
        t, u = series.t, series.phase_total_unwrapped
        keep = ~np.isnan(u)
        slope = np.max(np.abs(np.diff(u[keep]) / np.diff(t[keep])))
        slopes.append(float(slope))
    ok = slopes[0] < slopes[1] < slopes[2]
    report("criterion 4: phase curves sharpen toward the entangled limit", ok,
           "max slopes " + ", ".join(f"{x:.2f}" for x in slopes))


def test_criterion_5_trace_identity_and_sp_formula():
    """200 random (state, schedule) pairs, against the overlap that
    ``run --out`` prints (``sp_re``, ``sp_im`` and ``phase_total_principal``
    of ``phases._series_columns``): its phase arg Tr[U rho] and the pure
    overlap phase arg<psi0|U x I|psi0> agree within 1e-10 at every defined
    sample; on first segments the overlap matches the pure overlap and the
    closed form cos(t/2) - i (n . b0) sin(t/2) within 1e-10."""
    rng = np.random.default_rng(2024)
    worst = worst_sp = 0.0
    for _ in range(200):
        sched = random_schedule(rng, max_segments=6)
        s, q = sched.initial, sched.evolved_qubit
        rho, bounds = pl.core._exact_inputs(sched)
        series = pl.phases._series_columns(rho, bounds, *pl.core._scan(rho, bounds)[1:], 30)
        b0 = explicit_bloch(pl.reduced_density(s, q))
        first = sched.segments[0]
        _, units = matrix_unitary_samples(sched, 30)
        cols = (series.t, series.sp_re, series.sp_im, series.phase_total_principal)
        for t, re, im, m, u in zip(*(c.tolist() for c in cols), units):
            psi = pl.apply_local(u, q, s)
            a = pl.total_phase(s, psi)
            if not (math.isnan(a) or math.isnan(m)):
                worst = max(worst, abs(pl.principal(a - m)))
            if t <= first.duration:
                sp = complex(re, im)
                closed = complex(math.cos(t / 2), -float(np.dot(first.axis, b0)) * math.sin(t / 2))
                worst_sp = max(worst_sp, abs(sp - pl.inner_product(s, psi)), abs(sp - closed))
    ok = worst < 1e-10 and worst_sp < 1e-10
    report("criterion 5: trace identity and single-segment closed form", ok,
           f"trace {worst:.2e}, sp {worst_sp:.2e}")


def test_criterion_6_n_pi_theorem():
    """100 random cyclic schedules (prefix plus exact inverse) on random
    states: |sin(total phase)| < 1e-6."""
    rng = np.random.default_rng(2025)
    worst = 0.0
    for _ in range(100):
        s = random_state(rng)
        segs = cyclic_completion(random_segments(rng, max_segments=3))
        sched = pl.RotationSchedule(segs, int(rng.integers(1, 3)), s)
        tp = pl.total_phase(s, evolve(sched))
        worst = max(worst, abs(math.sin(tp)))
    ok = worst < 1e-6
    report("criterion 6: cyclic evolutions gain multiples of pi", ok,
           f"max |sin| {worst:.2e}")


def test_criterion_7_geometry_suite():
    """Property tests over >= 1000 random cases each: 4-sphere constraint,
    concurrence invariance under local unitaries, radius consistency,
    antipodal identification, purification reconstruction."""
    rng = np.random.default_rng(2026)
    worst_s4 = worst_conc = worst_rad = worst_rebuild = 0.0
    antipodal_ok = True
    purified = 0
    for _ in range(1000):
        s = random_state(rng)
        c = pl.hopf_coords(s)
        worst_s4 = max(worst_s4, abs(float(np.sum(c * c)) - 1.0))
        u = random_su2(rng)
        q = int(rng.integers(1, 3))
        worst_conc = max(
            worst_conc, abs(pl.concurrence(pl.apply_local(u, q, s)) - pl.concurrence(s)))
        b = explicit_bloch(pl.reduced_density(s, 1))
        worst_rad = max(worst_rad, abs(pl.ball_radius(s) - float(np.linalg.norm(b))))
        antipodal_ok &= so3_point(u) == so3_point(-u)
        rho = pl.reduced_density(s, 1)
        try:
            p = pl.purify(rho)
        except pl.DegenerateSpectrum:
            continue
        purified += 1
        rebuilt = (p.weight_m * np.outer(p.state_m, p.state_m.conj())
                   + p.weight_n * np.outer(p.state_n, p.state_n.conj()))
        worst_rebuild = max(worst_rebuild, float(np.max(np.abs(rebuilt - rho))))
    ok = (worst_s4 < 1e-9 and worst_conc < 1e-12 and worst_rad < 1e-9
          and antipodal_ok and worst_rebuild < 1e-9 and purified >= 990)
    report("criterion 7: geometry property suite", ok,
           f"s4 {worst_s4:.1e}, conc {worst_conc:.1e}, rad {worst_rad:.1e}, "
           f"rebuild {worst_rebuild:.1e}, purified {purified}")


def test_criterion_8_readout_protocol():
    """P = (1 - cos(total)) / 2 within 1e-10 on every cyclic acceptance
    schedule; the maximally entangled minus run clicks with certainty and
    the plus run never does."""
    worst = 0.0
    runs = []
    for lam in (0.3, 0.4, 0.48, 0.5):
        s = pl.schmidt_state(lam, 0.0)
        runs.append(pl.RotationSchedule(tuple(pl.builtin_plus()), 1, s))
        runs.append(pl.RotationSchedule(tuple(pl.builtin_minus()), 1, s))
    for lam in (0.0, 0.2, 0.7, 1.0):
        for theta in (0.0, math.pi / 3, math.pi / 2):
            runs.append(z_turn(pl.schmidt_state(lam, theta)))
    for sched in runs:
        s = sched.initial
        tp = pl.total_phase(s, evolve(sched))
        p = pl.readout_probability(sched)
        worst = max(worst, abs(p - 0.5 * (1 - math.cos(tp))))
    mes = pl.schmidt_state(0.5, 0.0)
    p_minus = pl.readout_probability(pl.RotationSchedule(tuple(pl.builtin_minus()), 1, mes))
    p_plus = pl.readout_probability(pl.RotationSchedule(tuple(pl.builtin_plus()), 1, mes))
    ok = worst < 1e-10 and abs(p_minus - 1.0) < 1e-10 and p_plus < 1e-10
    report("criterion 8: interferometric readout", ok,
           f"max |P - (1-cos)/2| {worst:.2e}, P(minus) {p_minus}, P(plus) {p_plus}")


def test_parity_law_on_random_mes_schedules():
    """Supporting property: crossing parity odd iff total phase is pi, for
    100 random cyclic schedules on random maximally entangled states."""
    rng = np.random.default_rng(2027)
    ok = True
    for _ in range(100):
        mes = random_mes(rng)
        segs = cyclic_completion(random_segments(rng, max_segments=3))
        if rng.integers(0, 2):
            segs = segs + (pl.RotationSegment(Z_AXIS.copy(), 2 * math.pi),)
        q = int(rng.integers(1, 3))
        sched = pl.RotationSchedule(segs, q, mes)
        _, parity = pl.topological_crossings(sched)
        tp = pl.total_phase(mes, evolve(sched))
        want = "odd" if abs(pl.principal(tp - math.pi)) < 1e-6 else "even"
        ok &= parity == want
    report("parity law: border crossings match the total phase", ok)
