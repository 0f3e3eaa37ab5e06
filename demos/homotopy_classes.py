"""Two loops, two homotopy classes: the builtin plus and minus trajectories.

Both builtin four-segment schedules return any Schmidt state to its
initial ray, yet the "plus" loop is contractible in the rotation ball
(total phase 0) while the "minus" loop crosses the antipodally identified
border once (total phase pi). For the maximally entangled state the
overlap with the initial state is real, the crossing is a genuine zero,
and no dynamical or geometric phase exists; for partially entangled
states the overlap never vanishes and the same pi emerges from the
dynamical + geometric split instead. The phase swing near the border
sharpens as lambda0 approaches 1/2.

Run:  python3 demos/homotopy_classes.py
"""

import math

import numpy as np

import phaselab as pl

print("final phases and border crossings")
print(f"{'lambda0':>8} {'trajectory':>10} {'total':>10} {'crossings':>10} {'P(click)':>9}")
for lam in (0.3, 0.4, 0.48, 0.5):
    state = pl.schmidt_state(lam, 0.0)
    for name, table in (("plus", pl.builtin_plus()), ("minus", pl.builtin_minus())):
        sched = pl.RotationSchedule(tuple(table), 1, state)
        final = pl.apply_local(
            pl.unitary_at(sched, pl.total_duration(sched)), 1, state)
        total = pl.total_phase(state, final)
        count, _ = pl.topological_crossings(sched)
        p = pl.readout_probability(sched)
        print(f"{lam:8.2f} {name:>10} {total:10.6f} {count:10d} {p:9.6f}")

print("\nsharpening of the minus-trajectory phase swing")
print(f"{'lambda0':>8} {'max |d phase / dt|':>20}")
for lam in (0.3, 0.4, 0.48):
    state = pl.schmidt_state(lam, 0.0)
    sched = pl.RotationSchedule(tuple(pl.builtin_minus()), 1, state)
    series = pl.phase_samples(sched, 4000)
    t, u = series.t, series.phase_total_unwrapped
    keep = ~np.isnan(u)
    slope = float(np.max(np.abs(np.diff(u[keep]) / np.diff(t[keep]))))
    print(f"{lam:8.2f} {slope:20.3f}")

print("\nAt lambda0 = 1/2 the swing becomes a discontinuity: the pi is topological.")
