"""One precessing qubit: how a full turn splits into dynamical and
geometric parts.

A product state (lambda0 = 1) puts the evolved qubit at polar angle theta
on its Bloch sphere. One full turn about z always returns the ray with
total phase pi, but the split between the dynamical part (-pi cos(theta))
and the geometric part (-pi (1 - cos(theta)), half the enclosed cap area
with a sign) moves with the latitude. This script sweeps theta and prints
the decomposition next to the closed forms.

Run:  python3 demos/single_qubit_cycle.py
"""

import math

import numpy as np

import phaselab as pl

Z = np.array([0.0, 0.0, 1.0])

print(f"{'theta':>8}  {'dynamical':>12} {'closed':>9}  "
      f"{'geometric':>12} {'closed':>9}  {'mod-2pi dist':>12}  {'total':>8}")
for k in range(7):
    theta = k * math.pi / 6
    state = pl.schmidt_state(1.0, theta)
    sched = pl.RotationSchedule((pl.RotationSegment(Z, 2 * math.pi),), 1, state)

    dyn = pl.dynamical_phase(sched)
    geo = pl.geometric_phase_mixed(sched)
    final = pl.apply_local(pl.unitary_at(sched, 2 * math.pi), 1, state)
    total = pl.total_phase(state, final)

    closed_dyn = -math.pi * math.cos(theta)
    closed_geo = -math.pi * (1 - math.cos(theta))
    dist = abs(pl.principal(geo - closed_geo))
    print(f"{theta:8.4f}  {dyn:12.6f} {closed_dyn:9.4f}  "
          f"{geo:12.6f} {closed_geo:9.4f}  {dist:12.2e}  {total:8.4f}")

print("\nEvery row sums to pi modulo 2 pi: the split moves, the total does not.")
print("(phases are principal values, so -pi and +pi name the same angle)")
