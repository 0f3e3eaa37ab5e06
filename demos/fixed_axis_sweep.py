"""Entanglement sweep for one full turn about a fixed axis.

For the two-parameter Schmidt family the dynamical and geometric phases
of a 2 pi z rotation have closed forms, scaled by the entanglement
parameter (2 lambda0 - 1); their sum is always pi modulo 2 pi. This
script evaluates the numerical decomposition over a (lambda0, theta)
grid, checks it against the closed forms (which carry the opposite
overall sign convention), and writes the grid to sweep.csv, the same
table the command line front end produces with:

    phaselab sweep --lambda0 0:1:11 --theta 0:3.14159:9 --out sweep.csv

Run:  python3 demos/fixed_axis_sweep.py
"""

import math

import numpy as np

import phaselab as pl

Z = np.array([0.0, 0.0, 1.0])

rows = []
worst_sum = 0.0
for lam in (0.0, 0.1, 0.25, 0.4, 0.6, 0.75, 0.9, 1.0):
    for j in range(5):
        theta = j * math.pi / 4
        state = pl.schmidt_state(lam, theta)
        sched = pl.RotationSchedule((pl.RotationSegment(Z, 2 * math.pi),), 1, state)
        b = pl.phase_breakdown(sched)
        cf_d, cf_g, _ = pl.fixed_axis_closed_forms(lam, theta)
        rows.append((lam, theta, b.dynamical, -cf_d, b.geometric,
                     pl.principal(-cf_g)))
        worst_sum = max(worst_sum, abs(pl.principal(b.dynamical + b.geometric - math.pi)))

print(f"{'lambda0':>8} {'theta':>7}  {'dyn':>9} {'closed':>9}  {'geo':>9} {'closed':>9}")
for lam, theta, dyn, cd, geo, cg in rows:
    print(f"{lam:8.2f} {theta:7.4f}  {dyn:9.5f} {cd:9.5f}  {geo:9.5f} {cg:9.5f}")
print(f"\nworst |dyn + geo - pi| over the grid (mod 2 pi): {worst_sum:.2e}")

with open("sweep.csv", "w", encoding="utf-8") as fh:
    fh.write("lambda0,theta,phi_dyn,phi_geo\n")
    for lam, theta, dyn, _, geo, _ in rows:
        fh.write(f"{lam!r},{theta!r},{dyn!r},{geo!r}\n")
print("wrote sweep.csv")
