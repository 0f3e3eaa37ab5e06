"""A tour of the state geometry: base coordinates, Bloch ball, rotation ball.

A pure two-qubit state projects onto five base coordinates on the unit
4-sphere. Three of them form the reduced Bloch vector of the first
qubit, confined to a ball whose radius shrinks with entanglement
(radius = sqrt(1 - concurrence^2)); the other two carry the concurrence.
A schedule's cumulative rotation traces a path in the radius-pi rotation
ball with antipodal border identification; the path's border crossings
are the topological ingredient of the total phase.

Run:  python3 demos/geometry_tour.py
"""

import math

import numpy as np

import phaselab as pl

print("base coordinates and ball radius across the entanglement range")
print(f"{'lambda0':>8} {'concurrence':>12} {'ball radius':>12}  base point (x, y, z, c_r, c_i)")
for lam in (0.0, 0.1, 0.3, 0.5, 0.7, 1.0):
    s = pl.schmidt_state(lam, math.pi / 3)
    c = pl.hopf_coords(s)
    print(f"{lam:8.2f} {pl.concurrence(s):12.6f} {pl.ball_radius(s):12.6f}  "
          + "(" + ", ".join(f"{v:+.4f}" for v in c) + ")")

print("\npurifying the reduced state of a partially entangled qubit")
rho = pl.reduced_density(pl.schmidt_state(0.3, 0.8), 1)
p = pl.purify(rho)
print(f"weights: {p.weight_m:.3f} and {p.weight_n:.3f}")
print("Bloch vectors:",
      np.round(pl.bloch_of_pure(p.state_m), 6),
      np.round(pl.bloch_of_pure(p.state_n), 6),
      "(antipodal)")

print("\nthe minus trajectory in the rotation ball")
mes = pl.schmidt_state(0.5, 0.0)
sched = pl.RotationSchedule(tuple(pl.builtin_minus()), 1, mes)
path = pl.so3_path(sched, 400)
every = len(path.times) // 8
displacements = path.axes * path.angles[:, None]  # ball coordinates axis * angle
for t, angle, d, w in zip(path.times[::every], path.angles[::every], displacements[::every],
                          path.cos_half_angle[::every]):
    print(f"t = {t:7.4f}  angle = {angle:6.4f}  "
          f"displacement = ({d[0]:+.3f}, {d[1]:+.3f}, {d[2]:+.3f})  cos(half) = {w:+.4f}")
print(f"border crossings at t = {[round(c, 6) for c in path.crossings]}"
      f"  (the border is reached exactly at 4 pi / 3 = {4 * math.pi / 3:.6f})")
