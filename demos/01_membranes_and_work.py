"""Membranes, statistical matrices, and the isothermal work ledger.

A quantum ideal gas is an ideal gas whose particles all carry the same
internal quantum state.  A semi-permeable membrane applies a two-outcome
measurement to each particle and transmits or reflects it, so moving a
membrane through a chamber converts distinguishability into work.
"""

import math

import numpy as np

from qgas import (
    Chamber,
    LabState,
    Povm,
    StatisticalMatrix,
    are_orthogonal,
    isothermal_work,
    measure,
    mix,
    separate,
)

# two perfectly distinguishable internal states
z_up = StatisticalMatrix(np.diag([1.0, 0.0]), label="z+")
z_down = StatisticalMatrix(np.diag([0.0, 1.0]), label="z-")
print("tr(z+ z-) = 0, so the gases are distinguishable:",
      are_orthogonal(z_up, z_down))

# the matching membranes: one passes z+, the other passes z-
membranes = Povm.projective([[1, 0], [0, 1]], labels=("z+", "z-"))
for outcome in measure(membranes, z_up):
    print(f"  outcome p={outcome.probability:.3f}"
          f" post={outcome.post_state}")

# the work formula itself: compressing 1 mol into half its volume at T=1
print("\nisothermal work for V -> V/2:", isothermal_work(1, 1, 1.0, 0.5))
print("expected -ln 2            :", -math.log(2))

# a chamber holding half a mole of each gas
cell = Chamber("cell", 1.0, 1.0,
               StatisticalMatrix((z_up.matrix + z_down.matrix) / 2))
lab = LabState(1.0, {"cell": cell}, 2)

lab, event = separate(lab, "cell", membranes, names=("top", "bottom"))
print("\nafter separation:")
for name, chamber in lab.chambers.items():
    print(f"  {name}: V={chamber.volume:.3f} n={chamber.moles:.3f}")
print("heat absorbed by the gas:", event.heat_absorbed_by_gas)
print("(the gas RELEASED ln 2 = 0.693... while we pushed the membranes)")

# the inverse process gives the work back
lab, event = mix(lab, "top", "bottom", membranes, name="cell", step_index=1)
print("\nre-mixing absorbs:", event.heat_absorbed_by_gas)
