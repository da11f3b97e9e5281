"""Best-effort separation of two gases that overlap quantum mechanically.

No membrane passes a z+ particle with certainty while blocking an x+
particle: the states are not orthogonal.  The best membranes project onto
the eigenbasis of the aggregate mixture, which transforms the gases on
the way through and recovers less work than the orthogonal case.
"""

import math

import numpy as np

from qgas import (
    Chamber,
    LabState,
    StatisticalMatrix,
    are_orthogonal,
    canonical_contents,
    measure,
    optimal_separation_povm,
    separate,
)

z_plus = StatisticalMatrix(np.diag([1.0, 0.0]), label="z+")
x_plus = StatisticalMatrix(np.ones((2, 2)) / 2, label="x+")
print("tr(z+ x+) != 0, the gases overlap:", not are_orthogonal(z_plus, x_plus))

# the aggregate half/half mixture and its eigenbasis membranes
aggregate = StatisticalMatrix((z_plus.matrix + x_plus.matrix) / 2)
povm = optimal_separation_povm(aggregate)
print("\nbest membranes (projectors):")
for label, effect in zip(povm.outcome_labels, povm.effects):
    print(f"  {label}:")
    print(np.round(effect.real, 6))

for rho in (z_plus, x_plus):
    probs = [p for p, _ in measure(povm, rho)]
    print(f"outcome probabilities for {rho.label}-gas:",
          [round(p, 6) for p in probs])

cell = Chamber("cell", 1.0, 1.0,
               StatisticalMatrix((z_plus.matrix + x_plus.matrix) / 2))
print("\ncanonical description of the mixed chamber:")
for weight, state in canonical_contents(cell):
    print(f"  {weight:.6f} of")
    print(np.round(state.matrix.real, 6))

lab = LabState(1.0, [cell], 2)
lab, event = separate(lab, "cell", povm, names=("main", "rest"))
print("\nafter the best possible separation:")
for name, chamber in lab.chambers.items():
    print(f"  {name}: V={chamber.volume:.7f} n={chamber.moles:.7f}")

released = -event.heat_absorbed_by_gas
exact = -sum(p * math.log(p) for p in ((2 + math.sqrt(2)) / 4,
                                       (2 - math.sqrt(2)) / 4))
print(f"heat released: {released:.10f} (closed form {exact:.10f})")
print(f"compare the orthogonal case: {math.log(2):.10f}")
