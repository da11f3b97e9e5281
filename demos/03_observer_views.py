"""Observers as coarse-graining channels.

Two labs can disagree about what a chamber holds because they describe it
in different Hilbert spaces.  An observer maps the 4-dimensional ground
truth onto her own smaller space with one isometry per "sector" she cannot
tell apart; measurements she owns lift back to the lab space through the
dual of that channel.
"""

import numpy as np

from qgas import (
    Chamber,
    LabState,
    Povm,
    StatisticalMatrix,
    build_observer,
    canonical_contents,
    coarse_grain,
    identity_observer,
    lift_through,
    measure,
    states_equivalent,
    view,
)

e4 = np.eye(4)
e2 = np.eye(2)

# the lab basis: two species p and d, each with its own z+/z- states.
# tatiana cannot tell the species apart, so both z+ rows map to her z+.
tatiana = build_observer(
    [(e4[0], e2[0]), (e4[1], e2[1]), (e4[2], e2[0]), (e4[3], e2[1])],
    obs_dim=2, name="tatiana",
)
print(f"tatiana has {len(tatiana.sector_isometries)} sectors of the lab space")

p_z = StatisticalMatrix.pure(e4[0])
d_z = StatisticalMatrix.pure(e4[2])
print("both species coarse-grain to the same description:")
print(coarse_grain(tatiana, p_z).matrix.real)
print(coarse_grain(tatiana, d_z).matrix.real)

# a chamber mixing species p in state z+ with species d in state x+
d_x = StatisticalMatrix.pure((e4[2] + e4[3]) / np.sqrt(2))
cell = Chamber("cell", 1.0, 1.0, StatisticalMatrix((p_z.matrix + d_x.matrix) / 2))
lab = LabState(1.0, [cell], 4)

print("\ntatiana's view of the mixed chamber:")
# her view is a lab in her own 2-dim space
for chamber in view(tatiana, lab).chambers.values():
    for weight, state in canonical_contents(chamber):
        print(f"  {weight:.6f} of")
        print(np.round(state.matrix.real, 6))

# her alpha membranes, written in her 2-dim space, act on the lab through
# the dual channel A -> sum_k V_k^dag A V_k: one copy per sector
c8, s8 = np.cos(np.pi / 8), np.sin(np.pi / 8)
her_membranes = Povm.projective([[c8, s8], [-s8, c8]], labels=("a+", "a-"))
lab_membranes = lift_through(tatiana, her_membranes)
print("\nher a+ membrane, lifted to the lab (block diagonal):")
print(np.round(lab_membranes.effects[0].real, 6))

probs = [p for p, _ in measure(lab_membranes, p_z)]
print("lifted membrane on species p in z+:", [round(p, 6) for p in probs])

# equivalence is observer-relative: swap the species and tatiana cannot tell
swapped = Chamber("cell", 1.0, 1.0,
                  StatisticalMatrix((d_z.matrix + d_x.matrix) / 2))
lab_swapped = LabState(1.0, [swapped], 4)
print("\nsame lab for tatiana:",
      states_equivalent(tatiana, lab, lab_swapped))
print("same lab at full resolution:",
      states_equivalent(identity_observer(4), lab, lab_swapped))
