"""The classical twin of the quantum cycle: two varieties of argon.

Nothing quantum is needed to manufacture an apparent violation.  If johann
cannot tell two argon varieties apart, a colleague with better membranes
can mix "identical" chambers and extract work; johann then reinserts the
wall and sees a closed cycle that absorbed heat.  The informed audit shows
the same books describe an open cycle with an unpaid separation debt.
"""

from qgas import run_demo

print("=== species-blind audit ===")
result = run_demo("jaynes-johann")
for event in result.ledger.events:
    print(f"  step {event.step_index}: {event.kind:<10}"
          f" Q={event.heat_absorbed_by_gas:+.6f}  {event.description}")
verdict = result.verdicts[0]
print(f"  johann: cycle_closed={verdict.cycle_closed},"
      f" Q/T={verdict.q_over_t:+.6f}, {verdict.classification}")

print()
print("=== informed audit of the same cycle ===")
result = run_demo("jaynes-marie")
for verdict in result.verdicts:
    print(f"  marie: cycle_closed={verdict.cycle_closed},"
          f" Q/T={verdict.q_over_t:+.6f}, {verdict.classification}")

print()
print("marie's mid-run audit refuses to apply the cyclic second law at all")
print("(open cycle), and after she pays ln 2 to re-separate the varieties")
print("the truly closed cycle nets exactly zero.")

print()
print("final chamber contents at full resolution:")
for name, chamber in result.final_state.chambers.items():
    labels = [chamber.state.label or "gas"]
    print(f"  {name}: V={chamber.volume:.3f} n={chamber.moles:.3f} {labels}")
