"""Second-law verdicts over ledger spans.

No entropy formula is ever evaluated here.  The only assumption is that a
closed cycle has zero entropy change, so for an isothermal span that an
observer sees as a closed cycle the Clausius inequality reads Q/T <= 0.
A span that is *not* closed for the observer supports no second-law claim
at all; the verdict then is open_cycle, not a violation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import CLOSURE_TOL
from .observers import Observer, states_equivalent
from .thermo import LabState, Ledger

CONSISTENT = "consistent"
APPARENT_VIOLATION = "apparent_violation"
OPEN_CYCLE = "open_cycle"


@dataclass(frozen=True)
class Verdict:
    """Outcome of auditing one ledger span through one observer's eyes."""

    observer: str
    from_checkpoint: str
    q_total: float
    q_over_t: float
    cycle_closed: bool
    classification: str


def classify(cycle_closed: bool, q_over_t: float, threshold: float) -> str:
    if not cycle_closed:
        return OPEN_CYCLE
    return APPARENT_VIOLATION if q_over_t > threshold else CONSISTENT


def audit(ledger: Ledger, obs: Observer, from_label: str, current: LabState,
          tol: float = CLOSURE_TOL) -> Verdict:
    """Total up Q/T since a checkpoint and judge it through one observer.

    The cycle counts as closed when the checkpointed lab state and the
    current one are equivalent for this observer; differing chamber layouts
    simply mean the cycle is open.  A closed span is an apparent violation
    when Q/(nT) > tol, n the moles in the lab, so the verdict does not
    depend on how much gas there is.
    """
    checkpoint = ledger.resolve(from_label)
    q_total = ledger.q_total_since(from_label)
    q_over_t = q_total / current.temperature
    closed = states_equivalent(obs, checkpoint.state, current, tol)
    return Verdict(
        observer=obs.name,
        from_checkpoint=from_label,
        q_total=q_total,
        q_over_t=q_over_t,
        cycle_closed=closed,
        classification=classify(closed, q_over_t,
                                tol * checkpoint.state.total_moles()),
    )
