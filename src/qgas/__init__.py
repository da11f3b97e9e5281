"""qgas: membrane thought experiments on quantum ideal gases.

The package simulates chambers of isothermal ideal gases whose particles
carry a small quantum degree of freedom, drives semi-permeable membranes
(POVMs) through them while keeping an exact work/heat ledger, re-describes
the lab through observer-specific coarse-graining channels, and renders
second-law verdicts per observer.  A small protocol language scripts the
experiments; six classic demonstrations ship as bundled protocols.
"""

from . import linalg
from .audit import APPARENT_VIOLATION, CONSISTENT, OPEN_CYCLE, Verdict, audit
from .errors import (
    AssertClosedError,
    BasisError,
    DimensionError,
    DomainError,
    EmbeddingError,
    EmptyChamberError,
    IndistinguishableError,
    NotHermitianError,
    ParseError,
    PovmError,
    ProtocolRuntimeError,
    QgasError,
    StateError,
    UnitaryError,
    UnknownChamberError,
    UnknownCheckpointError,
)
from .linalg import hermitian_eig, trace_product
from .observers import (
    Observer,
    build_observer,
    coarse_grain,
    identity_observer,
    lift_through,
    states_equivalent,
    view,
)
from .protocol import (
    DEMO_NAMES,
    ExecutionResult,
    ProtocolAst,
    demo_source,
    execute,
    parse,
    render,
    run_demo,
)
from .quantum import (
    Povm,
    StatisticalMatrix,
    are_orthogonal,
    measure,
    optimal_separation_povm,
)
from .thermo import (
    Chamber,
    LabState,
    Ledger,
    LedgerEvent,
    canonical_contents,
    isothermal_work,
    join,
    mix,
    partition,
    rotate,
    rotation_unitary,
    separate,
)

__version__ = "0.1.0"

__all__ = [
    "APPARENT_VIOLATION",
    "CONSISTENT",
    "OPEN_CYCLE",
    "AssertClosedError",
    "BasisError",
    "Chamber",
    "DEMO_NAMES",
    "DimensionError",
    "DomainError",
    "EmbeddingError",
    "EmptyChamberError",
    "ExecutionResult",
    "IndistinguishableError",
    "LabState",
    "Ledger",
    "LedgerEvent",
    "NotHermitianError",
    "Observer",
    "ParseError",
    "Povm",
    "PovmError",
    "ProtocolAst",
    "ProtocolRuntimeError",
    "QgasError",
    "StateError",
    "StatisticalMatrix",
    "UnitaryError",
    "UnknownChamberError",
    "UnknownCheckpointError",
    "Verdict",
    "are_orthogonal",
    "audit",
    "build_observer",
    "canonical_contents",
    "coarse_grain",
    "demo_source",
    "execute",
    "hermitian_eig",
    "identity_observer",
    "isothermal_work",
    "join",
    "lift_through",
    "linalg",
    "measure",
    "mix",
    "optimal_separation_povm",
    "parse",
    "partition",
    "render",
    "rotate",
    "rotation_unitary",
    "run_demo",
    "separate",
    "states_equivalent",
    "trace_product",
    "view",
]
