"""Thermal entanglement and teleportation quality of a two-spin XX impurity chain.

The package computes Gibbs states of a two-site spin-1/2 XX exchange model
whose first site carries an extra impurity field, and from them the
concurrence, the singlet fraction and optimal standard-teleportation
fidelity, the temperatures at which entanglement and quantum-beating
fidelity disappear, and the envelope relation tying those two temperatures
together. Every closed form ships with an independent cross-check route.
"""

__version__ = "0.1.0"

from .entanglement import (
    CriticalFields,
    concurrence_closed_form,
    concurrence_wootters,
    critical_fields,
    entanglement_critical_temp,
)
from .model import (
    BASIS_LABELS,
    ChainParams,
    ClosedFormUnavailableError,
    Temperature,
    XStateCoefficients,
    build_hamiltonian,
    gibbs_oracle,
    ground_state,
    thermal_coefficients,
    thermal_state,
)
from .numerics import (
    BracketError,
    CriticalResult,
    bisect_root,
    maximize_unimodal,
)
from .teleportation import (
    CorrelationTensor,
    EnvelopePoint,
    TeleportMetrics,
    correlation_tensor,
    envelope_extremum,
    fidelity_critical_temp,
    optimal_fidelity,
    singlet_fraction_closed_form,
    singlet_fraction_general,
    singlet_fraction_oracle,
    teleport_metrics,
)

__all__ = [
    "BASIS_LABELS",
    "BracketError",
    "ChainParams",
    "ClosedFormUnavailableError",
    "CorrelationTensor",
    "CriticalFields",
    "CriticalResult",
    "EnvelopePoint",
    "TeleportMetrics",
    "Temperature",
    "XStateCoefficients",
    "__version__",
    "bisect_root",
    "build_hamiltonian",
    "concurrence_closed_form",
    "concurrence_wootters",
    "correlation_tensor",
    "critical_fields",
    "entanglement_critical_temp",
    "envelope_extremum",
    "fidelity_critical_temp",
    "gibbs_oracle",
    "ground_state",
    "maximize_unimodal",
    "optimal_fidelity",
    "singlet_fraction_closed_form",
    "singlet_fraction_general",
    "singlet_fraction_oracle",
    "teleport_metrics",
    "thermal_coefficients",
    "thermal_state",
]
