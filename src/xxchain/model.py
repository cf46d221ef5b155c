"""Thermal states of a two-spin XX exchange model with an impurity field.

The model couples two spin-1/2 sites through a transverse exchange term and
splits them with an external field:

    H = (b + b1) Sz_1 + b Sz_2 + j (Sp_1 Sm_2 + Sm_1 Sp_2)

Site 1 carries the impurity contribution ``b1`` on top of the uniform field
``b``; Sz, Sp, Sm are spin-1/2 operators (Pauli matrices over two).

Conventions used throughout the package:

* basis order |00>, |01>, |10>, |11>, the left label belonging to site 1,
* Sz |1> = +|1>/2, so the matrix of sigma_z is diag(-1, +1),
* k_B = 1, temperatures enter as the thermal energy ``kbt``.

All closed forms share the doublet splitting scale
``eta = sqrt(j**2 + b1**2 / 4)``: the levels are -b - b1/2 on |00>,
+b + b1/2 on |11>, and -eta, +eta on superpositions of |01> and |10>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .numerics import hermitian_eigen

__all__ = [
    "BASIS_LABELS",
    "ChainParams",
    "ClosedFormUnavailableError",
    "PAULI",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "Spectrum",
    "Temperature",
    "XStateCoefficients",
    "build_hamiltonian",
    "closed_form_spectrum",
    "eta_shifts",
    "gibbs_oracle",
    "gibbs_weights_grid",
    "ground_state",
    "thermal_coefficients",
    "thermal_point",
    "thermal_state",
]

BASIS_LABELS = ("00", "01", "10", "11")

# Single-site Pauli matrices in the (|0>, |1>) index order declared above.
# |1> is the Sz = +1/2 state, which puts the -1 of sigma_z on index 0.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)

_SZ = 0.5 * SIGMA_Z
_SP = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # raises |0> to |1>
_SM = _SP.conj().T
_ID2 = np.eye(2, dtype=complex)

# Absolute level-spacing threshold below which eigenstates count as degenerate.
# Energies here are O(1) in the coupling units.
_DEGENERACY_TOL = 1e-10

# Exponent magnitude beyond which the shared Gibbs factor is divided out of
# the thermal coefficients to keep everything representable.
_EXP_GUARD = 700.0


class ClosedFormUnavailableError(ValueError):
    """The analytic expressions need j != 0; use the generic eigensolver path."""


@dataclass(frozen=True)
class ChainParams:
    """Model parameters: exchange coupling ``j``, uniform field ``b``, impurity field ``b1``."""

    j: float
    b: float
    b1: float

    def __post_init__(self):
        for name in ("j", "b", "b1"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"parameter {name} must be finite")

    @property
    def eta(self) -> float:
        """Doublet splitting scale sqrt(j**2 + b1**2 / 4), recomputed on use."""
        return math.hypot(self.j, 0.5 * self.b1)


@dataclass(frozen=True)
class Temperature:
    """Thermal energy k_B * T; ``kbt = 0`` marks the ground state."""

    kbt: float

    def __post_init__(self):
        if not math.isfinite(self.kbt) or self.kbt < 0.0:
            raise ValueError(f"kbt must be finite and non-negative, got {self.kbt}")

    @property
    def beta(self) -> float:
        """Inverse thermal energy 1 / kbt."""
        if self.kbt == 0.0:
            raise ValueError("kbt = 0 has no inverse temperature; use ground_state")
        return 1.0 / self.kbt


@dataclass(frozen=True)
class XStateCoefficients:
    """Gibbs weights of the thermal X state, before division by ``z``.

    ``v, w2, w1, u`` are the populations of |00>, |01>, |10>, |11> and ``y``
    the single coherence between |01> and |10>; ``z`` is the normalization
    ``u + v + w1 + w2``. In the plain representation ``u * v = 1`` and
    ``w1 + w2 = 2 cosh(eta * beta)`` hold; under the overflow guard all six
    values share one extra damping factor that cancels from every consumed
    ratio.
    """

    u: float
    v: float
    w1: float
    w2: float
    y: float
    z: float


@dataclass(frozen=True)
class Spectrum:
    """Analytic eigensystem in a fixed branch order.

    ``energies[i]`` belongs to the state in column ``i`` of ``states``:
    index 0 is |00> at -b - b1/2, index 1 is |11> at +b + b1/2, index 2 the
    +eta doublet level and index 3 the -eta doublet level.
    """

    energies: np.ndarray
    states: np.ndarray


def eta_shifts(j: float, b1: float) -> Tuple[float, float]:
    """Return ``(eta - b1/2, eta + b1/2)`` without cancellation.

    The smaller of the two is recovered from ``j**2 = minus * plus`` so it
    keeps full relative precision when ``|j| << |b1|``.
    """
    eta = math.hypot(j, 0.5 * b1)
    if b1 >= 0.0:
        plus = eta + 0.5 * b1
        minus = j * (j / plus) if plus > 0.0 else 0.0
    else:
        minus = eta - 0.5 * b1
        plus = j * (j / minus)
    return minus, plus


def build_hamiltonian(params: ChainParams) -> np.ndarray:
    """Matrix of H in the |00>, |01>, |10>, |11> basis (4x4, Hermitian).

    Assembled directly from the site operators, so the declared spin
    convention is the single source of truth for every sign.
    """
    field = (params.b + params.b1) * np.kron(_SZ, _ID2) + params.b * np.kron(_ID2, _SZ)
    hop = params.j * (np.kron(_SP, _SM) + np.kron(_SM, _SP))
    return field + hop


def closed_form_spectrum(params: ChainParams) -> Spectrum:
    """Analytic spectrum: the two product levels plus the +/-eta doublet.

    The doublet mixes |01> and |10> only. The ground state is the -eta
    level exactly when ``|b + b1/2| < eta``; at ``b1 = 0`` and ``|b| < |j|``
    that level is the Bell singlet.

    Raises
    ------
    ClosedFormUnavailableError
        At ``j = 0``, where the doublet closed form degenerates; use
        ``hermitian_eigen(build_hamiltonian(params))`` instead.
    """
    if params.j == 0.0:
        raise ClosedFormUnavailableError(
            "the +/-eta doublet closed form needs j != 0; "
            "diagonalize build_hamiltonian(params) instead"
        )
    eta = params.eta
    minus, plus = eta_shifts(params.j, params.b1)
    energies = np.array(
        [-params.b - 0.5 * params.b1, params.b + 0.5 * params.b1, eta, -eta]
    )
    states = np.zeros((4, 4), dtype=complex)
    states[0, 0] = 1.0
    states[3, 1] = 1.0
    # Amplitudes (minus, j) / sqrt(2 eta minus) and (-plus, j) / sqrt(2 eta plus),
    # rewritten through j**2 = minus * plus so nothing divides by minus,
    # which underflows to 0 when |j| is tiny against |b1|.
    small = math.sqrt(minus / (2.0 * eta))
    large = math.sqrt(plus / (2.0 * eta))
    sign = math.copysign(1.0, params.j)
    states[1, 2] = small
    states[2, 2] = sign * large
    states[1, 3] = -large
    states[2, 3] = sign * small
    return Spectrum(energies=energies, states=states)


def thermal_coefficients(params: ChainParams, temp: Temperature) -> XStateCoefficients:
    """Closed-form Gibbs weights of the thermal state.

    Parameters
    ----------
    params : ChainParams
        Requires ``j != 0``; the product of the doublet weights degenerates
        otherwise.
    temp : Temperature
        Requires ``kbt > 0``; at zero use ``ground_state``.

    Returns
    -------
    XStateCoefficients
        Weights satisfying the identities listed on the type. When
        ``top / kbt`` exceeds 700, with ``top = max(|b + b1/2|, eta)`` the
        highest level magnitude, every weight is evaluated as
        ``exp((level - top) / kbt)``: the dominant exponential is divided
        out of all six values, and only ratios of them are ever consumed,
        so the damping cancels downstream. That form never forms
        ``beta = 1/kbt``, which overflows for subnormal ``kbt``; there the
        weights reach the ground-state limit.

    Notes
    -----
    The doublet populations are evaluated as

        w1 = (plus * exp(-eta beta) + minus * exp(+eta beta)) / (2 eta)
        w2 = (minus * exp(-eta beta) + plus * exp(+eta beta)) / (2 eta)

    with ``minus, plus = eta -/+ b1/2``. The identity ``j**2 = minus * plus``
    turns the textbook small-denominator form into these, which stay well
    conditioned when ``|j| << |b1|``.
    """
    beta = temp.beta
    if params.j == 0.0:
        raise ClosedFormUnavailableError(
            "thermal_coefficients needs j != 0; use gibbs_oracle for the uncoupled chain"
        )
    eta = params.eta
    minus, plus = eta_shifts(params.j, params.b1)
    field = params.b + 0.5 * params.b1
    top = max(abs(field), eta)
    kbt = temp.kbt
    if kbt < top / _EXP_GUARD:
        e_field_up = math.exp((field - top) / kbt)
        e_field_down = math.exp((-field - top) / kbt)
        e_gap_up = math.exp((eta - top) / kbt)
        e_gap_down = math.exp((-eta - top) / kbt)
    else:
        x_field = beta * field
        x_gap = beta * eta
        e_field_up = math.exp(x_field)
        e_field_down = math.exp(-x_field)
        e_gap_up = math.exp(x_gap)
        e_gap_down = math.exp(-x_gap)
    w1 = (plus * e_gap_down + minus * e_gap_up) / (2.0 * eta)
    w2 = (minus * e_gap_down + plus * e_gap_up) / (2.0 * eta)
    y = -(params.j / eta) * 0.5 * (e_gap_up - e_gap_down)
    z = e_field_up + e_field_down + e_gap_up + e_gap_down
    return XStateCoefficients(u=e_field_down, v=e_field_up, w1=w1, w2=w2, y=y, z=z)


def thermal_point(j: float, b: float, b1: float, kbt: float) -> XStateCoefficients:
    """``thermal_coefficients`` of one point given as plain numbers."""
    return thermal_coefficients(ChainParams(j=j, b=b, b1=b1), Temperature(kbt))


def gibbs_weights_grid(j, b, b1, kbt) -> Tuple[XStateCoefficients, np.ndarray]:
    """Array twin of ``thermal_coefficients`` over broadcasting ``j, b, b1, kbt``.

    Returns the six weights as arrays that broadcast to the common shape,
    plus a mask of the points ``thermal_point`` rejects (non-finite input,
    ``kbt <= 0``, ``j = 0``). Those points are evaluated at a harmless
    stand-in instead, so nothing warns; callers pass the mask to
    ``raise_first``. Elementwise the formulas, the guard and the
    evaluation order are those of the scalar twin.
    """
    j, b, b1, kbt = (np.asarray(a, dtype=float) for a in (j, b, b1, kbt))
    rejected = ~(
        np.isfinite(j) & np.isfinite(b) & np.isfinite(b1) & np.isfinite(kbt) & (kbt > 0.0)
    ) | (j == 0.0)
    if rejected.any():
        j, b, b1, kbt = (
            np.where(rejected, stand_in, a)
            for a, stand_in in zip((j, b, b1, kbt), (1.0, 0.0, 0.0, 1.0))
        )
    eta = np.hypot(j, 0.5 * b1)
    # eta_shifts per element: the larger shift directly, the smaller from
    # j**2 = minus * plus.
    large = eta + 0.5 * np.abs(b1)
    small = j * np.divide(j, large, out=np.zeros_like(large), where=large > 0.0)
    up = b1 >= 0.0
    minus = np.where(up, small, large)
    plus = np.where(up, large, small)
    field = b + 0.5 * b1
    top = np.maximum(np.abs(field), eta)
    guard = kbt < top / _EXP_GUARD
    # beta = 1/kbt is formed only where the guard is off; it is 0 elsewhere.
    beta = 1.0 / np.where(guard, np.inf, kbt)
    levels = (field, -field, eta, -eta)
    exponents = [beta * level for level in levels]
    if guard.any():
        exponents = [
            np.where(guard, _damped_exponent(level, top, kbt), plain)
            for level, plain in zip(levels, exponents)
        ]
    e_field_up, e_field_down, e_gap_up, e_gap_down = (np.exp(x) for x in exponents)
    w1 = (plus * e_gap_down + minus * e_gap_up) / (2.0 * eta)
    w2 = (minus * e_gap_down + plus * e_gap_up) / (2.0 * eta)
    y = -(j / eta) * 0.5 * (e_gap_up - e_gap_down)
    z = e_field_up + e_field_down + e_gap_up + e_gap_down
    weights = XStateCoefficients(u=e_field_down, v=e_field_up, w1=w1, w2=w2, y=y, z=z)
    return weights, rejected


def _damped_exponent(level, top, kbt) -> np.ndarray:
    # (level - top) / kbt, the guarded exponent. Where it lies below -746
    # exp underflows to 0 anyway; -inf stands in there, so the quotient
    # never overflows, not even for subnormal kbt.
    in_range = (top - level) / 746.0 <= kbt
    return np.where(in_range, (level - top) / np.where(in_range, kbt, np.inf), -np.inf)


def thermal_state(params: ChainParams, temp: Temperature) -> np.ndarray:
    """Density matrix of the Gibbs state; routes ``kbt = 0`` to ``ground_state``.

    The result is an X state: populations on the diagonal and one real
    coherence between |01> and |10>.
    """
    if temp.kbt == 0.0:
        return ground_state(params)
    x = thermal_coefficients(params, temp)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = x.v
    rho[1, 1] = x.w2
    rho[2, 2] = x.w1
    rho[3, 3] = x.u
    rho[1, 2] = x.y
    rho[2, 1] = x.y
    return rho / x.z


def gibbs_oracle(params: ChainParams, temp: Temperature) -> np.ndarray:
    """Gibbs state exp(-beta H) / Z by generic eigendecomposition.

    Independent of the closed forms above: builds the Hamiltonian, runs the
    dense eigensolver and sums exp(-beta (E_i - E_min)) projectors, so the
    largest weight is exactly one and nothing overflows. This is the
    cross-check route; it also covers ``j = 0``.
    """
    if temp.kbt == 0.0:
        return ground_state(params)
    beta = temp.beta
    values, vectors = hermitian_eigen(build_hamiltonian(params))
    weights = np.exp(-beta * (values - values[0]))
    rho = (vectors * weights) @ vectors.conj().T
    return rho / weights.sum()


def ground_state(params: ChainParams) -> np.ndarray:
    """Zero-temperature state: equal mixture over the lowest (near-)degenerate levels.

    Levels within 1e-10 of the minimum (absolute; energies are O(1) here)
    count as one degenerate ground space, so field values sitting exactly
    on a level crossing return the balanced mixture of both phases.
    """
    values, vectors = hermitian_eigen(build_hamiltonian(params))
    members = values <= values[0] + _DEGENERACY_TOL
    cols = vectors[:, members]
    return (cols @ cols.conj().T) / cols.shape[1]
