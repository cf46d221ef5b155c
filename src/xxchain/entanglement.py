"""Thermal entanglement of the two-spin model: concurrence and its critical points."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ChainParams,
    SIGMA_Y,
    XStateCoefficients,
    eta_shifts,
    gibbs_weights_grid,
    thermal_point,
)
from .numerics import CriticalResult, raise_first

__all__ = [
    "CriticalFields",
    "concurrence_closed_form",
    "concurrence_grid",
    "concurrence_wootters",
    "critical_fields",
    "entanglement_critical_temp",
    "entanglement_critical_temp_grid",
]

_SPIN_FLIP = np.kron(SIGMA_Y, SIGMA_Y)

# Index pairs an X-shaped state may populate: the diagonal plus the two
# antidiagonal coherence pairs.
_X_MASK = np.zeros((4, 4), dtype=bool)
for _i in range(4):
    _X_MASK[_i, _i] = True
for _i, _j in ((0, 3), (3, 0), (1, 2), (2, 1)):
    _X_MASK[_i, _j] = True


def concurrence_closed_form(x: XStateCoefficients) -> float:
    """Concurrence straight from the Gibbs weights.

    C = 2 max(0, (|y| - sqrt(u v)) / z). The square root equals one in the
    plain representation; writing it out keeps the expression valid under
    the overflow guard, where all weights share a damping factor.
    """
    return 2.0 * max(0.0, (abs(x.y) - math.sqrt(x.u * x.v)) / x.z)


def concurrence_grid(j, b, b1, kbt) -> np.ndarray:
    """Array twin of ``concurrence_closed_form(thermal_coefficients(...))``.

    Evaluates every point of the broadcast ``j, b, b1, kbt`` at once; at
    the first point the scalar route rejects it raises that route's error.
    """
    x, rejected = gibbs_weights_grid(j, b, b1, kbt)
    raise_first(rejected, thermal_point, j, b, b1, kbt)
    excess = (np.abs(x.y) - np.sqrt(x.u * x.v)) / x.z
    # max(0.0, excess) as the scalar twin takes it, NaN included.
    return 2.0 * np.where(excess > 0.0, excess, 0.0)


def _flip_roots_x(rho: np.ndarray) -> list:
    # The spin-flipped product of an X state splits into 2x2 blocks whose
    # eigenvalues square to (sqrt(a d) +/- |f|)**2 and (sqrt(b c) +/- |g|)**2,
    # with f, g the outer and inner coherences. Exact also when the roots
    # nearly cancel, which the general eigensolver is not.
    a = max(rho[0, 0].real, 0.0)
    d = max(rho[3, 3].real, 0.0)
    b = max(rho[1, 1].real, 0.0)
    c = max(rho[2, 2].real, 0.0)
    outer = abs(rho[0, 3])
    inner = abs(rho[1, 2])
    ad = math.sqrt(a * d)
    bc = math.sqrt(b * c)
    return [ad + outer, abs(ad - outer), bc + inner, abs(bc - inner)]


def _flip_roots_general(rho: np.ndarray) -> list:
    # The roots are the singular values of sqrt(rho) S conj(sqrt(rho))
    # with S the two-spin flip. Eigensolving rho @ flipped directly
    # squares them first, so roots near zero (every pure state has three)
    # would surface as sqrt(rounding noise) ~ 1e-8 and poison the
    # alternating sum.
    values, vectors = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    root = (vectors * np.sqrt(np.maximum(values, 0.0))) @ vectors.conj().T
    return list(np.linalg.svd(root @ _SPIN_FLIP @ root.conj(), compute_uv=False))


def concurrence_wootters(rho, x_tol: float = 1e-12) -> float:
    """Concurrence of an arbitrary two-qubit state from the spin-flip construction.

    Evaluates C = max(0, r1 - r2 - r3 - r4), the r_i being the descending
    square roots of the eigenvalues of rho (sy x sy) rho* (sy x sy).

    States with nonzeros only on the X pattern (diagonal plus the two
    antidiagonal coherence pairs, entries elsewhere at most ``x_tol``) use
    the exact 2x2 block closed form of those eigenvalues; everything else
    goes through the general complex eigensolver.
    """
    r = np.asarray(rho, dtype=complex)
    if r.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise ValueError("density matrix contains non-finite entries")
    if float(np.max(np.abs(r[~_X_MASK]))) <= x_tol:
        roots = _flip_roots_x(r)
    else:
        roots = _flip_roots_general(r)
    roots.sort(reverse=True)
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


def entanglement_critical_temp(params: ChainParams) -> CriticalResult:
    """Temperature at which the thermal concurrence vanishes.

    kbt_c = eta / log((eta + sqrt(j**2 + eta**2)) / |j|), independent of the
    uniform field ``b``. ``exists`` is False at ``j = 0``, where the state
    never entangles. ``residual`` reports |(|j|/eta) sinh(eta/kbt_c) - 1|,
    the defect of the vanishing condition at the returned value.
    """
    if params.j == 0.0:
        return CriticalResult(
            value=math.nan,
            exists=False,
            note="no coupling, the thermal state is never entangled",
        )
    eta = params.eta
    strength = abs(params.j)
    value = eta / math.log((eta + math.hypot(params.j, eta)) / strength)
    residual = abs(strength / eta * math.sinh(eta / value) - 1.0)
    return CriticalResult(value=value, exists=True, iterations=0, residual=residual)


def entanglement_critical_temp_grid(j, b, b1) -> np.ndarray:
    """Array twin of ``entanglement_critical_temp(...).value`` over broadcast ``j, b, b1``.

    NaN where no threshold exists (``j = 0``). ``b`` is only checked, as
    ``ChainParams`` checks it; at the first non-finite point this raises
    the scalar route's error.
    """
    j, b, b1 = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (j, b, b1)))
    raise_first(~(np.isfinite(j) & np.isfinite(b) & np.isfinite(b1)), ChainParams, j, b, b1)
    coupled = j != 0.0
    strength = np.abs(np.where(coupled, j, 1.0))
    eta = np.hypot(strength, 0.5 * b1)
    value = eta / np.log((eta + np.hypot(strength, eta)) / strength)
    return np.where(coupled, value, np.nan)


@dataclass(frozen=True)
class CriticalFields:
    """Zero-temperature transition fields, as positive magnitudes on the b axis.

    The ground state is the entangled -eta doublet level exactly for
    ``-b_plus < b < b_minus``; at ``b_minus`` it crosses to |00> and at
    ``-b_plus`` to |11>. The mirror symmetry (b, b1) -> (-b, -b1) maps the
    negative-axis crossing onto the positive one. Always
    ``b_minus + b_plus = 2 eta`` and ``b_plus - b_minus = b1``.
    """

    b_minus: float
    b_plus: float


def critical_fields(params: ChainParams) -> CriticalFields:
    """Fields where the ground state leaves the entangled doublet level."""
    if params.j == 0.0:
        raise ValueError("j = 0: the doublet is product-like, there is no transition field")
    minus, plus = eta_shifts(params.j, params.b1)
    return CriticalFields(b_minus=minus, b_plus=plus)
