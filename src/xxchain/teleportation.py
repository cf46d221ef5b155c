"""Teleportation figures of merit for the thermal two-spin resource state.

The quality of standard teleportation through a shared two-qubit state is
set by its best overlap with a maximally entangled state (the singlet
fraction F); the optimal average fidelity is f = (2F + 1) / 3, and the
protocol beats any classical relay exactly while f > 2/3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

from .model import (
    ChainParams,
    PAULI,
    Temperature,
    XStateCoefficients,
    gibbs_weights_grid,
    thermal_coefficients,
    thermal_point,
)
from .numerics import (
    BracketError,
    CriticalResult,
    bisect_root,
    maximize_unimodal,
    raise_first,
    svd3,
)

__all__ = [
    "CorrelationTensor",
    "EnvelopePoint",
    "TeleportMetrics",
    "correlation_tensor",
    "envelope_extremum",
    "fidelity_critical_temp",
    "fidelity_critical_temp_grid",
    "fidelity_grid",
    "optimal_fidelity",
    "singlet_fraction_closed_form",
    "singlet_fraction_general",
    "singlet_fraction_grid",
    "singlet_fraction_oracle",
    "teleport_metrics",
]

_PAULI_PAIRS = tuple(tuple(np.kron(si, sj) for sj in PAULI) for si in PAULI)

_ORACLE_SEED = 987654321
_TWO_PI = 2.0 * math.pi
# Probe offsets of the exact line search along one angle.
_PROBE_OFFSETS = np.array([0.0, _TWO_PI / 3.0, 2.0 * _TWO_PI / 3.0])
# Angle triples (theta, phi, lam) of the four Bell states, always tried
# before the random restarts.
_BELL_STARTS = (
    (0.0, 0.0, 0.0),
    (0.0, 0.0, math.pi),
    (math.pi, 0.0, math.pi),
    (math.pi, 0.0, 0.0),
)


@dataclass(frozen=True)
class CorrelationTensor:
    """Pauli correlation data of a two-qubit state.

    ``matrix[i, j] = Tr[rho sigma_i x sigma_j]`` in the package spin
    convention, plus its descending singular values.
    """

    matrix: np.ndarray
    singular_values: np.ndarray


@dataclass(frozen=True)
class TeleportMetrics:
    """Singlet fraction and the optimal average fidelity (2F + 1) / 3."""

    singlet_fraction: float
    fidelity: float


class EnvelopePoint(NamedTuple):
    """Field maximizing the fidelity critical temperature, and that maximum."""

    argmax_b: float
    max_kbt: float


def correlation_tensor(rho) -> CorrelationTensor:
    """Correlation matrix of a state with its singular value decomposition."""
    r = np.asarray(rho, dtype=complex)
    if r.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {r.shape}")
    matrix = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            matrix[i, j] = np.trace(r @ _PAULI_PAIRS[i][j]).real
    return CorrelationTensor(matrix=matrix, singular_values=svd3(matrix).values)


def singlet_fraction_general(tensor: CorrelationTensor) -> float:
    """Best maximally entangled overlap from the correlation data alone.

    F = (1 + s1 + s2 - sign(det) s3) / 4 with descending singular values.
    The branch is decided by the determinant's sign at full precision,
    never by a thresholded sign: near T = 0 with a dominant field the two
    transverse correlators shrink so the determinant drops below any
    fixed threshold while s3 is still large enough for the branch choice
    to matter. A tensor whose determinant vanishes exactly lies on the
    closure of the negative-determinant region, so it takes the + branch
    (s3 = 0 there, both agree).
    """
    s1, s2, s3 = (float(s) for s in tensor.singular_values)
    det = float(np.linalg.det(np.asarray(tensor.matrix, dtype=float)))
    sign = 1.0 if det > 0.0 else -1.0
    return 0.25 * (1.0 + s1 + s2 - sign * s3)


def singlet_fraction_closed_form(params: ChainParams, temp: Temperature) -> float:
    """Closed-form F of the thermal state.

    F = max(cosh((b + b1/2) beta), cosh(eta beta) + (|j|/eta) sinh(eta beta)) / Z,
    the two branches being the product-sector and doublet-sector overlaps.
    Through the Gibbs weights this is max(u + v, w1 + w2 + 2|y|) / (2 z),
    which also holds under the overflow guard.
    """
    x = thermal_coefficients(params, temp)
    return max(x.u + x.v, x.w1 + x.w2 + 2.0 * abs(x.y)) / (2.0 * x.z)


def _fraction_of(x: XStateCoefficients) -> np.ndarray:
    # max(product, doublet) / (2 z) elementwise, taking max as the scalar
    # twin's builtin does, NaN included.
    product = x.u + x.v
    doublet = x.w1 + x.w2 + 2.0 * np.abs(x.y)
    return np.where(doublet > product, doublet, product) / (2.0 * x.z)


def singlet_fraction_grid(j, b, b1, kbt) -> np.ndarray:
    """Array twin of ``singlet_fraction_closed_form`` over broadcast ``j, b, b1, kbt``.

    At the first point the scalar route rejects it raises that route's error.
    """
    x, rejected = gibbs_weights_grid(j, b, b1, kbt)
    raise_first(rejected, thermal_point, j, b, b1, kbt)
    return _fraction_of(x)


def optimal_fidelity(singlet_fraction: float) -> float:
    """Optimal average fidelity (2F + 1) / 3 of standard teleportation."""
    if not 0.25 - 1e-9 <= singlet_fraction <= 1.0 + 1e-9:
        raise ValueError(
            f"singlet fraction {singlet_fraction} outside the physical range [1/4, 1]"
        )
    return (2.0 * singlet_fraction + 1.0) / 3.0


def teleport_metrics(params: ChainParams, temp: Temperature) -> TeleportMetrics:
    """Singlet fraction and fidelity of the thermal state, closed-form route."""
    fraction = singlet_fraction_closed_form(params, temp)
    return TeleportMetrics(
        singlet_fraction=fraction, fidelity=optimal_fidelity(fraction)
    )


def _teleport_point(j: float, b: float, b1: float, kbt: float) -> TeleportMetrics:
    return teleport_metrics(ChainParams(j=j, b=b, b1=b1), Temperature(kbt))


def fidelity_grid(j, b, b1, kbt) -> np.ndarray:
    """Array twin of ``optimal_fidelity(singlet_fraction_closed_form(...))``.

    Includes the ``[1/4, 1]`` range check of ``optimal_fidelity``. At the
    first point that the scalar route rejects, for its input or for its
    singlet fraction, it raises that route's error.
    """
    x, rejected = gibbs_weights_grid(j, b, b1, kbt)
    fraction = _fraction_of(x)
    physical = (fraction >= 0.25 - 1e-9) & (fraction <= 1.0 + 1e-9)
    raise_first(rejected | ~physical, _teleport_point, j, b, b1, kbt)
    return (2.0 * fraction + 1.0) / 3.0


def _overlaps(rho: np.ndarray, angles: np.ndarray) -> np.ndarray:
    # Maximally entangled states are (1 x U)|Phi+> with U a one-sided
    # unitary; in the three-angle form of U the candidate state is
    # (U00, U10, U01, U11) / sqrt(2) in the package basis order. Returns
    # <psi|rho|psi> for every angle triple along the last axis.
    theta, phi, lam = np.moveaxis(angles, -1, 0)
    c = np.cos(0.5 * theta)
    s = np.sin(0.5 * theta)
    e_phi = np.exp(1j * phi)
    e_lam = np.exp(1j * lam)
    psi = np.stack((c + 0j, e_phi * s, -e_lam * s, e_phi * e_lam * c), axis=-1)
    return 0.5 * np.einsum("...i,ij,...j->...", psi.conj(), rho, psi).real


def _sinusoid(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    # (A, B, C) of A + B cos t + C sin t from its values at the offsets
    # t = 0, 2 pi/3, 4 pi/3 along the last axis (a three-point Fourier fit).
    f0, f1, f2 = np.moveaxis(values, -1, 0)
    return (f0 + f1 + f2) / 3.0, (2.0 * f0 - f1 - f2) / 3.0, (f1 - f2) / math.sqrt(3.0)


def singlet_fraction_oracle(rho, restarts: int = 8) -> float:
    """Best maximally entangled overlap by direct search, the independent cross-check.

    Runs coordinate ascent over the three angles (theta, phi, lam)
    parametrizing one-sided unitaries. Along any one angle the overlap is
    exactly ``A + B cos x + C sin x``: the amplitudes are half-angle
    sinusoids in theta and single phases in phi and lam. Three probes
    spaced 2 pi/3 apart therefore fix ``A, B, C``, and each coordinate step
    moves to the exact line maximum at offset ``atan2(C, B)``. All starts,
    the four Bell angle triples and ``restarts`` seeded random triples, run
    together as one angle array; each start stops once a full sweep
    improves it by less than 1e-12, or after 60 sweeps. The result is the
    best overlap evaluated at the final angles, so the search is
    deterministic for fixed inputs and never reads the correlation tensor.

    Parameters
    ----------
    rho : array_like, shape (4, 4)
        Density matrix.
    restarts : int
        Number of random starts, at least 8. With that floor the search
        matches the correlation-tensor value to 1e-6 on the thermal X
        states of this model. On general states coordinate ascent can
        creep along a ridge and stop at the 60-sweep cap up to about 1e-5
        short of the maximum.
    """
    if restarts < 8:
        raise ValueError("restarts must be at least 8 for the accuracy contract")
    r = np.asarray(rho, dtype=complex)
    if r.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise ValueError("density matrix contains non-finite entries")
    rng = np.random.default_rng(_ORACLE_SEED)
    angles = np.concatenate(
        (np.array(_BELL_STARTS), rng.uniform(0.0, _TWO_PI, size=(restarts, 3)))
    )
    values = _overlaps(r, angles)
    active = np.ones(len(angles), dtype=bool)
    for _ in range(60):
        before = values[active]
        moved = angles[active]
        for k in range(3):
            probes = np.repeat(moved[:, None, :], 3, axis=1)
            probes[:, :, k] += _PROBE_OFFSETS
            _, b, c = _sinusoid(_overlaps(r, probes))
            moved[:, k] += np.arctan2(c, b)
        after = _overlaps(r, moved)
        angles[active] = moved
        values[active] = after
        active[active] = after - before >= 1e-12
        if not active.any():
            break
    return float(values.max())


def fidelity_critical_temp(params: ChainParams) -> CriticalResult:
    """Temperature where the optimal fidelity drops to the classical 2/3.

    Solves sinh(eta beta) = (eta / |j|) cosh((b + b1/2) beta) for beta by
    bracketed bisection (tolerance 1e-10 in beta) and returns kbt = 1/beta.
    A crossing exists exactly when ``|b + b1/2| < eta``; on the boundary or
    beyond, ``exists`` is False (note "boundary" at equality). The bracket
    starts at [1e-6, 1/eta] and doubles its upper end until the sign
    changes, up to beta = 4 log1p(2 eta/|j|) / (eta - |b + b1/2|); the sign
    change lies well inside that limit, so crossings close to the boundary
    resolve too. Passing the limit raises BracketError, a solver failure,
    not a statement that no crossing exists.

    The sign function is evaluated with the dominant exponential divided
    out, so large beta never overflows.
    """
    if params.j == 0.0:
        return CriticalResult(
            value=math.nan,
            exists=False,
            note="no coupling, the fidelity never beats the classical bound",
        )
    eta = params.eta
    drive = abs(params.b + 0.5 * params.b1)
    if drive >= eta:
        boundary = abs(drive - eta) <= 1e-12 * max(1.0, eta)
        return CriticalResult(
            value=math.nan,
            exists=False,
            note="boundary" if boundary else "field dominates the doublet gap, no crossing",
        )
    ratio = eta / abs(params.j)

    def excess(beta: float) -> float:
        # sinh(eta b) - ratio cosh(drive b), scaled by exp(-eta b) > 0.
        return 0.5 * (1.0 - math.exp(-2.0 * eta * beta)) - 0.5 * ratio * (
            math.exp((drive - eta) * beta) + math.exp(-(drive + eta) * beta)
        )

    lo = 1e-6
    hi = 1.0 / eta
    # With g = eta - drive, excess >= 1/2 - (1/2 + ratio) exp(-g beta): it is
    # positive past log1p(2 ratio) / g and at least 1/3 past twice that. The
    # doubling only passes the limit from an hi beyond that second point,
    # where rounding cannot hide the sign change.
    limit = 4.0 * math.log1p(2.0 * ratio) / (eta - drive)
    while excess(hi) <= 0.0:
        hi *= 2.0
        if hi > limit:
            raise BracketError(
                f"no sign change up to beta = {limit:.3e} "
                f"(j = {params.j:g}, b = {params.b:g}, b1 = {params.b1:g})",
                excess(lo),
                excess(limit),
            )
    root, iterations, width = bisect_root(excess, lo, hi, tol=1e-10)
    return CriticalResult(
        value=1.0 / root, exists=True, iterations=iterations, residual=width
    )


def _fidelity_threshold_point(j: float, b: float, b1: float) -> CriticalResult:
    return fidelity_critical_temp(ChainParams(j=j, b=b, b1=b1))


def fidelity_critical_temp_grid(j, b, b1) -> np.ndarray:
    """Array twin of ``fidelity_critical_temp(...).value`` over broadcast ``j, b, b1``.

    NaN where no crossing exists. Every point runs the scalar schedule:
    the bracket [1e-6, 1/eta] with its upper end doubled up to the same
    limit, then bisection with the same midpoints and stop rules (width
    1e-10 in beta, at most 200 steps, an exact zero or a bracket at
    floating-point resolution ends it), all points stepping together. At
    the first point the scalar route rejects (non-finite input, or no
    bracket) it raises that route's error.
    """
    j, b, b1 = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (j, b, b1)))
    finite = np.isfinite(j) & np.isfinite(b) & np.isfinite(b1)
    jc, bc, b1c = (np.where(finite, a, 0.0) for a in (j, b, b1))
    eta = np.hypot(jc, 0.5 * b1c)
    drive = np.abs(bc + 0.5 * b1c)
    crossing = (jc != 0.0) & (drive < eta)
    # Points without a crossing are solved at a stand-in and dropped at the end.
    eta = np.where(crossing, eta, 1.0)
    drive = np.where(crossing, drive, 0.0)
    ratio = eta / np.abs(np.where(crossing, jc, 1.0))
    # The scalar excess() with its constant factors formed once; the
    # products round exactly as there.
    rate, rise, fall, weight = -2.0 * eta, drive - eta, -(drive + eta), 0.5 * ratio

    def excess(beta):
        return 0.5 * (1.0 - np.exp(rate * beta)) - weight * (
            np.exp(rise * beta) + np.exp(fall * beta)
        )

    lo = np.full_like(eta, 1e-6)
    hi = 1.0 / eta
    limit = 4.0 * np.log1p(2.0 * ratio) / (eta - drive)
    pending = crossing & (excess(hi) <= 0.0)
    unbracketed = np.zeros_like(crossing)
    while pending.any():
        hi = np.where(pending, 2.0 * hi, hi)
        unbracketed |= pending & (hi > limit)
        pending &= ~unbracketed & (excess(hi) <= 0.0)
    # bisect_root's entry checks; excess(hi) > 0 once the doubling stops.
    f_lo = excess(lo)
    rejected = ~finite | (crossing & (unbracketed | ~(lo < hi) | (f_lo > 0.0)))
    raise_first(rejected, _fidelity_threshold_point, j, b, b1)
    hi = np.where(f_lo == 0.0, lo, hi)
    active = crossing & (hi - lo > 1e-10)
    for _ in range(200):
        if not active.any():
            break
        mid = 0.5 * (lo + hi)
        active &= (mid > lo) & (mid < hi)
        f_mid = excess(mid)
        # An exact zero closes the bracket on mid; NaN moves lo, as in bisect_root.
        hi = np.where(active & (f_mid >= 0.0), mid, hi)
        lo = np.where(active & ~(f_mid > 0.0), mid, lo)
        active &= (f_mid != 0.0) & (hi - lo > 1e-10)
    return np.where(crossing, 1.0 / (0.5 * (lo + hi)), np.nan)


def envelope_extremum(j: float, b1: float, tol: float = 1e-6) -> EnvelopePoint:
    """Field maximizing the fidelity critical temperature at fixed ``j``, ``b1``.

    Golden-section search over b in [-b1/2 - 3 eta, -b1/2 + 3 eta]. Fields
    with no crossing contribute 0, so the objective is a single bump and
    the search is deterministic.
    """
    if j == 0.0:
        raise ValueError("j = 0: the fidelity has no crossing at any field")
    eta = ChainParams(j=j, b=0.0, b1=b1).eta
    center = -0.5 * b1

    def crossing_temp(b: float) -> float:
        result = fidelity_critical_temp(ChainParams(j=j, b=b, b1=b1))
        return result.value if result.exists else 0.0

    argmax_b, max_kbt = maximize_unimodal(
        crossing_temp, center - 3.0 * eta, center + 3.0 * eta, tol=tol
    )
    return EnvelopePoint(argmax_b=argmax_b, max_kbt=max_kbt)
