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
    _params_grid,
    gibbs_weights_grid,
    thermal_coefficients,
)
from .numerics import (
    BracketError,
    CriticalResult,
    as_states,
    maximize_unimodal,
    raise_first,
)

__all__ = [
    "ENVELOPE_ARGMAX_TOL",
    "ENVELOPE_PEAK_TOL",
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

# Row 3 i + j holds the transpose of sigma_i x sigma_j, flattened, so its dot
# product with a flattened rho is Tr[rho sigma_i x sigma_j].
_TRACE_ROWS = np.array([np.kron(si, sj).T.ravel() for si in PAULI for sj in PAULI])

# Magic basis (Hill and Wootters, PRL 78, 5022 (1997)) in the package basis
# order: columns |Phi+>, i|Phi->, i|Psi+>, |Psi->. A two-qubit state is
# maximally entangled exactly when its coefficients here are real up to a
# global phase.
_MAGIC = np.array(
    [
        [1.0, 1.0j, 0.0, 0.0],
        [0.0, 0.0, 1.0j, 1.0],
        [0.0, 0.0, 1.0j, -1.0],
        [1.0, -1.0j, 0.0, 0.0],
    ]
) / math.sqrt(2.0)


@dataclass(frozen=True)
class CorrelationTensor:
    """Pauli correlation data of a two-qubit state, or of a stack of them.

    ``matrix[..., i, j] = Tr[rho sigma_i x sigma_j]`` in the package spin
    convention, plus its descending singular values ``(..., 3)``.
    """

    matrix: np.ndarray
    singular_values: np.ndarray


class TeleportMetrics(NamedTuple):
    """Singlet fraction and the optimal average fidelity (2F + 1) / 3."""

    singlet_fraction: float
    fidelity: float


class EnvelopePoint(NamedTuple):
    """Field maximizing the fidelity critical temperature, and that maximum."""

    argmax_b: float
    max_kbt: float


def correlation_tensor(rho) -> CorrelationTensor:
    """Correlation matrix of a state with its descending singular values.

    Takes one 4x4 state or a ``(..., 4, 4)`` stack; the fields then carry
    the same leading axes.
    """
    r = as_states(rho)
    lead = r.shape[:-2]
    matrix = (_TRACE_ROWS @ r.reshape(lead + (16, 1))).real.reshape(lead + (3, 3))
    return CorrelationTensor(
        matrix=matrix, singular_values=np.linalg.svd(matrix, compute_uv=False)
    )


def singlet_fraction_general(tensor: CorrelationTensor):
    """Best maximally entangled overlap from the correlation data alone.

    F = (1 + s1 + s2 - sign(det) s3) / 4 with descending singular values.
    The branch is decided by the determinant's sign at full precision,
    never by a thresholded sign: near T = 0 with a dominant field the two
    transverse correlators shrink so the determinant drops below any
    fixed threshold while s3 is still large enough for the branch choice
    to matter. A tensor whose determinant vanishes exactly lies on the
    closure of the negative-determinant region, so it takes the + branch
    (s3 = 0 there, both agree). A float for one tensor, an array for a
    stack.
    """
    s = np.asarray(tensor.singular_values, dtype=float)
    det = np.linalg.det(np.asarray(tensor.matrix, dtype=float))
    sign = np.where(det > 0.0, 1.0, -1.0)
    return _float_if_scalar(0.25 * (1.0 + s[..., 0] + s[..., 1] - sign * s[..., 2]))


def _float_if_scalar(value: np.ndarray):
    return float(value) if np.ndim(value) == 0 else value


def singlet_fraction_closed_form(params: ChainParams, temp: Temperature) -> float:
    """Closed-form F of the thermal state.

    F = max(cosh((b + b1/2) beta), cosh(eta beta) + (|j|/eta) sinh(eta beta)) / Z,
    the two branches being the product-sector and doublet-sector overlaps.
    Through the Gibbs weights this is max(u + v, w1 + w2 + 2|y|) / (2 z),
    a ratio, so their common damping cancels.
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
    return _fraction_of(gibbs_weights_grid(j, b, b1, kbt))


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
    return TeleportMetrics(fraction, optimal_fidelity(fraction))


def fidelity_grid(j, b, b1, kbt) -> np.ndarray:
    """Array twin of ``optimal_fidelity(singlet_fraction_closed_form(...))``.

    At the first point that the scalar route rejects it raises that route's
    error. ``optimal_fidelity``'s ``[1/4, 1]`` range check needs no twin: the
    closed-form fraction cannot leave that range. The top level's factor
    is exactly 1, so ``z >= 1``, and ``w1 + w2 = e_gap_up + e_gap_down >= 2|y|``,
    so ``z/2 <= max(u + v, w1 + w2 + 2|y|) <= 2 z``.
    """
    return (2.0 * _fraction_of(gibbs_weights_grid(j, b, b1, kbt)) + 1.0) / 3.0


def singlet_fraction_oracle(rho):
    """Best maximally entangled overlap as one eigenvalue, the independent cross-check.

    Maximally entangled states are the real unit vectors ``c`` in the magic
    basis ``M``, up to a global phase, so the largest ``Re <psi|rho|psi>``
    over them is the largest eigenvalue of the symmetric part of
    ``Re(M^dagger rho M)`` (Bennett et al., PRA 54, 3824 (1996) for F; this
    form as in Grondalski, Etlinger and James, Phys. Lett. A 300, 573
    (2002)). Reads neither the correlation tensor nor the Gibbs weights. A
    non-Hermitian input gives the value of its Hermitian part. A float for
    one 4x4 state, an array for a ``(..., 4, 4)`` stack.
    """
    a = (_MAGIC.conj().T @ as_states(rho) @ _MAGIC).real
    return _float_if_scalar(np.linalg.eigvalsh(0.5 * (a + np.swapaxes(a, -1, -2)))[..., -1])


# Bound, relative to 1 + weight, on how far fidelity_critical_temp's
# computed excess() may lie from the exact function of its rounded
# constants: twice 2^-45, itself 16 times the 16u that its three exp calls
# (each within one ulp) and six operations can reach, u = 2^-53.
_EXCESS_NOISE = 2.0 ** -44
# Newton steps the sign window of fidelity_critical_temp may take; 300 000
# verify-domain draws need at most 10, and a prediction that has not
# converged fails the window check.
_NEWTON_STEPS = 12


# The three results of fidelity_critical_temp without a crossing, built once
# and shared by every call: a CriticalResult is immutable.
_NO_COUPLING = CriticalResult(
    math.nan, False, note="no coupling, the fidelity never beats the classical bound"
)
_BOUNDARY = CriticalResult(math.nan, False, note="boundary")
_FIELD_DOMINATES = CriticalResult(
    math.nan, False, note="field dominates the doublet gap, no crossing"
)


def fidelity_critical_temp(params: ChainParams) -> CriticalResult:
    """Temperature where the optimal fidelity drops to the classical 2/3.

    Solves sinh(eta beta) = (eta / |j|) cosh((b + b1/2) beta) for beta by
    bracketed bisection (tolerance 1e-10 in beta) and returns kbt = 1/beta.
    A crossing exists exactly when ``|b + b1/2| < eta``; on the boundary or
    beyond, ``exists`` is False (note "boundary" within ``1e-12 eta`` of
    equality). The bracket starts at [1e-6, 1/eta] and doubles its upper
    end until the sign changes. With ``g = eta - |b + b1/2|`` and
    ``r = eta / |j|`` the excess is at least ``1/2 - (1/2 + r) exp(-g beta)``,
    so at least 1/3 past beta = 2 log1p(2 r) / g, and the doubling stops by
    then even near the boundary.
    BracketError, a solver failure, not a finding that no crossing exists,
    means that 1e-6 already lies past the root (|j| from about 8.8e5 to 1e6
    at b = b1 = 0), or that eta / |j| overflows and the excess is NaN.

    The sign function is evaluated with the dominant exponential divided
    out, so large beta never overflows. Before the bracket is set, Newton
    steps predict the root and a sign window (below, above) around it,
    starting at 1e-6. The window holds only once ``excess(below) < -m`` and
    ``excess(above) > m``, with ``m = 2^-44 (1 + eta / (2 |j|))``: the exact
    excess of the rounded constants is strictly increasing, and if
    ``math.exp`` is within one ulp the computed excess lies within ``m / 2``
    of it, so every point at or below the window evaluates negative and
    every one at or above it positive. The doubling and the bisection then
    evaluate the excess only inside the window and take the certified sign
    outside it. When either check fails, every point is evaluated. Either
    way the result, step count, width and every error equal those of the
    doubling followed by ``numerics.bisect_root`` on the plain excess, bit
    for bit.

    ``residual`` is the final bracket width, not an error bound: where the
    bisection stops at floating-point resolution (large beta), rounding in
    the sign tests can leave the root a few ulps beyond half the width.

    Every result without a crossing is one of three module-level
    constants, one per note, shared by all such calls; a ``CriticalResult``
    is immutable, so no caller can change another's.
    """
    if params.j == 0.0:
        return _NO_COUPLING
    eta = params.eta
    drive = abs(params.b + 0.5 * params.b1)
    if drive >= eta:
        return _BOUNDARY if drive - eta <= 1e-12 * eta else _FIELD_DOMINATES
    root, iterations, width = _fidelity_root(params.j, eta, drive)
    return CriticalResult(1.0 / root, True, iterations, width)


def _fidelity_root(j: float, eta: float, drive: float):
    """``(root, iterations, width)`` in beta of the threshold at a crossing.

    The solver behind ``fidelity_critical_temp`` and the envelope's probes,
    for ``j != 0`` and ``drive = |b + b1/2| < eta``. It first predicts the
    root and certifies the sign window, then doubles the bracket's upper
    end, taking the certified sign outside the window, then bisects.
    """
    ratio = eta / abs(j)
    # The constant factors of excess() formed once, as in the grid twin;
    # each product rounds exactly as the unfactored expression does. They
    # are Python floats, as ChainParams stores its fields as such, so the
    # sign window's arithmetic overflows to inf without a warning.
    rate, rise, fall, weight = -2.0 * eta, drive - eta, -(drive + eta), 0.5 * ratio

    def excess(beta: float) -> float:
        # sinh(eta b) - ratio cosh(drive b), scaled by exp(-eta b) > 0.
        return 0.5 * (1.0 - math.exp(rate * beta)) - weight * (
            math.exp(rise * beta) + math.exp(fall * beta)
        )

    lo = 1e-6
    # The sign window (below, above). Newton steps on the excess, which is
    # increasing and concave in beta, climb to the root from below. They
    # start from the larger of two lower bounds on it, asinh(ratio) / eta (as
    # cosh >= 1) and log(ratio) / (eta - drive) (as sinh x < e^x / 2 <
    # cosh x), and every iterate is clamped at lo. As |excess''| <=
    # 2 eta excess', a step s leaves the root within about eta s^2. The steps
    # only predict; the two checks decide, and a failed step leaves the
    # window to fail them.
    margin = _EXCESS_NOISE * (1.0 + weight)
    beta = max(math.asinh(ratio) / eta, math.log(ratio) / (eta - drive))
    for _ in range(_NEWTON_STEPS):
        beta = lo if beta < lo else beta
        e1, e2, e3 = math.exp(rate * beta), math.exp(rise * beta), math.exp(fall * beta)
        # A sum of terms >= 0; zero only when all of them underflow.
        slope = -0.5 * rate * e1 - weight * (rise * e2 + fall * e3)
        if not slope > 0.0:
            break
        step = (0.5 * (1.0 - e1) - weight * (e2 + e3)) / slope
        beta -= step
        spread = eta * step * step
        # Stop once the root is within a quarter of the bisection's stop
        # width, or within rounding, where more steps cannot narrow it.
        if spread <= 2.5e-11 or spread * slope <= margin:
            break
    below = above = math.nan  # every comparison with NaN fails: no point is certified
    if slope > 0.0:
        beta = lo if beta < lo else beta
        # Rounding alone can fail a check only within 1.5 margin / slope of
        # the root. The window starts at lo; the bound on the rounding holds
        # at every beta >= 0, so it may end past the bracket.
        half = 4.0 * margin / slope + spread
        below, above = max(beta - half, lo), beta + half
        if not (excess(below) < -margin and excess(above) > margin):
            below = above = math.nan

    # The upper end doubles from 1/eta while the excess there is <= 0. No
    # cap: the excess is at least 1/3 past 2 log1p(2 ratio) / (eta - drive),
    # and at hi = inf it is 1/2, or NaN where ratio overflows.
    hi = 1.0 / eta
    while hi <= below or (not hi >= above and excess(hi) <= 0.0):
        hi *= 2.0

    # numerics.bisect_root's loop on the sign of the excess, its reference,
    # with the same entry checks, midpoints, stop rules, step count, width
    # and errors. The doubling left excess(hi) > 0, so f_hi > 0, or NaN where
    # ratio overflows and f_lo is -inf or NaN: the sign check passes only
    # brackets on which the excess increases.
    if not lo < hi:
        raise ValueError(f"invalid interval [{lo}, {hi}]")
    f_lo = -1.0 if lo <= below else excess(lo)
    f_hi = 1.0 if hi >= above else excess(hi)
    if f_lo == 0.0:
        return lo, 0, 0.0
    if f_lo > 0.0 or not f_hi > 0.0:
        raise BracketError(
            f"no sign change on [{lo:g}, {hi:g}]: fn(lo) = {f_lo:.6e}, fn(hi) = {f_hi:.6e}",
            f_lo,
            f_hi,
        )
    # Certified midpoints move lo (at or below the window) or hi (at or above
    # it) unevaluated; as lo <= below < above and below < hi, each can meet
    # only the end it moves. An exact zero closes the bracket, NaN moves lo.
    for iterations in range(200):
        if not hi - lo > 1e-10:
            break
        mid = 0.5 * (lo + hi)
        if mid <= below:
            if mid <= lo:
                break  # bracket is at floating point resolution
            lo = mid
        elif mid >= above:
            if mid >= hi:
                break
            hi = mid
        elif mid <= lo or mid >= hi:
            break
        else:
            f_mid = excess(mid)
            if f_mid >= 0.0:
                hi = mid
            if not f_mid > 0.0:
                lo = mid
    else:
        iterations = 200
    return 0.5 * (lo + hi), iterations, hi - lo


def _fidelity_threshold_point(j: float, b: float, b1: float) -> CriticalResult:
    return fidelity_critical_temp(ChainParams(j=j, b=b, b1=b1))


# Crossing lanes up to which fidelity_critical_temp_grid solves lane by
# lane; above it the lanes step together. Measured with both paths on
# scan._draws(seed, n) for seeds 3, 7 and 11 and n from 120 to 240, the
# median of 31 warm calls each on one core of a shared 2-core machine: the
# lane path costs about 5.8 us a crossing lane, the lockstep 450 to 730 us
# whatever the count, as its rounds are set by the slowest lane. The two
# met between 88 and 125 crossings; the limit stays below the lowest.
_LANE_LIMIT = 80


def fidelity_critical_temp_grid(j, b, b1) -> np.ndarray:
    """Array twin of ``fidelity_critical_temp(...).value`` over broadcast ``j, b, b1``.

    NaN where no crossing exists. A stack with at most 80 crossing lanes is
    solved lane by lane: each crossing, each point on the boundary, and
    each point ``ChainParams`` rejects goes to ``fidelity_critical_temp``
    in row-major order, so the values and the first error are the scalar
    twin's, bit for bit. A larger stack runs the scalar schedule with all
    points stepping together: the bracket [1e-6, 1/eta] with its upper end
    doubled, then bisection with the same midpoints and stop rules (width
    1e-10 in beta, at most 200 steps, an exact zero or a bracket at
    floating-point resolution ends it). At the first point the scalar route
    rejects (non-finite input, an overflowing eta or b + b1, no bracket, or
    an overflowing eta / |j|) it raises that route's error.
    """
    j, b, b1 = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (j, b, b1)))
    eta, invalid = _params_grid(j, b, b1)
    jc, bc, b1c, eta = (np.where(invalid, 0.0, a) for a in (j, b, b1, eta))
    drive = np.abs(bc + 0.5 * b1c)
    crossing = (jc != 0.0) & (drive < eta)
    if np.count_nonzero(crossing) <= _LANE_LIMIT:
        return _threshold_lanes(j, b, b1, invalid | (jc != 0.0) & (drive <= eta))
    # Crossings whose eta / |j| overflows, which the scalar route rejects, and
    # points without a crossing are solved at a stand-in and dropped.
    with np.errstate(over="ignore"):
        solved = crossing & (eta / np.abs(np.where(crossing, jc, 1.0)) < math.inf)
    eta = np.where(solved, eta, 1.0)
    drive = np.where(solved, drive, 0.0)
    ratio = eta / np.abs(np.where(solved, jc, 1.0))
    # The scalar excess() with its constant factors formed once; the
    # products round exactly as there, and overflow to inf, above eta of
    # about 9e307, as silently.
    with np.errstate(over="ignore"):
        rate, rise, fall, weight = -2.0 * eta, drive - eta, -(drive + eta), 0.5 * ratio

    def excess(beta):
        return 0.5 * (1.0 - np.exp(rate * beta)) - weight * (
            np.exp(rise * beta) + np.exp(fall * beta)
        )

    lo = np.full_like(eta, 1e-6)
    hi = 1.0 / eta
    pending = solved & (excess(hi) <= 0.0)
    while pending.any():
        hi = np.where(pending, 2.0 * hi, hi)
        pending &= excess(hi) <= 0.0
    # bisect_root's entry checks; excess(hi) > 0 once the doubling stops.
    f_lo = excess(lo)
    rejected = invalid | (crossing & ~solved) | (solved & (~(lo < hi) | (f_lo > 0.0)))
    raise_first(rejected, _fidelity_threshold_point, j, b, b1)
    hi = np.where(f_lo == 0.0, lo, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        # A stopped lane (width, resolution, exact zero) keeps lo and hi.
        active = solved & (hi - lo > 1e-10) & (mid > lo) & (mid < hi)
        if not active.any():
            break
        f_mid = excess(mid)
        # An exact zero closes the bracket on mid; NaN moves lo, as in bisect_root.
        hi = np.where(active & (f_mid >= 0.0), mid, hi)
        lo = np.where(active & ~(f_mid > 0.0), mid, lo)
    return np.where(crossing, 1.0 / (0.5 * (lo + hi)), np.nan)


def _threshold_lanes(j, b, b1, lanes) -> np.ndarray:
    # fidelity_critical_temp(...).value at every point of lanes, in row-major
    # order, NaN elsewhere. lanes takes the boundary drive = eta too, as
    # np.hypot and math.hypot may differ in the last place of eta.
    index = np.flatnonzero(lanes)
    values = np.full(j.size, math.nan)
    values[index] = [
        _fidelity_threshold_point(*point).value
        for point in zip(*(a.ravel()[index].tolist() for a in (j, b, b1)))
    ]
    return values.reshape(j.shape)


# How close an envelope result must come to the exact one (argmax at
# b = -b1/2, peak equal to the entanglement threshold) to count as agreeing.
ENVELOPE_ARGMAX_TOL = 1e-4
ENVELOPE_PEAK_TOL = 1e-6


def envelope_extremum(j: float, b1: float) -> EnvelopePoint:
    """Field maximizing the fidelity critical temperature at fixed ``j``, ``b1``.

    Golden-section search over b in [-b1/2 - 3 eta, -b1/2 + 3 eta] down to
    width 1e-6. Fields with no crossing contribute 0, so the objective is a
    single bump and the search is deterministic. The argmax is not good to
    that width: at ``|j|`` near 1 the threshold is flat to its bisection's
    1e-10 in beta within about 1e-4 of -b1/2, so the last sections compare
    ties. On ten sample points the argmax lay 4.9e-6 to 6.3e-5 off -b1/2,
    while ``max_kbt`` equalled the threshold at -b1/2 bit for bit.
    Each probe is ``fidelity_critical_temp(ChainParams(j, b, b1)).value`` (or 0), bit for
    bit and error for error, from the threshold's solver alone: eta is the
    search's own, as it does not depend on b. Numpy scalar input gives the
    Python float result.
    Raises ``ValueError`` before any probe where the interval's width
    ``6 eta`` overflows (``eta`` above about 3e307).
    """
    if j == 0.0:
        raise ValueError("j = 0: the fidelity has no crossing at any field")
    params = ChainParams(j=j, b=0.0, b1=b1)
    j, b1, eta = params.j, params.b1, params.eta
    lo, hi = _envelope_interval(b1, eta)

    def crossing_temp(b: float) -> float:
        # b lies in [lo, hi], whose width is finite, so b is a finite field.
        drive = abs(b + 0.5 * b1)
        if drive >= eta:
            return 0.0
        return 1.0 / _fidelity_root(j, eta, drive)[0]

    argmax_b, max_kbt = maximize_unimodal(crossing_temp, lo, hi)
    return EnvelopePoint(argmax_b=argmax_b, max_kbt=max_kbt)


def _envelope_interval(b1: float, eta: float) -> Tuple[float, float]:
    # The envelope's search interval [-b1/2 - 3 eta, -b1/2 + 3 eta]. Its
    # width must be finite, as the section search's probes are formed from
    # it; that fails once eta passes about 3e307.
    center = -0.5 * b1
    lo, hi = center - 3.0 * eta, center + 3.0 * eta
    if not math.isfinite(hi - lo):
        raise ValueError(
            f"the envelope's search interval [{lo}, {hi}] is wider than the float range (eta = {eta})"
        )
    return lo, hi
