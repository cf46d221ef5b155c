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

from .entanglement import entanglement_critical_temp
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
    _larger,
    _no_sign_change,
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
_MAGIC_DAGGER = _MAGIC.conj().T


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
    return _singlet_fraction(thermal_coefficients(params, temp), max)


def _singlet_fraction(x: XStateCoefficients, larger):
    # max(u + v, w1 + w2 + 2|y|) / (2 z) of both twins: larger is max for
    # floats and _larger for arrays.
    return larger(x.u + x.v, x.w1 + x.w2 + 2.0 * abs(x.y)) / (2.0 * x.z)


def singlet_fraction_grid(j, b, b1, kbt) -> np.ndarray:
    """Array twin of ``singlet_fraction_closed_form`` over broadcast ``j, b, b1, kbt``.

    At the first point the scalar route rejects it raises that route's error.
    """
    return _singlet_fraction(gibbs_weights_grid(j, b, b1, kbt), _larger)


def optimal_fidelity(singlet_fraction: float) -> float:
    """Optimal average fidelity (2F + 1) / 3 of standard teleportation."""
    if not 0.25 - 1e-9 <= singlet_fraction <= 1.0 + 1e-9:
        raise ValueError(
            f"singlet fraction {singlet_fraction} outside the physical range [1/4, 1]"
        )
    return _fidelity(singlet_fraction)


def _fidelity(singlet_fraction):
    # (2F + 1) / 3 of both twins, for floats and arrays alike.
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
    return _fidelity(_singlet_fraction(gibbs_weights_grid(j, b, b1, kbt), _larger))


def singlet_fraction_oracle(rho):
    """Best maximally entangled overlap as one eigenvalue, the independent cross-check.

    Maximally entangled states are the real unit vectors ``c`` in the magic
    basis ``M``, up to a global phase, so the largest ``Re <psi|rho|psi>``
    over them is the largest eigenvalue of the symmetric part of
    ``Re(M^dagger rho M)`` (Bennett et al., PRA 54, 3824 (1996) for F; this
    form as in Grondalski, Etlinger and James, Phys. Lett. A 300, 573
    (2002)). Reads neither the correlation tensor nor the Gibbs weights. A
    non-Hermitian input gives the value of its Hermitian part. A float for
    one 4x4 state, an array for a ``(..., 4, 4)`` stack. A stack of ``n``
    states takes two matrix products, not ``2 n``: ``M^dagger`` times the
    states side by side, ``(4, 4 n)``, then the ``n`` products stacked,
    ``(4 n, 4)``, times ``M``, so each entry is still ``(M^dagger rho) M``.
    """
    r = as_states(rho)
    n = r.size // 16
    left = _MAGIC_DAGGER @ np.swapaxes(r.reshape(n, 4, 4), 0, 1).reshape(4, 4 * n)
    a = (np.swapaxes(left.reshape(4, n, 4), 0, 1).reshape(4 * n, 4) @ _MAGIC).real.reshape(r.shape)
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
    means that 1e-6 already lies past the root (|j| from about 8.8e5 at
    b = b1 = 0; from 1e6 up the bracket is empty, "invalid interval"), that
    eta / |j| overflows and the excess is NaN, or that the root passes the
    float range in beta, as where eta is below about 1.04e-308: 1/eta, the
    doubled upper end or the last midpoint overflows, though kbt itself is
    a finite subnormal there.

    The sign function is evaluated with the dominant exponential divided
    out, so large beta never overflows. Before the bracket is set, Newton
    steps predict the root and a sign window (below, above) around it,
    starting at 1e-6. The window holds only once ``excess(below) < -m`` (after
    a plain Newton step, implied by the tangent there) and ``excess(above) >
    m``, with ``m = 2^-44 (1 + eta / (2 |j|))``: the exact excess of the
    rounded constants is strictly increasing, and if ``math.exp`` is within
    one ulp the computed excess lies within ``m / 2`` of it, so every point
    at or below the window evaluates negative and every one at or above it
    positive. The doubling and the bisection then evaluate the excess only
    inside the window and take the certified sign outside it. When a check
    fails, or past ``eta / |j| = 2^44``, where ``m`` passes the excess's
    maximum of 1/2, every point is evaluated. Either
    way the result, step count, width and every error equal those of the
    doubling followed by ``numerics.bisect_root`` on the plain excess, bit
    for bit.

    ``residual`` is the final bracket width, not an error bound: where the
    bisection stops at floating-point resolution (large beta), rounding in
    the sign tests can leave the root a few ulps beyond half the width.

    Every result without a crossing is one of three module-level constants,
    one per note, shared by all such calls; a ``CriticalResult`` is immutable.
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

    The solver behind ``fidelity_critical_temp``, the threshold grid's lanes
    and the envelope's probes, for ``j != 0`` and ``drive = |b + b1/2| <
    eta``. It first predicts the root and certifies the sign window, then
    doubles the bracket's upper end, taking the certified sign outside the
    window, then bisects, without the stop checks up to the first midpoint
    in doubt. ``verify``'s solves evaluate the excess 3.1 times each.
    """
    ratio = eta / abs(j)
    # The constant factors are Python floats, as ChainParams stores its fields
    # as such, so the sign window's arithmetic overflows to inf without a warning.
    excess, rate, rise, fall, weight = _threshold_excess(eta, drive, ratio, exp := math.exp)
    lo = 1e-6
    # The sign window (below, above). Newton steps on the excess, increasing and concave
    # in beta, climb to the root from below, from the larger of two lower bounds on it,
    # asinh(ratio) / eta (cosh >= 1) and log(ratio) / (eta - drive) (sinh x < e^x / 2 <
    # cosh x); iterates are clamped at lo. As |excess''| <= 2 eta excess', a step s
    # leaves the root within about eta s^2. Where they stop contracting, as near the
    # boundary at ratio ~ 1, a longer step on the log of both sides of (eta - drive)
    # beta - log(ratio) = log1p(q) - log1p(-e1), q = exp(-2 drive beta), is taken. The
    # steps only predict; the checks decide. The computed excess is at most 1/2, so none
    # is tried past ratio = 2^44, where the margin passes 1/2.
    margin = _EXCESS_NOISE * (1.0 + weight)
    below = above = math.nan  # every comparison with NaN fails: no point is certified
    if margin < 0.5:
        log_ratio = math.log(ratio)
        beta, last = max(math.asinh(ratio) / eta, log_ratio / (eta - drive)), -math.inf
        for _ in range(_NEWTON_STEPS):
            beta = lo if beta < lo else beta
            e1, e2, e3 = exp(rate * beta), exp(rise * beta), exp(fall * beta)
            # A sum of terms >= 0; zero only when all of them underflow.
            slope = -0.5 * rate * e1 - weight * (rise * e2 + fall * e3)
            if not slope > 0.0:
                break
            step = newton = (0.5 * (1.0 - e1) - weight * (e2 + e3)) / slope
            if step < 0.5 * last and e1 < 1.0:
                gap, q = -rise * beta - log_ratio, exp(-2.0 * drive * beta)
                rest = math.log1p(q) - math.log1p(-e1)
                if gap > 0.0 < rest:
                    slant = -rise / gap + (2.0 * drive * q / (1.0 + q) - rate * e1 / (1.0 - e1)) / rest
                    step = min(step, (math.log(gap) - math.log(rest)) / slant)
            beta, last = beta - step, step
            spread = eta * step * step
            # Stop once the root is within a quarter of the bisection's stop
            # width, or within rounding, where more steps cannot narrow it.
            if spread <= 2.5e-11 or spread * slope <= margin:
                break
        if slope > 0.0:
            beta = lo if beta < lo else beta
            # Rounding alone can fail a check only within 1.5 margin / slope of
            # the root. The window starts at lo; the bound on the rounding holds
            # at every beta >= 0, so it may end past the bracket.
            half = 4.0 * margin / slope + spread
            below, above = max(beta - half, lo), beta + half
            # After a plain Newton step an unclamped below needs no evaluation: the
            # concave exact excess lies under its tangent at the step's point, which the
            # numerator gave within margin / 2, and at beta - half that tangent is
            # -slope half <= -4 margin, up to 2^-47 (1/2 + 2 weight) and 3u slope beta
            # <= 3u (0.7 + 2.8 weight) of rounding.
            if not ((step == newton and below > lo or excess(below) < -margin) and excess(above) > margin):
                below = above = math.nan

    # The upper end doubles from 1/eta while the excess there is <= 0. No
    # cap: the excess is at least 1/3 past 2 log1p(2 ratio) / (eta - drive),
    # and at hi = inf it is 1/2, or NaN where ratio overflows.
    hi = 1.0 / eta
    while hi <= below or (not hi >= above and excess(hi) <= 0.0):
        hi *= 2.0

    # numerics.bisect_root's loop on the sign of the excess, its reference, with
    # the same entry checks, midpoints, stop rules, step count, width and errors,
    # the sign-change one built by the same function. The doubling left excess(hi)
    # > 0, so f_hi > 0, or NaN where ratio overflows and f_lo is -inf or NaN: the
    # sign check passes only brackets on which the excess increases.
    if not lo < hi:
        # bisect_root's message, but a solver failure: the interval is the solver's own.
        raise BracketError(f"invalid interval [{lo}, {hi}]")
    f_lo = -1.0 if lo <= below else excess(lo)
    f_hi = 1.0 if hi >= above else excess(hi)
    if f_lo == 0.0:
        return lo, 0, 0.0
    if f_lo > 0.0 or not f_hi > 0.0:
        raise _no_sign_change(lo, hi, f_lo, f_hi)
    # Certified midpoints move lo (at or below the window) or hi (at or above it)
    # unevaluated. Up to the first midpoint in doubt they skip the stop checks, which
    # cannot fire: with w0 = hi - lo < 2^16, lo + hi < 2^17 and mid = fl(lo + hi) / 2 is
    # within 2^-38 of the exact midpoint, so a width w > 2^-37 keeps mid inside and
    # leaves at least w / 2 - 2^-38. The rounded w0 is at least 2^(e - 1), e the
    # exponent of frexp(w0), so the width before step k is above w0 2^-k - 2^-37 >= 15
    # 2^-37 - 2^-86 > 1.09e-10 for k <= e + 32; w0 > 1e-10 makes e + 33 >= 0. In the
    # checked steps after, an exact zero closes the bracket and NaN moves lo.
    steps = math.frexp(hi - lo)[1] + 33 if 1e-10 < hi - lo < 65536.0 else 0
    for first in range(steps):
        mid = 0.5 * (lo + hi)
        if mid <= below:
            lo = mid
        elif mid >= above:
            hi = mid
        else:
            break
    else:
        first = steps
    for iterations in range(first, 200):
        if not hi - lo > 1e-10:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # bracket is at floating point resolution
        if mid <= below:
            lo = mid
        elif mid >= above:
            hi = mid
        else:
            f_mid = excess(mid)
            if f_mid >= 0.0:
                hi = mid
            if not f_mid > 0.0:
                lo = mid
    else:
        iterations = 200
    root = 0.5 * (lo + hi)
    if not root < math.inf:
        # 1/eta, the doubled upper end or lo + hi overflowed.
        raise BracketError(f"beta = 1/kbT passes the float range on [{lo:g}, {hi:g}] (eta = {eta!r})")
    return root, iterations, hi - lo


def _threshold_excess(eta, drive, ratio, exp):
    # The excess sinh(eta beta) - ratio cosh(drive beta), scaled by exp(-eta beta)
    # > 0, with its constant factors, which round as the unfactored products do
    # (bound as defaults, faster to create than cells); exp is math.exp or np.exp.
    rate, rise, fall, weight = -2.0 * eta, drive - eta, -(drive + eta), 0.5 * ratio

    def excess(beta, rate=rate, rise=rise, fall=fall, weight=weight, exp=exp):
        return 0.5 * (1.0 - exp(rate * beta)) - weight * (exp(rise * beta) + exp(fall * beta))

    return excess, rate, rise, fall, weight


def _fidelity_threshold_point(j: float, b: float, b1: float) -> CriticalResult:
    return fidelity_critical_temp(ChainParams(j=j, b=b, b1=b1))


# Crossing lanes up to which fidelity_critical_temp_grid solves lane by
# lane; above it the lanes step together, in rounds set by the slowest lane
# whatever the count. Timed with both paths on scan._draws(seed, n), seeds 3,
# 7 and 11 and n of 120, 180 and 240 (median of 31 warm calls, one core of a
# shared 2-core Xeon), the two met between 123 and 207 crossings; the limit
# stays below the lowest.
_LANE_LIMIT = 80


def fidelity_critical_temp_grid(j, b, b1) -> np.ndarray:
    """Array twin of ``fidelity_critical_temp(...).value`` over broadcast ``j, b, b1``.

    NaN where no crossing exists. Crossings are found with the scalar
    twin's ``math.hypot`` eta, and only those ahead of the first point
    ``ChainParams`` rejects are solved, with the scalar twin's eta and
    ``|b + b1/2|``. At most 80 such lanes go one by one, in row-major
    order, to the scalar twin's solver, whose first error propagates. More
    step together through the scalar schedule: the bracket [1e-6, 1/eta]
    with its upper end doubled, then bisection with the same midpoints and
    stop rules (width 1e-10 in beta, at most 200 steps, an exact zero or a
    bracket at floating-point resolution ends it). Either way the values
    are the scalar twin's, bit for bit, and the first point the scalar
    route rejects (non-finite input, an overflowing eta or b + b1, no
    bracket, an overflowing eta / |j|, or a root past the float range in
    beta) raises that route's error.
    """
    j, b, b1 = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (j, b, b1)))
    shape = j.shape
    j, b, b1 = (a.ravel() for a in (j, b, b1))
    rejected = _params_grid(j, b, b1)[1]
    # The points ahead of the first rejected one (the appended True stands
    # for none), which then raises through the scalar route.
    ahead = int(np.argmax(np.append(rejected, True)))
    # The scalar twin's eta: np.hypot can put eta one ulp off math.hypot, and
    # a drive between the two would then decide the crossing the other way.
    eta = np.fromiter(map(math.hypot, j[:ahead].tolist(), (0.5 * b1[:ahead]).tolist()), float, ahead)
    drive = np.abs(b[:ahead] + 0.5 * b1[:ahead])
    lanes = np.flatnonzero((j[:ahead] != 0.0) & (drive < eta))
    j_lanes, eta, drive = j[lanes], eta[lanes], drive[lanes]
    values = np.full(j.size, math.nan)
    if lanes.size <= _LANE_LIMIT:
        values[lanes] = [
            1.0 / _fidelity_root(*lane)[0] for lane in zip(j_lanes.tolist(), eta.tolist(), drive.tolist())
        ]
    else:
        values[lanes] = _lockstep_thresholds(j_lanes, eta, drive)
        rejected[lanes] = np.isnan(values[lanes])
    raise_first(rejected, _fidelity_threshold_point, j, b, b1)
    return values.reshape(shape)


def _lockstep_thresholds(j, eta, drive) -> np.ndarray:
    # 1 / root of _fidelity_root on each crossing lane, all lanes stepping
    # together through the plain doubling and numerics.bisect_root's loop,
    # whose bits the scalar solver keeps; NaN on each lane where that solver
    # raises. Overflows to inf are silent, as in the scalar solver, and so is
    # the NaN excess of a lane whose eta / |j| overflows, which never solves.
    with np.errstate(over="ignore", invalid="ignore"):
        excess, _, _, _, weight = _threshold_excess(eta, drive, eta / np.abs(j), np.exp)
        finite = weight < math.inf
        lo = np.full_like(eta, 1e-6)
        hi = 1.0 / eta
        pending = finite & (excess(hi) <= 0.0)
        while pending.any():
            hi = np.where(pending, 2.0 * hi, hi)
            pending &= excess(hi) <= 0.0
        # bisect_root's entry checks; excess(hi) > 0 once the doubling stops
        # on a lane whose eta / |j| is finite.
        f_lo = excess(lo)
        solved = finite & (lo < hi) & ~(f_lo > 0.0)
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
        root = 0.5 * (lo + hi)
    # A root past the float range is rejected too.
    return np.where(solved & (root < math.inf), 1.0 / root, math.nan)


# How close an envelope result must come to the exact one (argmax at
# b = -b1/2, peak equal to the entanglement threshold) to count as agreeing.
ENVELOPE_ARGMAX_TOL = 1e-4
ENVELOPE_PEAK_TOL = 1e-6


def envelope_extremum(j: float, b1: float) -> EnvelopePoint:
    """Field maximizing the fidelity critical temperature at fixed ``j``, ``b1``.

    Golden-section search over b in [-b1/2 - 3 eta, -b1/2 + 3 eta] down to
    width 1e-6. Fields with no crossing contribute 0, so the objective is a
    single bump and the search is deterministic. The argmax is not good to
    that width: near ``|j| = 1`` the threshold is flat to its bisection's
    1e-10 in beta within about 1e-4 of -b1/2, so the last sections compare
    ties (4.9e-6 to 6.3e-5 off on ten sample points, ``max_kbt`` exact).
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


def _envelope_agreement(j: float, b1: float) -> Tuple[EnvelopePoint, float, float, float]:
    # The envelope search's point, T_E at (j, 0, b1), and the point's errors
    # from the exact (-b1/2, T_E): |argmax_b + b1/2| and |max_kbt - T_E|.
    point = envelope_extremum(j, b1)
    reference = entanglement_critical_temp(ChainParams(j, 0.0, b1)).value
    return point, reference, abs(point.argmax_b + 0.5 * b1), abs(point.max_kbt - reference)


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
