"""Thermal entanglement of the two-spin model: concurrence and its critical points."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ChainParams,
    SIGMA_Y,
    XStateCoefficients,
    _params_grid,
    _point_shifts,
    gibbs_weights_grid,
)
from .numerics import CriticalResult, _larger, as_states, raise_first

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

# Largest entry off the X pattern for which a state takes the block route.
_X_TOL = 1e-12

# Entries an X-shaped state leaves empty: all but the diagonal and the
# antidiagonal, which holds the two coherence pairs.
_OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])


def concurrence_closed_form(x: XStateCoefficients) -> float:
    """Concurrence straight from the Gibbs weights.

    C = 2 max(0, (|y| - sqrt(u v)) / z). The square root carries the
    weights' common damping factor, which then cancels from the quotient.
    """
    return _concurrence(x, math.sqrt, max)


def concurrence_grid(j, b, b1, kbt) -> np.ndarray:
    """Array twin of ``concurrence_closed_form(thermal_coefficients(...))``.

    Evaluates every point of the broadcast ``j, b, b1, kbt`` at once; at
    the first point the scalar route rejects it raises that route's error.
    """
    return _concurrence(gibbs_weights_grid(j, b, b1, kbt), np.sqrt, _larger)


def _concurrence(x: XStateCoefficients, sqrt, larger):
    # 2 max(0, (|y| - sqrt(u v)) / z) of both twins: sqrt and larger are
    # math.sqrt and max for floats, np.sqrt and _larger for arrays.
    return 2.0 * larger(0.0, (abs(x.y) - sqrt(x.u * x.v)) / x.z)


def _flip_roots_x(rho, sqrt, larger) -> list:
    # The spin-flipped product of an X state splits into 2x2 blocks whose
    # eigenvalues square to (sqrt(a d) +/- |f|)**2 and (sqrt(b c) +/- |g|)**2,
    # with f, g the outer and inner coherences. Exact also when the roots
    # nearly cancel, which the general eigensolver is not. rho is one 4x4
    # state, with math.sqrt and max, or a (4, 4, n) stack with the states on
    # the last axis, with np.sqrt and _larger.
    a, b, c, d = (larger(rho[i, i].real, 0.0) for i in range(4))
    outer = abs(rho[0, 3])
    inner = abs(rho[1, 2])
    ad = sqrt(a * d)
    bc = sqrt(b * c)
    return [ad + outer, abs(ad - outer), bc + inner, abs(bc - inner)]


def _flip_roots_general(rho: np.ndarray) -> np.ndarray:
    # The roots are the singular values of sqrt(rho) S conj(sqrt(rho))
    # with S the two-spin flip. Eigensolving rho @ flipped directly
    # squares them first, so roots near zero (every pure state has three)
    # would surface as sqrt(rounding noise) ~ 1e-8 and poison the
    # alternating sum. Takes one state or a (..., 4, 4) stack.
    values, vectors = np.linalg.eigh(0.5 * (rho + _dagger(rho)))
    root = (vectors * np.sqrt(np.maximum(values, 0.0))[..., None, :]) @ _dagger(vectors)
    return np.linalg.svd(root @ _SPIN_FLIP @ root.conj(), compute_uv=False)


def _dagger(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m.conj(), -1, -2)


def concurrence_wootters(rho):
    """Concurrence of an arbitrary two-qubit state from the spin-flip construction.

    Evaluates C = max(0, r1 - r2 - r3 - r4), the r_i being the descending
    square roots of the eigenvalues of rho (sy x sy) rho* (sy x sy).

    States with nonzeros only on the X pattern (diagonal plus the two
    antidiagonal coherence pairs, entries elsewhere at most 1e-12) use
    the exact 2x2 block closed form of those eigenvalues; everything else
    goes through the general complex eigensolver. Takes one 4x4 state,
    giving a float, or a ``(..., 4, 4)`` stack, giving an array: its X
    states take the block form as arrays, the rest one batched general
    call.
    """
    r = as_states(rho)
    if r.ndim > 2:
        return _concurrence_stack(r)
    if np.abs(r[_OFF_X]).max() <= _X_TOL:
        roots = _flip_roots_x(r, math.sqrt, max)
    else:
        roots = list(_flip_roots_general(r))
    roots.sort(reverse=True)
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


def _concurrence_stack(r: np.ndarray) -> np.ndarray:
    flat = r.reshape(-1, 4, 4)
    x_shaped = np.abs(flat[:, _OFF_X]).max(axis=-1) <= _X_TOL
    roots = np.empty((len(flat), 4))
    roots[x_shaped] = np.transpose(_flip_roots_x(np.moveaxis(flat[x_shaped], 0, -1), np.sqrt, _larger))
    if not x_shaped.all():
        roots[~x_shaped] = _flip_roots_general(flat[~x_shaped])
    roots = np.sort(roots, axis=-1).T
    return _larger(0.0, roots[3] - roots[2] - roots[1] - roots[0]).reshape(r.shape[:-2])


# The result of entanglement_critical_temp at j = 0, built once and shared
# by every such call: a CriticalResult is immutable.
_NO_COUPLING = CriticalResult(
    math.nan, False, note="no coupling, the thermal state is never entangled"
)


def entanglement_critical_temp(params: ChainParams) -> CriticalResult:
    """Temperature at which the thermal concurrence vanishes.

    kbt_c = eta / asinh(eta/|j|), independent of the uniform field ``b``,
    wherever ``eta/|j|`` is finite; past that, asinh(eta/|j|) is the sum
    log(eta) + log1p(hypot(j, eta)/eta) - log|j|. Raises ``ValueError``
    where the threshold itself passes the float range (``eta`` above about
    1.6e308 with ``|j|`` near it). ``exists`` is False at ``j = 0``, where
    the state never entangles; that result is one module-level constant,
    shared by every such call, as a ``CriticalResult`` is immutable.
    ``residual`` reports |(|j|/eta) sinh(x) - 1| with ``x = eta/kbt_c``, the
    defect of the vanishing condition at the returned value: as
    |sinh(x)/(eta/|j|) - 1|, or through exp and logarithms where sinh(x) or
    ``eta/|j|`` overflows.
    """
    if params.j == 0.0:
        return _NO_COUPLING
    eta = params.eta
    strength = abs(params.j)
    ratio, value = _asinh_threshold(eta, strength, math.asinh)
    if not ratio < math.inf:
        # |j| << eta, so hypot(j, eta)/eta lies in [1, sqrt(2)], and
        # asinh(eta/|j|) = log((eta + hypot(j, eta))/|j|) splits into
        # logarithms that do not overflow.
        value = eta / (math.log(eta) + math.log1p(math.hypot(strength, eta) / eta) - math.log(strength))
    if value == math.inf:
        raise ValueError(
            f"entanglement threshold eta / asinh(eta/|j|) overflows (j = {params.j}, b1 = {params.b1})"
        )
    x = eta / value
    if x < 710.0 and ratio < math.inf:
        # math.sinh(x) is finite below x of about 710.5. Dividing by eta/|j|,
        # as |j|/eta can be subnormal.
        residual = abs(math.sinh(x) / ratio - 1.0)
    else:
        # sinh overflows: (|j|/eta) sinh(x) = exp(x + log(|j|/(2 eta))) (1 - exp(-2x)),
        # where the two logarithms are far apart.
        scaled = math.exp(x + math.log(strength) - math.log(eta) - math.log(2.0))
        residual = abs(scaled * -math.expm1(-2.0 * x) - 1.0)
    return CriticalResult(value, True, 0, residual)


def _asinh_threshold(eta, strength, asinh):
    # eta/|j| and eta / asinh(eta/|j|) of both twins, with asinh math.asinh
    # for floats and np.arcsinh for arrays; strength is |j|.
    ratio = eta / strength
    return ratio, eta / asinh(ratio)


def entanglement_critical_temp_grid(j, b, b1) -> np.ndarray:
    """Array twin of ``entanglement_critical_temp(...).value`` over broadcast ``j, b, b1``.

    eta / arcsinh(eta/|j|) lane by lane; a lane where ``eta/|j|`` or the
    threshold overflows takes the scalar route, so the sum of logarithms
    and the overflow error are that route's. NaN where no threshold exists
    (``j = 0``). ``b`` is only checked, as ``ChainParams`` checks it; at the
    first point ``ChainParams`` rejects (non-finite input, an overflowing
    eta or b + b1) this raises its error.
    """
    j, b, b1 = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (j, b, b1)))
    raise_first(_params_grid(j, b, b1)[1], ChainParams, j, b, b1)
    coupled = j != 0.0
    strength = np.abs(np.where(coupled, j, 1.0))
    eta = np.hypot(strength, 0.5 * b1)
    with np.errstate(over="ignore"):
        ratio, value = _asinh_threshold(eta, strength, np.arcsinh)
    value = np.asarray(value)
    wide = np.isinf(ratio) | np.isinf(value)
    if wide.any():
        value[wide] = [
            entanglement_critical_temp(ChainParams(*point)).value
            for point in zip(j[wide].tolist(), b[wide].tolist(), b1[wide].tolist())
        ]
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
    """Fields where the ground state leaves the entangled doublet level.

    Raises ``ValueError`` at ``j = 0``, and where the larger of the two,
    ``eta + |b1|/2``, overflows.
    """
    if params.j == 0.0:
        raise ValueError("j = 0: the doublet is product-like, there is no transition field")
    minus, plus = _point_shifts(params)
    return CriticalFields(b_minus=minus, b_plus=plus)
