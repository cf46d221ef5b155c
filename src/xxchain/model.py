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
from dataclasses import dataclass, field
from typing import NamedTuple, NoReturn, Tuple

import numpy as np

from .numerics import _larger, _pick, raise_first

__all__ = [
    "BASIS_LABELS",
    "ChainParams",
    "ClosedFormUnavailableError",
    "PAULI",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "Temperature",
    "XStateCoefficients",
    "build_hamiltonian",
    "gibbs_oracle",
    "gibbs_oracle_grid",
    "gibbs_weights_grid",
    "ground_state",
    "thermal_coefficients",
    "thermal_point",
    "thermal_state",
    "thermal_state_grid",
]

BASIS_LABELS = ("00", "01", "10", "11")

# Single-site Pauli matrices in the (|0>, |1>) index order declared above.
# |1> is the Sz = +1/2 state, which puts the -1 of sigma_z on index 0.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# The spin operators of H are real, so H is a real symmetric matrix and
# the oracles eigensolve it in real arithmetic.
_SZ = 0.5 * SIGMA_Z.real
_SP = np.array([[0.0, 0.0], [1.0, 0.0]])  # raises |0> to |1>
_SM = _SP.T
_ID2 = np.eye(2)
# Two-site operators of the Hamiltonian: Sz on site 1, Sz on site 2, and
# the exchange term Sp_1 Sm_2 + Sm_1 Sp_2.
_SZ_1 = np.kron(_SZ, _ID2)
_SZ_2 = np.kron(_ID2, _SZ)
_HOP = np.kron(_SP, _SM) + np.kron(_SM, _SP)

# Level spacing, relative to the largest level magnitude, below which
# eigenstates count as degenerate; energies scale with the couplings.
_DEGENERACY_TOL = 1e-10

# Half the largest float: the bound on half an eigenvalue spread.
_HALF_MAX = 0.5 * np.finfo(float).max


class ClosedFormUnavailableError(ValueError):
    """The analytic expressions need j != 0; use the generic eigensolver path."""


@dataclass(frozen=True)
class ChainParams:
    """Model parameters: exchange coupling ``j``, uniform field ``b``, impurity field ``b1``.

    Each field must be finite and is stored as a Python float, so a numpy
    scalar input computes in double precision, as a Python float does. The
    doublet scale ``eta = hypot(j, b1/2)`` is stored too, outside ``repr``,
    ``==`` and ``hash``; it must be finite, as every closed form divides by
    it or exponentiates it, and so must the site-1 field ``b + b1``, the
    coefficient of Sz_1 in H. One check is left to the routes: the larger
    doublet shift ``eta + |b1|/2`` overflows where both ``|j|`` and ``|b1|``
    near the float maximum, as at ``(1.5e308, 0, 1e308)``. The entanglement
    threshold needs no shift and solves there, so an instance is accepted;
    ``thermal_coefficients``, ``ground_state``, ``critical_fields`` and every
    observable built on them raise ``ValueError`` instead.
    """

    j: float
    b: float
    b1: float
    eta: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("j", "b", "b1"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"parameter {name} must be finite")
            if type(value) is not float:
                object.__setattr__(self, name, float(value))
        object.__setattr__(self, "eta", math.hypot(self.j, 0.5 * self.b1))
        if not math.isfinite(self.eta):
            raise ValueError(f"eta = hypot(j, b1/2) overflows (j = {self.j}, b1 = {self.b1})")
        if not math.isfinite(self.b + self.b1):
            raise ValueError(f"site-1 field b + b1 overflows (b = {self.b}, b1 = {self.b1})")


@dataclass(frozen=True)
class Temperature:
    """Thermal energy k_B * T; ``kbt = 0`` marks the ground state.

    Stored as a Python float, as ``ChainParams`` stores its fields.
    ``thermal_state`` and ``gibbs_oracle`` take ``kbt = 0`` as the ground
    state; ``thermal_coefficients``, the observables built on it and the
    array kernels reject it.
    """

    kbt: float

    def __post_init__(self):
        if not math.isfinite(self.kbt) or self.kbt < 0.0:
            raise ValueError(f"kbt must be finite and non-negative, got {self.kbt}")
        if type(self.kbt) is not float:
            object.__setattr__(self, "kbt", float(self.kbt))


def _reject_zero_kbt() -> NoReturn:
    # The error of every route that needs kbt > 0, raised at kbt = 0.
    raise ValueError(
        "kbt = 0 has no inverse temperature: the thermal observables need kbt > 0; the "
        "kbt = 0 state is thermal_state in Python, xxchain compute --observable state in a shell"
    )


class XStateCoefficients(NamedTuple):
    """Gibbs weights of the thermal X state, before division by ``z``.

    ``v, w2, w1, u`` are the populations of |00>, |01>, |10>, |11> and ``y``
    the single coherence between |01> and |10>; ``z`` is the normalization
    ``u + v + w1 + w2``. All six values carry one common damping factor,
    ``exp(-top / kbt)`` with ``top`` the highest level magnitude, which
    cancels from every consumed ratio. The array twin ``gibbs_weights_grid``
    holds arrays in the same fields.
    """

    u: float
    v: float
    w1: float
    w2: float
    y: float
    z: float


def _shifts(j, b1, eta, pick):
    # (eta - b1/2, eta + b1/2) for eta = hypot(j, b1/2), without cancellation:
    # the smaller of the two comes from j**2 = minus * plus, so it keeps full
    # relative precision when |j| << |b1|. Every caller has eta > 0; pick is
    # _pick for floats and np.where for arrays.
    large = eta + 0.5 * abs(b1)
    small = j * (j / large)
    return pick(b1 >= 0.0, (small, large), (large, small))


def _point_shifts(params: ChainParams) -> Tuple[float, float]:
    # _shifts of one point. ChainParams accepts points whose larger shift
    # overflows, as the entanglement threshold needs no shift; every route
    # that does rejects them here.
    shifts = _shifts(params.j, params.b1, params.eta, _pick)
    if math.inf in shifts:
        raise ValueError(f"doublet shift eta + |b1|/2 overflows (j = {params.j}, b1 = {params.b1})")
    return shifts


def _shift_edge(j, b1, eta):
    # (eta, overflows) over the broadcast j, b1: np.hypot's eta with the
    # scalar twin's math.hypot bits where it passes a quarter of the largest
    # float, and the mask of the lanes where _point_shifts raises. The larger
    # shift is at most 2 eta, so it overflows only where eta passes half the
    # largest float; there an eta one ulp off, as np.hypot's can be, could
    # overflow where the scalar twin's does not, or the other way round.
    # Every other lane costs one comparison.
    near = eta > 0.5 * _HALF_MAX
    if not near.any():
        return eta, near
    j, b1 = (np.broadcast_to(a, near.shape) for a in (j, b1))
    eta, overflows = np.array(eta), np.zeros(near.shape, dtype=bool)
    eta[near] = list(map(math.hypot, j[near].tolist(), (0.5 * b1[near]).tolist()))
    overflows[near] = [
        math.inf in _shifts(jk, b1k, etak, _pick)
        for jk, b1k, etak in zip(j[near].tolist(), b1[near].tolist(), eta[near].tolist())
    ]
    # eta[()] is a numpy scalar for a 0-d eta, as np.hypot returns one.
    return eta[()], overflows


def build_hamiltonian(params: ChainParams) -> np.ndarray:
    """Matrix of H in the |00>, |01>, |10>, |11> basis (4x4, real symmetric, float64).

    Assembled directly from the site operators, so the declared spin
    convention is the single source of truth for every sign. The site
    operators are real, so H is exactly symmetric. It is finite:
    ``ChainParams`` keeps the site-1 field ``b + b1`` finite, so no inf
    meets the zeros of Sz_1.
    """
    return _operator_sum(params.b + params.b1, params.b, params.j)


def _params_grid(j, b, b1) -> Tuple[np.ndarray, np.ndarray]:
    # eta = hypot(j, b1/2) over the broadcast j, b, b1, and the mask of the
    # points ChainParams rejects: a non-finite field, or an overflowing eta
    # or b + b1. Without a warning; eta is inf or NaN where it is rejected.
    with np.errstate(over="ignore", invalid="ignore"):
        eta = np.hypot(j, 0.5 * b1)
        return eta, ~(np.isfinite(eta) & np.isfinite(b + b1))


def _operator_sum(site_1, b, j) -> np.ndarray:
    # site_1 Sz_1 + b Sz_2 + j (Sp_1 Sm_2 + Sm_1 Sp_2): one 4x4 matrix for
    # scalar coefficients, a (..., 4, 4) stack for coefficients of shape
    # (..., 1, 1).
    field = site_1 * _SZ_1 + b * _SZ_2
    return field + j * _HOP


# The last (params, temp, weights) of thermal_coefficients; the first entry
# matches no caller's objects.
_last_weights = (object(), object(), None)


def thermal_coefficients(params: ChainParams, temp: Temperature) -> XStateCoefficients:
    """Closed-form Gibbs weights of the thermal state.

    Called again with the very same ``ChainParams`` and ``Temperature``
    objects as the last evaluation, it returns that evaluation's result, so
    ``thermal_state``, ``singlet_fraction_closed_form`` and a caller's own
    call at one point share one evaluation. Only exact instances of the two
    frozen types are stored, and the entry holds them, so their ids cannot
    be reused while it stands; equal but distinct objects, subclasses and
    stand-ins are evaluated afresh. A call that raises stores nothing, and
    concurrent callers can at worst miss the entry.

    Parameters
    ----------
    params : ChainParams
        Requires ``j != 0``; the product of the doublet weights degenerates
        otherwise.
    temp : Temperature
        Requires ``kbt > 0``; at zero use ``ground_state``.

    Raises
    ------
    ClosedFormUnavailableError
        At ``j = 0``.
    ValueError
        At ``kbt = 0``, and where the larger doublet shift ``eta + |b1|/2``
        overflows.

    Returns
    -------
    XStateCoefficients
        Weights with the common damping described on the type: each level's
        factor is ``exp((level - top) / kbt)``, with
        ``top = max(|b + b1/2|, eta)`` the highest level magnitude, so the
        largest factor is exactly one and none overflows. Only ratios of
        the weights are ever consumed, so the damping cancels downstream.
        ``beta = 1/kbt``, which overflows for subnormal ``kbt``, is never
        formed; there the weights reach the ground-state limit.

    Notes
    -----
    With ``d = exp(-top / kbt)`` the damping, the doublet populations are

        w1 = d (plus / (2 eta) * exp(-eta / kbt) + minus / (2 eta) * exp(+eta / kbt))
        w2 = d (minus / (2 eta) * exp(-eta / kbt) + plus / (2 eta) * exp(+eta / kbt))

    with ``minus, plus = eta -/+ b1/2``. The identity ``j**2 = minus * plus``
    turns the textbook small-denominator form into these, which stay well
    conditioned when ``|j| << |b1|``. Both prefactors are at most one, so
    the weights never exceed two.
    """
    global _last_weights
    last = _last_weights
    if params is last[0] and temp is last[1]:
        return last[2]
    kbt = temp.kbt
    if kbt == 0.0:
        _reject_zero_kbt()
    if params.j == 0.0:
        raise ClosedFormUnavailableError(
            "the closed forms need j != 0: the j = 0 thermal state is gibbs_oracle in Python; "
            "the command line has no j = 0 route at kbt > 0"
        )
    if params.eta > _HALF_MAX:
        # Only here can the larger shift, at most 2 eta, overflow; this raises.
        _point_shifts(params)
    weights = _gibbs_weights(params.j, params.b, params.b1, params.eta, kbt, math.exp, max, _pick)
    if type(params) is ChainParams and type(temp) is Temperature:
        _last_weights = (params, temp, weights)
    return weights


def thermal_point(j: float, b: float, b1: float, kbt: float) -> XStateCoefficients:
    """``thermal_coefficients`` of one point given as plain numbers."""
    return thermal_coefficients(ChainParams(j=j, b=b, b1=b1), Temperature(kbt))


def gibbs_weights_grid(j, b, b1, kbt) -> XStateCoefficients:
    """Array twin of ``thermal_coefficients`` over broadcasting ``j, b, b1, kbt``.

    Returns the six weights as arrays that broadcast to the common shape.
    At the first point ``thermal_point`` rejects (non-finite input, an
    overflowing ``eta``, ``b + b1`` or doublet shift ``eta + |b1|/2``,
    ``kbt <= 0``, ``j = 0``) it raises that route's error, before anything
    is evaluated. Where ``eta`` passes a quarter of the largest float it is
    the scalar twin's ``math.hypot`` eta, so the shift overflows on the
    same points in both twins. Both twins evaluate
    one definition of the weights, this one with numpy's functions, so they
    agree to rounding, not bit for bit: ``np.exp`` and ``math.exp``, and
    ``np.hypot`` and ``math.hypot``, can differ in the last place.
    """
    j, b, b1, kbt = (np.asarray(a, dtype=float) for a in (j, b, b1, kbt))
    eta, rejected = _params_grid(j, b, b1)
    eta, overflows = _shift_edge(j, b1, eta)
    rejected = rejected | ~(np.isfinite(kbt) & (kbt > 0.0)) | (j == 0.0) | overflows
    raise_first(rejected, thermal_point, j, b, b1, kbt)
    with np.errstate(over="ignore"):
        # An exponent that overflows to -inf, as for subnormal kbt, is a
        # factor of exactly 0.
        return _gibbs_weights(j, b, b1, eta, kbt, np.exp, _larger, np.where)


def _gibbs_weights(j, b, b1, eta, kbt, exp, larger, pick) -> XStateCoefficients:
    # Each level's factor is exp((level - top) / kbt), top the highest level
    # magnitude; j != 0 here.
    minus, plus = _shifts(j, b1, eta, pick)
    field = b + 0.5 * b1
    top = larger(abs(field), eta)
    e_field_up, e_field_down = exp((field - top) / kbt), exp((-field - top) / kbt)
    e_gap_up, e_gap_down = exp((eta - top) / kbt), exp((-eta - top) / kbt)
    return _x_weights(j, eta, minus, plus, e_field_up, e_field_down, e_gap_up, e_gap_down)


def _x_weights(j, eta, minus, plus, e_field_up, e_field_down, e_gap_up, e_gap_down):
    # The X-state weights from the factors of the four levels: e_field_up on
    # |00> at -(b + b1/2), e_field_down on |11> at +(b + b1/2), e_gap_up and
    # e_gap_down on the -eta and +eta doublet levels; floats or arrays alike.
    # The shifts are scaled by 1/(2 eta) before they meet the factors, so w1
    # and w2 stay finite wherever the factors do. Halving the quotient, not
    # doubling eta, gives the same bits wherever the half is a normal float,
    # and does not overflow at eta > 9e307.
    plus, minus = 0.5 * (plus / eta), 0.5 * (minus / eta)
    w1 = plus * e_gap_down + minus * e_gap_up
    w2 = minus * e_gap_down + plus * e_gap_up
    y = -(j / eta) * 0.5 * (e_gap_up - e_gap_down)
    z = e_field_up + e_field_down + e_gap_up + e_gap_down
    # Positional: u, v, w1, w2, y, z.
    return XStateCoefficients(e_field_down, e_field_up, w1, w2, y, z)


def thermal_state(params: ChainParams, temp: Temperature) -> np.ndarray:
    """Density matrix of the Gibbs state; routes ``kbt = 0`` to ``ground_state``.

    The result is an X state: populations on the diagonal and one real
    coherence between |01> and |10>. Both routes are closed forms, the
    weights of ``thermal_coefficients`` or the ground-space indicators of
    ``ground_state``; ``gibbs_oracle`` is their eigensolver cross-check.
    """
    if temp.kbt == 0.0:
        return ground_state(params)
    return _x_state(thermal_coefficients(params, temp))


def _x_state(x: XStateCoefficients) -> np.ndarray:
    # The 4x4 X state of one set of weights by six item stores. Each entry is
    # (w + 0.0) * (1 / z), the real part numpy's complex division gives for
    # w + 0j over z + 0j, so the bits are those of dividing a complex array
    # by z. Keep the + 0.0: it turns a coherence of -0.0, as at subnormal
    # kbt, into 0.0, which a plain w / z or w * (1 / z) would keep negative.
    scale = 1.0 / x.z
    rho = np.zeros((4, 4), complex)
    rho[0, 0] = (x.v + 0.0) * scale
    rho[1, 1] = (x.w2 + 0.0) * scale
    rho[1, 2] = rho[2, 1] = (x.y + 0.0) * scale
    rho[2, 2] = (x.w1 + 0.0) * scale
    rho[3, 3] = (x.u + 0.0) * scale
    return rho


def thermal_state_grid(j, b, b1, kbt) -> np.ndarray:
    """Array twin of ``thermal_state`` at ``kbt > 0``, as a ``(..., 4, 4)`` stack.

    One density matrix per point of the broadcast ``j, b, b1, kbt``, with
    the entries ``thermal_state`` builds from ``gibbs_weights_grid``. At the
    first point ``thermal_point`` rejects (``kbt = 0`` included, which the
    scalar route hands to ``ground_state``) it raises that route's error.
    """
    return _x_state_stack(gibbs_weights_grid(j, b, b1, kbt))


def _x_state_stack(x: XStateCoefficients) -> np.ndarray:
    # The (..., 4, 4) stack of X states of weight arrays, each entry divided
    # by z as a complex array.
    shape = np.broadcast(x.u, x.v, x.w1, x.w2, x.y, x.z).shape
    rho = np.zeros(shape + (4, 4), dtype=complex)
    rho[..., 0, 0] = x.v
    rho[..., 1, 1] = x.w2
    rho[..., 2, 2] = x.w1
    rho[..., 3, 3] = x.u
    rho[..., 1, 2] = rho[..., 2, 1] = x.y
    return rho / np.asarray(x.z)[..., None, None]


def gibbs_oracle(params: ChainParams, temp: Temperature) -> np.ndarray:
    """Gibbs state exp(-beta H) / Z by generic eigendecomposition.

    Independent of the closed forms above: builds the Hamiltonian, runs the
    dense eigensolver and sums exp(-beta (E_i - E_min)) projectors, so the
    largest weight is exactly one and nothing overflows. At ``kbt = 0`` it
    averages the eigensolver's projectors on the ground space, with the
    degeneracy rule of ``ground_state``. This is the cross-check route of
    ``thermal_state`` and ``ground_state``; it also covers ``j = 0``.
    H is real symmetric, so the eigensolver runs in real arithmetic; the
    state is returned as complex128, as ``thermal_state`` returns it.
    ``ChainParams`` keeps every coefficient of H finite; this raises
    ``ValueError`` when the spectrum still spans more than the float range.
    """
    if temp.kbt == 0.0:
        return _ground_oracle(params)
    return _gibbs_states(params.j, params.b, params.b1, temp.kbt)


def gibbs_oracle_grid(j, b, b1, kbt) -> np.ndarray:
    """Array twin of ``gibbs_oracle`` at ``kbt > 0``, as a ``(..., 4, 4)`` stack.

    One eigendecomposition per point of the broadcast ``j, b, b1, kbt``,
    all in one batched call. At the first point whose parameters
    ``ChainParams`` or ``Temperature`` reject, or whose ``kbt`` is 0, it
    raises that check's error.
    """
    j, b, b1, kbt = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (j, b, b1, kbt)))
    rejected = _params_grid(j, b, b1)[1] | ~(np.isfinite(kbt) & (kbt > 0.0))
    raise_first(rejected, _gibbs_point_checks, j, b, b1, kbt)
    return _gibbs_states(j, b, b1, kbt)


def _gibbs_point_checks(j: float, b: float, b1: float, kbt: float) -> None:
    # The checks gibbs_oracle's arguments make, and kbt > 0.
    ChainParams(j=j, b=b, b1=b1)
    if Temperature(kbt).kbt == 0.0:
        _reject_zero_kbt()


def _gibbs_states(j, b, b1, kbt) -> np.ndarray:
    # The body of both Gibbs oracles: scalar arguments give one 4x4 state,
    # arrays a (..., 4, 4) stack. Weights are exp(-(E_i - E_min) / kbt),
    # so the largest is exactly one. H is real symmetric, so its
    # eigenvectors and the state are real; the state is returned complex.
    with np.errstate(over="ignore"):
        # An exponent that overflows is a weight of exactly 0.
        coefficients = (np.asarray(c)[..., None, None] for c in (np.add(b, b1), b, j))
        values, vectors = np.linalg.eigh(_operator_sum(*coefficients))
        # Halved, the spread cannot overflow; it is finite exactly when the
        # halves' difference stays at most half the largest float.
        half_spread = 0.5 * values[..., -1] - 0.5 * values[..., 0]
        raise_first(~(half_spread <= _HALF_MAX), _spread_overflows, j, b, b1)
        weights = np.exp((values[..., :1] - values) / np.asarray(kbt)[..., None])
    rho = (vectors * weights[..., None, :]) @ np.swapaxes(vectors, -1, -2)
    return (rho / weights.sum(axis=-1)[..., None, None]).astype(complex)


def _spread_overflows(j: float, b: float, b1: float) -> None:
    raise ValueError(
        f"the spectrum of H spans more than the float range (j = {j}, b = {b}, b1 = {b1})"
    )


def ground_state(params: ChainParams) -> np.ndarray:
    """Zero-temperature state: equal mixture over the lowest (near-)degenerate levels.

    Closed form: the X state of ``thermal_state`` with each level's
    Boltzmann factor replaced by 1 on the ground space and 0 off it.
    Levels within ``1e-10 max(|E_min|, |E_max|)`` of the minimum, a
    threshold that scales with the couplings, count as one degenerate
    ground space, so field values sitting exactly on a level crossing
    return the balanced mixture of both phases. ``gibbs_oracle`` at
    ``kbt = 0`` is its eigensolver cross-check. Raises ``ValueError`` where
    the larger doublet shift ``eta + |b1|/2`` overflows.
    """
    eta = params.eta
    field = params.b + 0.5 * params.b1
    # The levels are -top and +top at the extremes.
    top = max(abs(field), eta)
    floor = -top + _DEGENERACY_TOL * top
    members = (float(-field <= floor), float(field <= floor), float(-eta <= floor), float(eta <= floor))
    if eta == 0.0:
        # j = b1 = 0: both doublet levels sit at 0 and share one indicator,
        # so any prefactors that sum to one give the state; eta = 1 stands in
        # for the division.
        return _x_state(_x_weights(0.0, 1.0, 1.0, 1.0, *members))
    minus, plus = _point_shifts(params)
    return _x_state(_x_weights(params.j, eta, minus, plus, *members))


def _ground_oracle(params: ChainParams) -> np.ndarray:
    # ground_state by the dense eigensolver: the average of the projectors
    # on every level within the degeneracy threshold of the minimum. The
    # eigenvectors of the real H are real; the state is returned complex.
    values, vectors = np.linalg.eigh(build_hamiltonian(params))
    members = values <= values[0] + _DEGENERACY_TOL * max(abs(values[0]), abs(values[-1]))
    cols = vectors[:, members]
    return ((cols @ cols.T) / cols.shape[1]).astype(complex)
