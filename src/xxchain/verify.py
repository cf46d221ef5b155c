"""The self-check suite: each closed form against its independent oracle."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from .entanglement import (
    _concurrence,
    concurrence_wootters,
    entanglement_critical_temp,
    entanglement_critical_temp_grid,
)
from .model import ChainParams, _x_state_stack, gibbs_oracle_grid, gibbs_weights_grid
from .numerics import _larger
from .teleportation import (
    ENVELOPE_ARGMAX_TOL,
    ENVELOPE_PEAK_TOL,
    _fidelity_root,
    _singlet_fraction,
    correlation_tensor,
    fidelity_critical_temp_grid,
    singlet_fraction_general,
    singlet_fraction_oracle,
)

__all__ = ["CheckResult", "VerifyReport", "verify_suite"]


@dataclass(frozen=True)
class CheckResult:
    """One check of ``verify_suite``: its verdict, worst value and where that was.

    ``exercised`` counts the cases the check ran on: every draw for the
    per-draw checks, the draws with a fidelity crossing for the ordering
    check, and the four impurity fields for the envelope checks.
    ``worst_at`` holds the parameters of the worst case (``J, B, B1, kbT``
    for a draw, ``J, B1`` for an envelope witness), or None when no case
    ran, in which case ``worst`` is 0.
    """

    name: str
    passed: bool
    worst: float
    tolerance: float
    exercised: int
    worst_at: Optional[Dict[str, float]]


@dataclass(frozen=True)
class VerifyReport:
    """Result of the randomized cross-check suite."""

    seed: int
    draws: int
    checks: Tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def format_text(self) -> str:
        lines = [f"self-check suite: seed={self.seed} draws={self.draws}"]
        for c in self.checks:
            verdict = "PASS" if c.passed else "FAIL"
            line = (
                f"{verdict} {c.name}: worst={c.worst!r} tolerance={c.tolerance!r} "
                f"exercised={c.exercised}"
            )
            if c.worst_at:
                line += " at " + " ".join(f"{k}={v!r}" for k, v in c.worst_at.items())
            lines.append(line)
        lines.append("all checks passed" if self.passed else "SOME CHECKS FAILED")
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "draws": self.draws,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
        }


def _draws(seed: int, count: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The first ``count`` draws ``(j, b, b1, kbt)`` of ``seed``, as arrays.

    A draw takes ``j = uniform(-3, 3)`` until ``|j| >= 0.05``, then
    ``b = uniform(-5, 5)``, ``b1 = uniform(-6, 6)`` and
    ``kbt = uniform(0.05, 10)``, each from the next double ``u`` of
    ``default_rng(seed)`` as ``lo + (hi - lo) * u``, which is how numpy
    evaluates ``uniform``. The doubles are taken as one block; each
    rejected ``j`` shifts every later draw by one double.
    """
    rng = np.random.default_rng(seed)
    doubles = rng.random(4 * count)
    starts = 4 * np.arange(count)
    while True:
        short = (starts[-1] + 4 - doubles.size) if count else 0
        if short > 0:
            doubles = np.concatenate([doubles, rng.random(short)])
        rejected = np.abs(_uniform(doubles[starts], -3.0, 3.0)) < 0.05
        if not rejected.any():
            break
        starts[np.argmax(rejected) :] += 1
    u = doubles[starts[:, None] + np.arange(4)]
    return (
        _uniform(u[:, 0], -3.0, 3.0),
        _uniform(u[:, 1], -5.0, 5.0),
        _uniform(u[:, 2], -6.0, 6.0),
        _uniform(u[:, 3], 0.05, 10.0),
    )


def _uniform(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    # What Generator.uniform(lo, hi) returns for the double u it draws.
    return lo + (hi - lo) * u


def _worst(
    name: str, errors: np.ndarray, tolerance: float, cases: Mapping[str, np.ndarray]
) -> CheckResult:
    # The largest error and its case; a NaN error counts as the worst and fails.
    if errors.size == 0:
        return CheckResult(name, True, 0.0, tolerance, 0, None)
    index = int(errors.argmax())
    worst = float(errors[index])
    where = {key: float(values[index]) for key, values in cases.items()}
    return CheckResult(name, worst <= tolerance, worst, tolerance, errors.size, where)


# Offsets of the envelope witness from -b1/2, in units of eta. The innermost
# stays above ENVELOPE_ARGMAX_TOL, so that a misplaced peak reads past it; the
# outermost below 1, so that every witness point is a crossing.
_WITNESS_OFFSETS = (2e-4, 2e-3, 2e-2, 0.2, 0.6)


def _witness_temp(eta: float, b: float, b1: float) -> float:
    # fidelity_critical_temp(ChainParams(1.0, b, b1)).value, bit for bit, for
    # the eta of (1, b1), which does not depend on b, and |b + b1/2| < eta.
    return 1.0 / _fidelity_root(1.0, eta, abs(b + 0.5 * b1))[0]


def _envelope_witness(b1: float) -> Tuple[float, float]:
    # The envelope checks' errors at (1, b1): the largest |b + b1/2| among the
    # witness points whose threshold is not strictly below their inner
    # neighbour's (NaN included), and |T_F(-b1/2) - T_E|.
    params = ChainParams(1.0, 0.0, b1)
    center, eta = -0.5 * b1, params.eta
    peak = _witness_temp(eta, center, b1)
    argmax_error = 0.0
    for side in (-eta, eta):
        inner = peak
        for t in _WITNESS_OFFSETS:
            b = center + side * t
            value = _witness_temp(eta, b, b1)
            if not value < inner:
                argmax_error = max(argmax_error, abs(b + 0.5 * b1))
            inner = value
    return argmax_error, abs(peak - entanglement_critical_temp(params).value)


def verify_suite(seed: int = 0, draws: int = 120) -> VerifyReport:
    """Randomized equivalence checks between the closed forms and their oracles.

    Draws parameters from the standard test domain (|J| >= 0.05 in [-3, 3],
    B in [-5, 5], B1 in [-6, 6], kbT in [0.05, 10]) and compares: the
    thermal state against the generic Gibbs route, the concurrence against
    the spin-flip construction, the singlet fraction against both the
    correlation-tensor formula and the largest eigenvalue in the magic
    basis (the check keeps its name ``singlet_fraction_closed_vs_search``),
    the ordering of the two critical temperatures where a fidelity crossing
    exists, and the envelope property at four impurity fields. Fully
    deterministic for a fixed seed.

    The envelope property, that ``T_F(B)`` at ``J = 1`` peaks at
    ``B = -B1/2`` and equals ``T_E`` there, is checked at ``B1`` in
    (0, 1, 2, 4) on a symmetric witness, not by a search: the threshold at
    the centre ``-B1/2`` and at ``-B1/2 +/- eta t`` for ``t`` in (2e-4,
    2e-3, 2e-2, 0.2, 0.6), 11 solves a field. Each point is a crossing and
    goes straight to the threshold's root solver with the field's ``eta``,
    which does not depend on ``B``, so each value has the bits of
    ``fidelity_critical_temp(ChainParams(1, B, B1)).value``.
    The argmax error is the largest ``|B + B1/2|`` among the witness points
    whose ``T_F`` is not strictly below that of their inner neighbour, 0
    when ``T_F`` falls strictly outward on both sides; any failure reads at
    least ``2e-4 eta``, above its tolerance. The peak error is
    ``|T_F(-B1/2) - T_E|``. The section search itself
    (``envelope_extremum``) is left to the ``envelope`` command.

    All draws are evaluated as arrays. One ``gibbs_weights_grid`` call
    gives the state stack, the concurrence and the singlet fraction, with
    the bits of ``thermal_state_grid``, ``concurrence_grid`` and
    ``singlet_fraction_grid``; the two ``*_critical_temp_grid`` solvers
    give the thresholds. Each oracle runs with one batched call on the
    whole stack of states (``gibbs_oracle_grid``, and ``concurrence_wootters``,
    ``correlation_tensor``, ``singlet_fraction_general`` and
    ``singlet_fraction_oracle``, which accept stacks). The threshold solves
    run one at a time: the envelope witnesses' 44, and the fidelity
    threshold grid's crossing lanes, which it solves one by one up to 80
    (49 to 65 a pass for seeds 0 to 9 at 120 draws). Every check reports
    how many cases it ran on and its worst case. Raises ``ValueError`` for
    ``seed < 0`` or ``draws < 0``.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if draws < 0:
        raise ValueError(f"draws must be >= 0, got {draws}")
    j, b, b1, kbt = _draws(seed, draws)
    point = {"J": j, "B": b, "B1": b1, "kbT": kbt}
    weights = gibbs_weights_grid(j, b, b1, kbt)
    rho = _x_state_stack(weights)
    closed = _singlet_fraction(weights, _larger)
    state_error = np.abs(rho - gibbs_oracle_grid(j, b, b1, kbt)).max(axis=(-2, -1))
    fidelity_tc = fidelity_critical_temp_grid(j, b, b1)
    crossing = ~np.isnan(fidelity_tc)
    order = fidelity_tc[crossing] - entanglement_critical_temp_grid(j, b, b1)[crossing]
    checks = [
        _worst("state_closed_vs_gibbs", state_error, 1e-10, point),
        _worst(
            "concurrence_closed_vs_spin_flip",
            np.abs(_concurrence(weights, np.sqrt, _larger) - concurrence_wootters(rho)),
            1e-10,
            point,
        ),
        _worst(
            "singlet_fraction_closed_vs_tensor",
            np.abs(closed - singlet_fraction_general(correlation_tensor(rho))),
            1e-10,
            point,
        ),
        _worst(
            "singlet_fraction_closed_vs_search",
            np.abs(closed - singlet_fraction_oracle(rho)),
            1e-10,
            point,
        ),
        _worst(
            "fidelity_tc_below_entanglement_tc",
            order,
            1e-9,
            {key: values[crossing] for key, values in point.items()},
        ),
    ]

    fields = np.array([0.0, 1.0, 2.0, 4.0])
    argmax_error, peak_error = np.array([_envelope_witness(b1) for b1 in fields.tolist()]).T
    envelope = {"J": np.ones_like(fields), "B1": fields}
    checks += [
        _worst("envelope_argmax_at_minus_half_b1", argmax_error, ENVELOPE_ARGMAX_TOL, envelope),
        _worst("envelope_peak_equals_entanglement_tc", peak_error, ENVELOPE_PEAK_TOL, envelope),
    ]
    return VerifyReport(seed=seed, draws=draws, checks=tuple(checks))
