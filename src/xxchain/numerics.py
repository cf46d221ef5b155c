"""Scalar bracketing solvers and the input and error helpers of the array kernels.

The root finder and the section search are hand rolled so their iteration
schedules stay deterministic and their diagnostics (bracket endpoints, step
counts, final widths) can be reported exactly. Each stops at one fixed
width, 1e-10 for the root and 1e-6 for the section search, as no caller
needs another. ``bisect_root`` has no library caller: it is the reference
schedule that the fidelity threshold's own bisection loop
(``teleportation.fidelity_critical_temp``, which settles the midpoints of
certified sign inline) must match bit for bit, and the tests replay it.
``raise_first`` lets the array kernels fail exactly as their scalar twins
do, and ``as_states`` checks the input of the state oracles. A
``BracketError``, which carries its message only, is raised where the
threshold's bracket shows no sign change, built for both bisections by
``_no_sign_change``, and where its root in ``beta = 1/kbT`` passes the
float range (``eta`` below about 1.04e-308), so that the bracket has no
finite midpoint.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Tuple

import numpy as np

__all__ = [
    "BracketError",
    "CriticalResult",
    "as_states",
    "bisect_root",
    "maximize_unimodal",
    "raise_first",
]

# Inverse golden ratio, the contraction factor of the section search.
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# Step caps of the bisection and of the section search.
_MAX_BISECTIONS = 200
_MAX_SECTIONS = 500
# Widths at which the bisection and the section search stop.
_BISECT_TOL = 1e-10
_SECTION_TOL = 1e-6


class BracketError(ValueError):
    """A bracketing solve failed: no sign change, or a root past the float range.

    Carries its message only; a sign-change failure's message names the
    endpoint values the solver saw.
    """


def _no_sign_change(lo: float, hi: float, f_lo: float, f_hi: float) -> BracketError:
    # The error of both bisections, bisect_root and the fidelity threshold's.
    return BracketError(f"no sign change on [{lo:g}, {hi:g}]: fn(lo) = {f_lo:.6e}, fn(hi) = {f_hi:.6e}")


class CriticalResult(NamedTuple):
    """Outcome of a critical-temperature computation.

    ``value`` is a thermal energy (k_B times temperature). When ``exists``
    is False the value is NaN and ``note`` says why no crossing exists.
    ``iterations`` and ``residual`` are solver diagnostics, the bisection
    step count and the final bracket width; both are zero when the value
    comes from a closed form, in which case ``residual`` instead reports
    the defect of the defining condition at the returned value. A width is
    no error bound: at floating-point resolution the root can lie a few
    ulps beyond half of it.

    An immutable named tuple: it unpacks, indexes and compares like the
    tuple of its five fields, and ``_replace`` gives a changed copy.
    """

    value: float
    exists: bool
    iterations: int = 0
    residual: float = 0.0
    note: str = ""


def raise_first(rejected: np.ndarray, scalar: Callable[..., object], *arrays) -> None:
    """Raise the scalar route's own error at the first rejected grid point.

    ``rejected`` flags, over the broadcast shape of ``arrays``, the points
    that ``scalar`` raises on. The first flagged point in row-major order,
    the order a per-point loop meets them, is handed to ``scalar`` as
    floats, so an array kernel fails with the same exception type and
    message as its scalar twin. Returns when nothing is flagged.
    """
    if not rejected.any():
        return
    index = int(np.argmax(rejected))
    point = [float(np.broadcast_to(a, rejected.shape).flat[index]) for a in arrays]
    scalar(*point)
    raise RuntimeError(f"array kernel rejected {point}, which its scalar route accepts")


# The closed forms are each written once for floats and arrays; they take the
# steps that differ as arguments: math.exp, max and _pick for floats, np.exp,
# _larger and np.where for arrays.
def _pick(condition, if_true, if_false):
    return if_true if condition else if_false


def _larger(a, b):
    # The builtin max(a, b) over arrays: a unless b > a, NaN included.
    return np.where(b > a, b, a)


def as_states(rho) -> np.ndarray:
    """``rho`` as a complex array of one 4x4 matrix or a ``(..., 4, 4)`` stack.

    Raises ``ValueError`` on any other shape or on a non-finite entry.
    """
    r = np.asarray(rho, dtype=complex)
    if r.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix or a stack of them, got shape {r.shape}")
    if not np.isfinite(r).all():
        raise ValueError("density matrix contains non-finite entries")
    return r


def bisect_root(fn: Callable[[float], float], lo: float, hi: float) -> Tuple[float, int, float]:
    """Bisection root of ``fn`` on ``[lo, hi]``.

    ``fn(lo)`` and ``fn(hi)`` must differ in sign. The search halves the
    bracket until its width is at most 1e-10, for at most 200 steps, and
    returns ``(root, iterations, width)``: the final midpoint, the number
    of midpoint evaluations and the final bracket width. An exact zero hit
    ends the search at once; a NaN midpoint value moves the end whose value
    is not positive.

    Past the entry checks only the sign of each value, and whether it is an
    exact zero, steer the search, so a loop that takes the known sign of a
    point without evaluating ``fn`` there returns the same result, bit for
    bit. ``teleportation.fidelity_critical_temp`` runs such a loop; this
    function is its reference schedule, which the tests replay.

    Raises
    ------
    ValueError
        If ``lo >= hi``.
    BracketError
        If the endpoint values do not straddle zero; the message names both.
    """
    if not lo < hi:
        raise ValueError(f"invalid interval [{lo}, {hi}]")
    f_lo = fn(lo)
    f_hi = fn(hi)
    if f_lo == 0.0:
        return lo, 0, 0.0
    if f_hi == 0.0:
        return hi, 0, 0.0
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise _no_sign_change(lo, hi, f_lo, f_hi)
    iterations = 0
    while hi - lo > _BISECT_TOL and iterations < _MAX_BISECTIONS:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # bracket is at floating point resolution
        f_mid = fn(mid)
        iterations += 1
        if f_mid == 0.0:
            lo = hi = mid
            break
        if (f_mid > 0.0) == (f_hi > 0.0):
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi), iterations, hi - lo


def maximize_unimodal(fn: Callable[[float], float], lo: float, hi: float) -> Tuple[float, float]:
    """Golden-section maximization of a unimodal function on ``[lo, hi]``.

    Returns ``(argmax, value)`` once the interval has contracted to width
    1e-6, or after 500 steps. The probe schedule depends only on the
    interval, so repeated calls are bit-for-bit identical.
    """
    if not lo < hi:
        raise ValueError(f"invalid interval [{lo}, {hi}]")
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    f_c, f_d = fn(c), fn(d)
    for _ in range(_MAX_SECTIONS):
        if not b - a > _SECTION_TOL:
            break
        if f_c < f_d:
            a = c
            c, f_c = d, f_d
            d = a + _INVPHI * (b - a)
            f_d = fn(d)
        else:
            b = d
            d, f_d = c, f_c
            c = b - _INVPHI * (b - a)
            f_c = fn(c)
    x = 0.5 * (a + b)
    return x, fn(x)
