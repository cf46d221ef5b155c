"""Per-layer tracing of xxchain from outside the library.

``Tracer.install`` rebinds every listed public function, in every loaded
``xxchain`` module namespace, to a wrapper that counts calls and
accumulates self time: the wrapper's wall time minus the time spent in
wrapped functions it called. Rebinding each namespace, not only the
defining one, catches intra-module calls such as
``thermal_state -> thermal_coefficients`` and imported names such as
``scan.thermal_state``. ``Tracer.remove`` restores the original bindings.

Solver objectives and a few results are counted too (see ``COUNTS``);
those counts repeat exactly for identical inputs.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

LAYERS = {
    "model": ("thermal_coefficients", "thermal_state", "gibbs_oracle", "ground_state"),
    "numerics": ("hermitian_eigen", "svd3", "bisect_root", "maximize_unimodal"),
    "entanglement": ("concurrence_closed_form", "concurrence_wootters", "entanglement_critical_temp"),
    "teleportation": (
        "correlation_tensor",
        "singlet_fraction_closed_form",
        "singlet_fraction_general",
        "singlet_fraction_oracle",
        "teleport_metrics",
        "fidelity_critical_temp",
        "envelope_extremum",
    ),
    "scan": ("run_scan", "write_scan", "verify_suite"),
    "cli": ("main",),
}
FUNCTIONS = tuple(f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns)

ORACLE = "teleportation.singlet_fraction_oracle"
COUNTS = (
    "numerics.bisect_root.evals",
    "numerics.maximize_unimodal.evals",
    "teleportation.fidelity_critical_temp.iterations",
    "teleportation.fidelity_critical_temp.no_crossing",
    # Objective evaluations the oracle hands to maximize_unimodal, per
    # oracle call; its own coarse probes are not visible from outside.
    "teleportation.singlet_fraction_oracle.evals_per_call",
    "scan.run_scan.points",
    "scan.write_scan.bytes",
)


class Tracer:
    """Call counts, self times and solver counts for one traced stretch of work."""

    def __init__(self):
        self._stack = []  # [function name, time spent in wrapped callees]
        self._bindings = []  # (module, attribute, original)
        self.calls, self.self_s, self.counts = {}, {}, {}
        self.reset()

    def reset(self) -> None:
        # Cleared in place: the installed wrappers hold these dicts.
        self.calls.update(dict.fromkeys(FUNCTIONS, 0))
        self.self_s.update(dict.fromkeys(FUNCTIONS, 0.0))
        self.counts.update(dict.fromkeys(COUNTS, 0))
        self._oracle_evals = 0

    def snapshot(self) -> dict:
        """Per-layer metrics of the work traced since the last reset."""
        out = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        oracle_calls = self.calls[ORACLE]
        out[f"{ORACLE}.evals_per_call"] = self._oracle_evals / oracle_calls if oracle_calls else 0.0
        return out

    # -------------------------------------------------------------- install

    def install(self) -> None:
        wrappers = {}
        for module, fns in LAYERS.items():
            home = sys.modules[f"xxchain.{module}"]
            for fn in fns:
                original = getattr(home, fn, None)
                if original is not None:
                    wrappers[id(original)] = (original, self._wrap(f"{module}.{fn}", original))
        for name, module in list(sys.modules.items()):
            if name != "xxchain" and not name.startswith("xxchain."):
                continue
            for attribute, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._bindings.append((module, attribute, value))
                    setattr(module, attribute, entry[1])

    def remove(self) -> None:
        for module, attribute, original in reversed(self._bindings):
            setattr(module, attribute, original)
        self._bindings.clear()

    # -------------------------------------------------------------- wrappers

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        calls, self_s = self.calls, self.self_s
        before = self._count_objective(name) if name in ("numerics.bisect_root", "numerics.maximize_unimodal") else None
        after = {
            "teleportation.fidelity_critical_temp": self._after_fidelity_critical_temp,
            "scan.run_scan": self._after_run_scan,
            "scan.write_scan": self._after_write_scan,
        }.get(name)

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_objective(self, name: str):
        key = name + ".evals"
        counts, stack = self.counts, self._stack

        def before(args, kwargs):
            if "fn" in kwargs:
                kwargs = dict(kwargs, fn=self._counted(kwargs["fn"], key, counts, stack))
            else:
                args = (self._counted(args[0], key, counts, stack),) + args[1:]
            return args, kwargs

        return before

    def _counted(self, objective, key, counts, stack):
        in_oracle = any(frame[0] == ORACLE for frame in stack)

        def counted(*args, **kwargs):
            counts[key] += 1
            if in_oracle:
                self._oracle_evals += 1
            return objective(*args, **kwargs)

        return counted

    def _after_fidelity_critical_temp(self, result) -> None:
        self.counts["teleportation.fidelity_critical_temp.iterations"] += result.iterations
        self.counts["teleportation.fidelity_critical_temp.no_crossing"] += not result.exists

    def _after_run_scan(self, result) -> None:
        self.counts["scan.run_scan.points"] += len(result)

    def _after_write_scan(self, result) -> None:
        self.counts["scan.write_scan.bytes"] += sum(Path(path).stat().st_size for path in result)
