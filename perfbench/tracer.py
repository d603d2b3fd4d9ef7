"""In-memory span tracer for the per-layer run.

The tracer wraps each public function of the qsd modules, plus the LAPACK
entry points ``numpy.linalg.eigh``, ``eigvalsh`` and ``solve``, in every module
namespace that binds it. Each call records a span (name, start, end, parent)
in flat arrays; self time is a span's duration minus the durations of its
direct children.

A :class:`Summary` holds additive counters only (calls and self time per span
name, kernel calls inside scope spans), so summaries from several processes
can be added before ratios are taken.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# Public functions per layer. ``frechet.oracle`` holds the integral, averaging,
# finite-difference and epsilon-limit routes, kept apart from the closed forms.
LAYERS: dict[str, tuple[str, ...]] = {
    "linalg": (
        "eigendecompose",
        "spectral_fn",
        "support_of",
        "restrict",
        "trace_norm",
        "operator_norm",
        "random_state",
        "random_hamiltonian",
        "random_cptp",
        "random_unitary",
    ),
    "divergences": (
        "von_neumann_entropy",
        "relative_entropy",
        "skew_divergence",
        "trace_distance",
        "fidelity",
        "apply_channel",
    ),
    "frechet": (
        "frechet_log",
        "second_frechet_log",
        "metric_M",
        "differential_skew_divergence",
        "chi2_log",
    ),
    "frechet.oracle": (
        "frechet_log_quadrature",
        "second_frechet_log_quadrature",
        "frechet_log_central_diff",
        "second_frechet_log_central_diff",
        "sd_by_averaging",
        "metric_epsilon_limit_check",
    ),
    "ensembles": (
        "average_state",
        "complementary_state",
        "holevo_chi",
        "holevo_chi_relative_entropy_form",
        "holevo_chi_skew_divergence_form",
        "chi_upper_bounds",
        "chi_continuity_bound",
        "evolve",
        "mixing_rate",
        "sim_bound_check",
    ),
    "verify": ("run_suite",),
    "io": ("read_state", "read_ensemble", "dump_json"),
    "cli": ("main",),
}

# Module that defines each layer's functions (the oracle shares ``frechet``).
_LAYER_MODULE = {layer: "qsd." + layer.split(".")[0] for layer in LAYERS}

KERNEL = ("eigh", "eigvalsh", "solve")

SD = "divergences.skew_divergence"
QUADRATURE = ("frechet.oracle.frechet_log_quadrature", "frechet.oracle.second_frechet_log_quadrature")
AVERAGING = "frechet.oracle.sd_by_averaging"
# Scope spans whose enclosed kernel calls are counted.
SCOPES = (SD,) + QUADRATURE + (AVERAGING,)


class Tracer:
    """Records spans of wrapped calls; :meth:`install` patches, :meth:`uninstall` restores."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded ``qsd`` namespace and in numpy.linalg."""
        import numpy.linalg as la

        targets: dict[int, tuple[object, object]] = {}
        for layer, fns in LAYERS.items():
            module = sys.modules[_LAYER_MODULE[layer]]
            for fn_name in fns:
                fn = getattr(module, fn_name)
                targets[id(fn)] = (fn, self.wrap(f"{layer}.{fn_name}", fn))
        for fn_name in KERNEL:
            fn = getattr(la, fn_name)
            targets[id(fn)] = (fn, self.wrap(f"kernel.{fn_name}", fn))
            self._patch(la, fn_name, targets[id(fn)][1])

        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "qsd" or mod_name.startswith("qsd.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def self_times(self) -> list[float]:
        """Self time of each span: duration minus the durations of its direct children."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for idx, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[idx] - self.start[idx]
        return out

    def summary(self) -> "Summary":
        total = Summary()
        self_t = self.self_times()
        names = self.names
        scope_ids = {self._ids[s] for s in SCOPES if s in self._ids}
        # innermost enclosing scope span of each span (-1 outside any scope);
        # parents always precede their children, so one forward pass suffices
        scope_of = array("i", [-1]) * len(self.start)
        for idx, (nid, p) in enumerate(zip(self.name_id, self.parent)):
            name = names[nid]
            total.add(name, 1, self_t[idx])
            enclosing = scope_of[p] if p >= 0 else -1
            if name.startswith("kernel.") and enclosing >= 0:
                key = f"{names[enclosing]}>{name}"
                total.inner[key] = total.inner.get(key, 0) + 1
            scope_of[idx] = nid if nid in scope_ids else enclosing
        return total


class Summary:
    """Additive per-name counters taken from one or more traced processes."""

    def __init__(self, calls=None, self_s=None, inner=None):
        self.calls: dict[str, int] = dict(calls or {})
        self.self_s: dict[str, float] = dict(self_s or {})
        self.inner: dict[str, int] = dict(inner or {})

    def add(self, name: str, calls: int, self_s: float) -> None:
        self.calls[name] = self.calls.get(name, 0) + calls
        self.self_s[name] = self.self_s.get(name, 0.0) + self_s

    def merge(self, other: "Summary") -> None:
        for name, n in other.calls.items():
            self.add(name, n, other.self_s[name])
        for key, n in other.inner.items():
            self.inner[key] = self.inner.get(key, 0) + n

    def to_dict(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, "inner": self.inner}

    @classmethod
    def from_dict(cls, payload: dict) -> "Summary":
        return cls(payload["calls"], payload["self_s"], payload["inner"])

    def per_call(self, scopes, kernels) -> float:
        """Kernel calls of the given kinds inside the given scopes, per scope call."""
        calls = sum(self.calls.get(s, 0) for s in scopes)
        if calls == 0:
            return 0.0
        inner = sum(self.inner.get(f"{s}>kernel.{k}", 0) for s in scopes for k in kernels)
        return inner / calls
