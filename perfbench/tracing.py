"""Spans around calls into chainrad's public functions, plus layer probes.

The wrappers live here, not in the program: :func:`install` replaces each
target function on every loaded ``chainrad`` module that holds it, so
calls through ``from .damping import x_sweep`` bindings are traced too.
Per-bond and per-point functions (``f_kernel_minus_one``,
``transfer_exact``, ``total_intensity``, ...) are not wrapped; their cost
comes from :func:`kernel_probe` and :func:`transfer_probe`, and their
call counts from the inputs.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import subprocess
import sys
import time

#: Public functions wrapped per layer module. Names a later version of
#: the program drops are skipped and read as zero.
TARGETS = {
    "cli": ("main",),
    "scales": (
        "config_from_dict", "config_from_json", "derive_scales",
        "dimensionless_separation",
    ),
    "coupling": ("coupling_sweep", "coupling_matrix"),
    "states": ("symmetric_state", "alternating_state", "enumerate_sign_states"),
    "damping": (
        "damping_general", "damping_symmetric", "damping_quadrature_oracle",
        "x_sweep", "n_scaling_sweep", "angle_sweep",
    ),
    "emission": ("emission_sweep", "build_geometry"),
}
LAYERS = ("cli", "scales", "coupling", "states", "damping", "emission", "sweeps")
PROBE_REPEATS = 7


def _bonds(args, kwargs, result):
    n = len(args[0].coeffs)
    return {"bonds": n * (n - 1) // 2}


def _points(args, kwargs, result):
    n = len(args[0].coeffs)
    points = len(args[1])
    return {"points": points, "pair_points": points * n * (n + 1) // 2}


COUNTERS = {
    "damping.damping_general": _bonds,
    "emission.emission_sweep": _points,
}


class _CountingStream:
    def __init__(self, inner):
        self.inner = inner
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode())
        return self.inner.write(text)


class Tracer:
    """In-memory spans and per-function aggregates (calls, busy, self time,
    durations, work counts) plus exceptions raised per layer."""

    def __init__(self):
        self.spans = []
        self.stats = {}
        self.errors = {}
        self.op_id = None
        self._stack = []
        self._seen = set()

    def _stat(self, key):
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = {
                "calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": [],
                "counts": {},
            }
        return stat

    def span(self, key, fn, args, kwargs, counter=None):
        parent = self._stack[-1][0] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if id(exc) not in self._seen:
                self._seen.add(id(exc))
                layer = key.split(".", 1)[0]
                self.errors[layer] = self.errors.get(layer, 0) + 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.spans[index] = (key, start, end, parent, self.op_id)
            stat = self._stat(key)
            stat["calls"] += 1
            stat["busy_s"] += duration
            stat["self_s"] += duration - frame[1]
            stat["durations"].append(duration)
        if counter is not None:
            for name, value in counter(args, kwargs, result).items():
                stat["counts"][name] = stat["counts"].get(name, 0) + value
        return result

    def wrap(self, key, fn, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(key, fn, args, kwargs, counter)

        return wrapper

    def dump(self):
        return {"stats": self.stats, "errors": self.errors, "spans": self.spans}


def install(tracer: Tracer):
    """Wrap every target; returns the undo list for :func:`uninstall`."""
    for layer in TARGETS:
        importlib.import_module(f"chainrad.{layer}")
    modules = [m for name, m in list(sys.modules.items())
               if name == "chainrad" or name.startswith("chainrad.")]
    undo = []
    for layer, names in TARGETS.items():
        module = sys.modules[f"chainrad.{layer}"]
        for name in names:
            fn = getattr(module, name, None)
            if fn is None:
                continue
            key = f"{layer}.{name}"
            wrapper = tracer.wrap(key, fn, COUNTERS.get(key))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, fn))
    from chainrad.sweeps import SweepTable

    write_csv = SweepTable.write_csv

    def traced_write_csv(table, stream):
        counted = _CountingStream(stream)
        tracer.span("sweeps.write_csv", write_csv, (table, counted), {})
        stat = tracer.stats["sweeps.write_csv"]["counts"]
        stat["rows"] = stat.get("rows", 0) + len(table.rows)
        stat["bytes"] = stat.get("bytes", 0) + counted.bytes

    SweepTable.write_csv = traced_write_csv
    undo.append((SweepTable, "write_csv", write_csv))
    return undo


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def merge(into: dict, dump: dict):
    """Add one process's aggregates (``Tracer.dump()``) to ``into``."""
    stats = into.setdefault("stats", {})
    for key, stat in dump["stats"].items():
        acc = stats.setdefault(key, {
            "calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": [],
            "counts": {},
        })
        acc["calls"] += stat["calls"]
        acc["busy_s"] += stat["busy_s"]
        acc["self_s"] += stat["self_s"]
        acc["durations"].extend(stat["durations"])
        for name, value in stat["counts"].items():
            acc["counts"][name] = acc["counts"].get(name, 0) + value
    errors = into.setdefault("errors", {})
    for layer, count in dump["errors"].items():
        errors[layer] = errors.get(layer, 0) + count


# --------------------------------------------------------------- probes

def _median_rate(fn, items):
    rates = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        for args in items:
            fn(*args)
        rates.append(len(items) / (time.perf_counter() - start))
    return statistics.median(rates)


def kernel_probe(xs, n_max, phis):
    """Kernel evaluations per second over the bond lengths k*x, k < n_max,
    split by the branch the kernel takes."""
    from chainrad import damping

    fn = getattr(damping, "f_kernel_minus_one", None) or damping.f_kernel
    threshold = getattr(damping, "F_SERIES_THRESHOLD", 1.5)
    bonds = [(k * x, phi) for x in xs for k in range(1, n_max) for phi in phis]
    series = [b for b in bonds if b[0] < threshold]
    direct = [b for b in bonds if b[0] >= threshold]
    return {
        "series": _median_rate(fn, series), "direct": _median_rate(fn, direct),
        "series_evals": len(series), "direct_evals": len(direct),
    }


def transfer_probe():
    """transfer_exact evaluations per second over the figure 2 grid."""
    from chainrad import coupling

    xs = [0.01 + (20.0 - 0.01) * i / 999 for i in range(1000)]
    items = [(x, phi) for x in xs for phi in (0.0, math.pi / 2)]
    return {"rate": _median_rate(coupling.transfer_exact, items), "evals": len(items)}


IMPORT_MODULES = ("chainrad.scales", "chainrad.damping", "chainrad.emission")


def import_probe(env, repeats):
    """Fresh-interpreter import costs from ``-X importtime``: the whole of
    ``import chainrad.cli`` and each module's cumulative share of it."""
    samples = {name: [] for name in ("cli",) + IMPORT_MODULES}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import chainrad.cli"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=120, check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and line.startswith("import time:"):
                try:
                    cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
                except ValueError:
                    continue
        # the package import runs nested inside chainrad.cli's entry
        samples["cli"].append(cumulative["chainrad.cli"])
        for name in IMPORT_MODULES:
            samples[name].append(cumulative.get(name, 0.0))
    return {name: statistics.median(values) for name, values in samples.items()}


def write_spans(path, spans, op_prefix=""):
    """Append spans as JSON lines (name, start, end, parent, op)."""
    with open(path, "a") as fh:
        for key, start, end, parent, op in spans:
            fh.write(json.dumps({
                "name": key, "start": start, "end": end, "parent": parent,
                "op": f"{op_prefix}{op}" if op is not None else op_prefix or None,
            }) + "\n")
