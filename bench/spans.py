"""In-memory span tracing of pmrisk's public functions, installed from outside.

``Tracer.install`` replaces every public function defined in a pmrisk layer
module with a recording wrapper, at every module attribute that binds it.
Callers look functions up through their own module globals (``copula`` calls
``t_cdf`` from its own namespace, ``risk`` calls ``calibrate_is`` from its
own), so each binding is patched, not only the defining one.
``Tracer.uninstall`` puts the originals back, so untraced passes run the
unmodified program.  Span times are process CPU seconds.

A span records its name, parent, start, end, self time (duration minus the
time covered by child spans), a work count for the functions listed in
``COUNTS`` and whether it raised.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("statkit", "ghdist", "copula", "estimators", "risk", "calibration",
          "presets", "cli")

# work counted per call: rows mapped, values evaluated, draws made
COUNTS = {
    "statkit.t_cdf": lambda args, result: int(np.size(args[0])),
    "copula.marginal_transform": lambda args, result: int(result.shape[0]),
    "estimators.stratified_sample": lambda args, result: int(result.z.shape[0]),
    "estimators.simulate_tilted": lambda args, result: int(result[0].shape[0]),
    "ghdist.gh_logpdf": lambda args, result: int(np.size(args[1])),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._patched: list[tuple] = []
        self._epoch = time.process_time()

    def _wrap(self, name: str, fn):
        count = COUNTS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [len(spans) + len(stack), clock(), 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(frame, parent, name, 0, False)
                raise
            self._close(frame, parent, name,
                        count(args, result) if count else 0, True)
            return result

        return traced

    def _close(self, frame, parent, name, n, ok):
        end = time.process_time()
        self._stack.pop()
        duration = end - frame[1]
        if self._stack:
            self._stack[-1][2] += duration
        self.spans.append((frame[0], parent, name, frame[1] - self._epoch,
                           end - self._epoch, duration - frame[2], n, ok))

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"pmrisk.{layer}")
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_")):
                    originals[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        for modname, module in list(sys.modules.items()):
            if modname != "pmrisk" and not modname.startswith("pmrisk."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    setattr(module, attr, originals[id(value)][1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in self._patched:
            setattr(module, attr, value)
        self._patched.clear()

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines, one span per line, by start."""
        keys = ("id", "parent", "name", "start_s", "end_s", "self_s", "n", "ok")
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in sorted(self.spans, key=lambda s: s[3]):
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def summarize(spans) -> dict:
    """Per-function totals, plus work attributed to CaR and CCaR spans.

    Returns ``{name: {"calls", "s", "self_s", "n", "failures", ...}}``; the
    ``risk.solve_car`` and ``risk.compute_ccar`` entries also carry
    ``rounds`` (``calibrate_is`` calls beneath them) and ``draws`` (rows
    through ``marginal_transform`` beneath them).
    """
    by_id = {s[0]: s for s in spans}
    out = defaultdict(lambda: dict.fromkeys(
        ("calls", "s", "self_s", "n", "failures", "rounds", "draws"), 0))
    for _, parent, name, start, end, self_s, n, ok in spans:
        entry = out[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += self_s
        entry["n"] += n
        entry["failures"] += 0 if ok else 1
        attribute = {"estimators.calibrate_is": ("rounds", 1),
                     "copula.marginal_transform": ("draws", n)}.get(name)
        while attribute and parent in by_id:
            ancestor = by_id[parent]
            if ancestor[2] in ("risk.solve_car", "risk.compute_ccar"):
                out[ancestor[2]][attribute[0]] += attribute[1]
                break
            parent = ancestor[1]
    return dict(out)
