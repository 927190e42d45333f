"""Span tracing of the jcas layers, installed from outside the package.

Each traced layer function is replaced, by identity, in every ``jcas.*``
module namespace that binds it, so call sites that import the function
under any name are traced. Spans ``(name, start_ns, end_ns, parent, op)``
stay in memory until ``write``. A span's self time is its duration minus
the durations of its direct children. Counts are taken at the same
boundaries from the arguments and results of the traced calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

# Layer module -> public functions that get a span named "<module>.<function>".
LAYER_FUNCTIONS = {
    "scenario": ("load_scene", "targets_at"),
    "channel": ("target_amplitudes", "synthesize_diag", "synthesize_grid"),
    "transforms": ("dft", "idft"),
    "diag_estimator": ("apply_window", "diag_spectrum", "detect_peaks_1d",
                       "pair_peaks", "candidates"),
    "grid_estimator": ("range_doppler_map", "detect_peaks_2d"),
    "tracking": ("resolve_ambiguity",),
}
# Root span of one operation, opened by the benchmark around ``cli.main``.
OP_SPAN = "cli"


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack = [-1]
        self.op = -1
        self.totals: defaultdict[str, float] = defaultdict(float)
        self._op_tracks: list | None = None
        self._op_track_ids: set[int] = set()
        self._patches: list[tuple[object, str, object, object]] = []
        hooks = {"pair_peaks": self._count_pairs,
                 "detect_peaks_2d": self._count_grid,
                 "resolve_ambiguity": self._count_tracks}
        modules = [m for n, m in sys.modules.items() if n == "jcas" or n.startswith("jcas.")]
        for layer, names in LAYER_FUNCTIONS.items():
            layer_mod = importlib.import_module(f"jcas.{layer}")
            for fname in names:
                original = getattr(layer_mod, fname)
                traced = self._wrap(f"{layer}.{fname}", original, hooks.get(fname))
                self._patches += [(m, attr, original, traced) for m in modules
                                  for attr, value in vars(m).items() if value is original]

    def _wrap(self, name: str, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if count is not None:
                count(args, kwargs, result)
            return result
        return traced

    def _count_pairs(self, args, kwargs, result) -> None:
        pairs, orphans = result
        t = self.totals
        t["diag_frames"] += 1
        t["peaks"] += len(_arg(args, kwargs, 0, "peaks"))
        t["pairs"] += len(pairs)
        t["orphans"] += len(orphans)

    def _count_grid(self, args, kwargs, result) -> None:
        db = _arg(args, kwargs, 0, "rd_map").magnitude_db
        t = self.totals
        t["grid_frames"] += 1
        t["cells_above"] += int((db >= _arg(args, kwargs, 1, "threshold_db")).sum())
        t["grid_detections"] += len(result)

    def _count_tracks(self, args, kwargs, result) -> None:
        self._op_tracks = result
        self._op_track_ids.update(tr.track_id for tr in result)

    def install(self) -> None:
        for module, attr, _, traced in self._patches:
            setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def run_op(self, fn):
        """Call ``fn()`` traced, under one root span, and return its result."""
        self.op += 1
        self._op_tracks, self._op_track_ids = None, set()
        self.install()
        try:
            return self._wrap(OP_SPAN, fn, None)()
        finally:
            self.uninstall()
            tracks = self._op_tracks or []
            t = self.totals
            t["ops"] += 1
            t["tracks_alive"] += len(tracks)
            t["tracks_resolved"] += sum(tr.chosen != "undecided" for tr in tracks)
            t["tracks_opened"] += len(self._op_track_ids)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times per operation and counts, by metric name."""
        t = self.totals
        ops = max(t["ops"], 1)
        diag = max(t["diag_frames"], 1)
        grid = max(t["grid_frames"], 1)
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ms: defaultdict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_ms[name] += (end - start - child_ns[i]) / 1e6 / ops
        out = {f"{name}_ms": self_ms.get(name, 0.0)
               for layer, names in LAYER_FUNCTIONS.items()
               for name in (f"{layer}.{f}" for f in names)}
        out["cli.self_ms"] = self_ms.get(OP_SPAN, 0.0)
        out.update({
            "tracking.tracks_alive": t["tracks_alive"] / ops,
            "tracking.tracks_opened": t["tracks_opened"] / ops,
            "tracking.resolved_fraction": t["tracks_resolved"] / max(t["tracks_alive"], 1),
            "diag_estimator.peaks_per_frame": t["peaks"] / diag,
            "diag_estimator.pairs_per_frame": t["pairs"] / diag,
            "diag_estimator.orphans_per_frame": t["orphans"] / diag,
            "diag_estimator.pair_yield": 2 * t["pairs"] / max(t["peaks"], 1),
            "grid_estimator.cells_above_threshold": t["cells_above"] / grid,
            "grid_estimator.detections_per_frame": t["grid_detections"] / grid,
        })
        return out

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start_ns, end_ns, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for span in self.spans:
                f.write(json.dumps(span, separators=(",", ":")) + "\n")
