"""Independent cross-checks for the span tracer in :mod:`perfbench.layers`.

:class:`ProfileSession` runs cProfile over the measured window and groups
its self time by the layer of each function's module.  Time in builtins
(``~`` entries) is charged to the layer of the calling function, which is
where the span tracer counts it too.  Python code outside ``repro`` (the
benchmark's own hooks) is grouped as ``other``.

:class:`MarshalTimer` times only ``encode`` and ``decode`` of
``repro.orb.marshal``.  Marshal calls into no other layer, so two clock reads
per call give its self time with almost no instrumentation cost, a reference
for the one layer both profilers must attribute.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench.layers import layer_of_module

__all__ = ["MarshalTimer", "ProfileSession"]

_SRC = Path(__file__).resolve().parent.parent / "src"


def _module_of_file(filename: str) -> Optional[str]:
    try:
        relative = Path(filename).resolve().relative_to(_SRC)
    except ValueError:
        return None
    parts = list(relative.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


class ProfileSession:
    """Same result interface as :class:`perfbench.layers.LayerTracer`."""

    def __init__(self):
        self.profile = cProfile.Profile()
        self.counts: Dict[str, int] = {"orb.encode": 0, "orb.decode": 0, "net.transmit": 0}
        self.spans = 0
        self.spans_dropped = 0
        self._layer_ns: Optional[Dict[str, int]] = None
        self._top: List[Tuple[str, str, int, int]] = []

    def start(self) -> None:
        self.profile.enable()

    def stop(self) -> None:
        self.profile.disable()
        self._group()

    def _group(self) -> None:
        layers: Dict[str, float] = {}
        cache: Dict[str, str] = {}

        def layer_of(filename: str) -> str:
            layer = cache.get(filename)
            if layer is None:
                layer = cache[filename] = layer_of_module(_module_of_file(filename)) or "other"
            return layer

        rows = []
        for (filename, _line, func), (_cc, calls, own, _cum, callers) in pstats.Stats(
            self.profile
        ).stats.items():
            if filename == "~":
                for caller, edge in callers.items():
                    layer = layer_of(caller[0])
                    layers[layer] = layers.get(layer, 0.0) + edge[2]
                continue
            layer = layer_of(filename)
            layers[layer] = layers.get(layer, 0.0) + own
            rows.append((f"{_module_of_file(filename) or filename}.{func}", layer, own, calls))
        self._layer_ns = {layer: int(seconds * 1e9) for layer, seconds in layers.items()}
        rows.sort(key=lambda row: -row[2])
        self._top = [(name, layer, int(own * 1e9), calls) for name, layer, own, calls in rows[:15]]

    def layer_self_ns(self) -> Dict[str, int]:
        return dict(self._layer_ns or {})

    def top_functions(self, limit: int = 15):
        return self._top[:limit]


class MarshalTimer:
    """Same result interface as :class:`perfbench.layers.LayerTracer`,
    reporting only ``orb.marshal``."""

    def __init__(self):
        from repro.orb import marshal

        self.counts: Dict[str, int] = {"orb.encode": 0, "orb.decode": 0, "net.transmit": 0}
        self.spans = 0
        self.spans_dropped = 0
        self.active = False
        self.ns = 0
        timer = self

        def timed(fn, label):
            def wrapper(*args):
                if not timer.active:
                    return fn(*args)
                start = time.perf_counter_ns()
                try:
                    return fn(*args)
                finally:
                    timer.ns += time.perf_counter_ns() - start
                    timer.counts[label] += 1

            return wrapper

        # the ORB looks both up as attributes of the marshal module
        marshal.encode = timed(marshal.encode, "orb.encode")
        marshal.decode = timed(marshal.decode, "orb.decode")

    def start(self) -> None:
        self.active = True

    def stop(self) -> None:
        self.active = False

    def layer_self_ns(self) -> Dict[str, int]:
        return {"orb.marshal": self.ns}

    def top_functions(self, limit: int = 15):
        return []
