"""Layer tracing from outside the program: wrap every function of every
``repro`` module and record a span whenever a call crosses into another
layer.

The wrappers are installed before any deployment is built.  Each name is
patched where it is looked up: class attributes (so methods that objects
prebind at construction, such as ``Simulator.schedule_at``, are already the
wrapped ones), module functions in their own module, and every other module
that imported them by name.  Callbacks handed to the simulator or to a
future (lambdas and closures the wrappers cannot reach) are wrapped as they
are scheduled, and a generator process is charged to the layer of the
generator's module.

A span is opened only at a layer boundary; a call into the layer that is
already running passes straight through.  Each span stores its name, host
start and end (``perf_counter_ns``), parent span and the virtual time at
which it began.  Self time is a span's duration minus the time its child
spans cover.  The root of every tree is one ``Simulator.run`` slice, and
the root's self time is the event loop of the kernel.

The wrappers never consume randomness or change what they call, so a traced
run executes the same events as an untraced one; the benchmark checks that.
"""

from __future__ import annotations

import array
import functools
import gzip
import importlib
import inspect
import json
import pkgutil
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["LAYERS", "LayerTracer", "layer_of_module"]

#: module prefix -> layer, first match wins
_MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim", "sim"),
    ("repro.net", "net"),
    ("repro.orb.marshal", "orb.marshal"),
    ("repro.orb", "orb.dispatch"),
    ("repro.groupcomm.channel", "groupcomm.channel"),
    ("repro.groupcomm.ordering", "groupcomm.ordering"),
    ("repro.groupcomm.ticketbatch", "groupcomm.ordering"),
    ("repro.groupcomm.lamport", "groupcomm.ordering"),
    ("repro.groupcomm.vectorclock", "groupcomm.ordering"),
    ("repro.groupcomm.merger", "groupcomm.ordering"),
    ("repro.groupcomm.membership", "groupcomm.membership"),
    ("repro.groupcomm.failuredetector", "groupcomm.membership"),
    ("repro.groupcomm.views", "groupcomm.membership"),
    ("repro.groupcomm", "groupcomm.session"),
    ("repro.core.server", "core.server"),
    ("repro.core.registry", "core.server"),
    ("repro.core.service", "core.server"),
    ("repro.core", "core.binding"),
    ("repro.overload", "overload"),
    ("repro.shard", "shard"),
    ("repro.recovery", "recovery"),
    ("repro.obs", "obs"),
    ("repro.scenario", "scenario"),
    ("repro.bench", "scenario"),
    ("repro.apps", "apps"),
)

#: every layer, in report order ("sim" includes the kernel's event loop)
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for _p, layer in _MODULE_LAYERS))

#: functions whose every call is counted, not only calls across a boundary
COUNTED = {
    "repro.orb.marshal.encode": "orb.encode",
    "repro.orb.marshal.decode": "orb.decode",
    "repro.net.network.Network.transmit": "net.transmit",
}

_SPAN_FIELDS = ("name", "parent", "start_ns", "end_ns", "vtime")


def layer_of_module(module: Optional[str]) -> Optional[str]:
    """The layer a ``repro`` module belongs to (None outside the program)."""
    if not module:
        return None
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


class LayerTracer:
    """Span recorder plus the wrappers that feed it.

    ``install()`` patches the program; ``start()``/``stop()`` bound the
    measured window (spans are recorded only inside ``Simulator.run`` slices
    that run while the window is open).
    """

    def __init__(self, max_spans: int = 1_000_000):
        self.max_spans = max_spans
        self.names: List[str] = []
        self.name_layer: List[int] = []
        self._name_ids: Dict[str, int] = {}
        self.layer_ids: Dict[str, int] = {layer: i for i, layer in enumerate(LAYERS)}
        self.self_ns: List[int] = []
        self.spans_per_name: List[int] = []
        self.counts: Dict[str, int] = {label: 0 for label in COUNTED.values()}
        # span storage, one array per field (compact, appended in start order)
        self.sp_name = array.array("i")
        self.sp_parent = array.array("i")
        self.sp_start = array.array("q")
        self.sp_end = array.array("q")
        self.sp_vtime = array.array("d")
        self.spans_dropped = 0
        self.active = False
        self.sim = None
        #: layer id of the running span; -1 outside a measured root
        self._cur = [-1]
        self._stack_idx: List[int] = []
        #: time covered by child spans, per open span (slot 0: the roots)
        self._stack_child: List[int] = [0]

    # ------------------------------------------------------------------
    # name table
    # ------------------------------------------------------------------
    def _name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(self.layer_ids[layer])
            self.self_ns.append(0)
            self.spans_per_name.append(0)
        return nid

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Import every ``repro`` module and wrap its functions in place."""
        import repro

        modules = [repro]
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name.endswith("__main__"):
                continue
            modules.append(importlib.import_module(info.name))

        replaced: Dict[int, Callable] = {}
        for module in modules:
            layer = layer_of_module(module.__name__)
            if layer is None:
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    wrapped = self._wrap_function(value, layer)
                    replaced[id(value)] = wrapped
                    setattr(module, attr, wrapped)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._wrap_class(value, layer)
        # names imported into other modules (``from x import f``) are looked
        # up in the importing module's globals: patch them there too
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapped = replaced.get(id(value))
                if wrapped is not None and inspect.isfunction(value):
                    setattr(module, attr, wrapped)
        self._install_hooks()

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("__") and attr.endswith("__"):
                continue
            if isinstance(value, staticmethod):
                func = value.__func__
                if inspect.isfunction(func) and not inspect.isgeneratorfunction(func):
                    setattr(cls, attr, staticmethod(self._wrap_function(func, layer)))
            elif isinstance(value, classmethod):
                func = value.__func__
                if inspect.isfunction(func) and not inspect.isgeneratorfunction(func):
                    setattr(cls, attr, classmethod(self._wrap_function(func, layer)))
            elif inspect.isfunction(value):
                setattr(cls, attr, self._wrap_function(value, layer))

    def _wrap_function(self, fn: Callable, layer: str) -> Callable:
        if inspect.isgeneratorfunction(fn) or getattr(fn, "_pb_layer", None):
            return fn  # a generator body runs in Process._step, charged there
        qualname = f"{fn.__module__}.{fn.__qualname__}"
        nid = self._name_id(qualname, layer)
        lid = self.layer_ids[layer]
        cell = self._cur
        boundary = self._boundary
        label = COUNTED.get(qualname)
        if label is not None:
            counts = self.counts

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                current = cell[0]
                if current >= 0:
                    counts[label] += 1
                    if current != lid:
                        return boundary(fn, nid, lid, args, kwargs)
                return fn(*args, **kwargs)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                current = cell[0]
                if current == lid or current < 0:
                    return fn(*args, **kwargs)
                return boundary(fn, nid, lid, args, kwargs)

        wrapper._pb_layer = layer
        return wrapper

    def _wrap_callback(self, fn: Callable) -> Callable:
        """Charge a scheduled callback to the layer that defined it."""
        func = getattr(fn, "__func__", fn)
        if getattr(func, "_pb_layer", None):
            return fn  # already a wrapper: it opens its own span
        layer = layer_of_module(getattr(func, "__module__", None))
        if layer is None or layer == "sim":
            return fn
        qualname = f"{func.__module__}.{getattr(func, '__qualname__', 'callback')}"
        nid = self._name_id(qualname, layer)
        lid = self.layer_ids[layer]
        cell = self._cur
        boundary = self._boundary

        def callback(*args, **kwargs):
            current = cell[0]
            if current == lid or current < 0:
                return fn(*args, **kwargs)
            return boundary(fn, nid, lid, args, kwargs)

        return callback

    def _install_hooks(self) -> None:
        from repro.sim.core import Simulator
        from repro.sim.futures import Future
        from repro.sim.process import Process

        tracer = self
        wrap_callback = self._wrap_callback

        run = Simulator.run
        root_nid = self._name_id("repro.sim.core.Simulator.run", "sim")
        sim_lid = self.layer_ids["sim"]

        @functools.wraps(run)
        def traced_run(sim, *args, **kwargs):
            if not tracer.active:
                return run(sim, *args, **kwargs)
            tracer.sim = sim
            return tracer._boundary(run, root_nid, sim_lid, (sim,) + args, kwargs)

        traced_run._pb_layer = "sim"
        Simulator.run = traced_run

        schedule_at = Simulator.schedule_at

        @functools.wraps(schedule_at)
        def traced_schedule_at(sim, time_, fn, *args):
            return schedule_at(sim, time_, wrap_callback(fn), *args)

        traced_schedule_at._pb_layer = "sim"
        Simulator.schedule_at = traced_schedule_at

        add_done_callback = Future.add_done_callback

        @functools.wraps(add_done_callback)
        def traced_add_done_callback(future, fn):
            return add_done_callback(future, wrap_callback(fn))

        traced_add_done_callback._pb_layer = "sim"
        Future.add_done_callback = traced_add_done_callback

        step = Process._step
        gen_names: Dict[object, Tuple[int, int]] = {}
        cell = self._cur
        boundary = self._boundary

        @functools.wraps(step)
        def traced_step(process, value, exc):
            code = process._gen.gi_code
            entry = gen_names.get(code)
            if entry is None:
                module = process._gen.gi_frame.f_globals.get("__name__") if process._gen.gi_frame else None
                layer = layer_of_module(module) or "sim"
                name = f"{module}.{code.co_qualname}"
                entry = gen_names[code] = (tracer._name_id(name, layer), tracer.layer_ids[layer])
            nid, lid = entry
            if cell[0] == lid or cell[0] < 0:
                return step(process, value, exc)
            return boundary(step, nid, lid, (process, value, exc), {})

        traced_step._pb_layer = "sim"
        Process._step = traced_step

    # ------------------------------------------------------------------
    # span recording
    # ------------------------------------------------------------------
    def _open(self, nid: int) -> int:
        idx = len(self.sp_name)
        if idx >= self.max_spans:
            self.spans_dropped += 1
            return -1
        self.sp_name.append(nid)
        self.sp_parent.append(self._stack_idx[-1] if self._stack_idx else -1)
        self.sp_start.append(0)
        self.sp_end.append(0)
        self.sp_vtime.append(self.sim.now)
        return idx

    def _boundary(self, fn, nid, lid, args, kwargs):
        cell = self._cur
        prev = cell[0]
        cell[0] = lid
        idx = self._open(nid)
        stack_idx = self._stack_idx
        stack_child = self._stack_child
        stack_idx.append(idx)
        stack_child.append(0)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            duration = end - start
            stack_idx.pop()
            child = stack_child.pop()
            stack_child[-1] += duration
            self.self_ns[nid] += duration - child
            self.spans_per_name[nid] += 1
            if idx >= 0:
                self.sp_start[idx] = start
                self.sp_end[idx] = end
            cell[0] = prev

    def start(self) -> None:
        self.active = True

    def stop(self) -> None:
        self.active = False

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def spans(self) -> int:
        return len(self.sp_name)

    def layer_self_ns(self) -> Dict[str, int]:
        totals = {layer: 0 for layer in LAYERS}
        for nid, value in enumerate(self.self_ns):
            totals[LAYERS[self.name_layer[nid]]] += value
        return totals

    def top_functions(self, limit: int = 15) -> List[Tuple[str, str, int, int]]:
        order = sorted(range(len(self.names)), key=lambda n: -self.self_ns[n])
        return [
            (self.names[n], LAYERS[self.name_layer[n]], self.self_ns[n], self.spans_per_name[n])
            for n in order[:limit]
            if self.self_ns[n] > 0
        ]

    def write(self, path: str) -> None:
        """Write every recorded span: one JSON header line (name table,
        field order, array type codes), then each field's array as raw
        native-endian bytes, gzip-compressed."""
        arrays = (self.sp_name, self.sp_parent, self.sp_start, self.sp_end, self.sp_vtime)
        header = {
            "fields": _SPAN_FIELDS,
            "typecodes": [a.typecode for a in arrays],
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
            "names": self.names,
            "layers": [LAYERS[lid] for lid in self.name_layer],
        }
        with gzip.open(path, "wb", compresslevel=1) as out:
            out.write(json.dumps(header).encode("utf-8") + b"\n")
            for values in arrays:
                out.write(values.tobytes())
