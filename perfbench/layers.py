"""Per-layer instrumentation: wrap each layer's public functions in spans.

A *layer* is a group of ``repro`` modules (:data:`LAYER_MODULES`).  While
an :class:`Instrumentation` is installed, every public function and public
method defined in a layer's modules is replaced by a span-recording
wrapper, both where it is defined and wherever another ``repro`` module
holds a ``from x import f`` reference to it.  A few entry points get
special wrappers:

* ``SimClock.step`` also counts the events it runs and samples the
  pending-event peak;
* ``SimClock.schedule_at`` wraps timer callbacks in a span of the layer
  that scheduled them, so a retry timer is charged to its protocol
  rather than to the clock;
* ``Network.send`` / ``send_many`` note the messages dropped at send time
  and ``Network._deliver`` (the delivery callback) is wrapped too, which
  together account for every message the traffic ledger and the drop
  counter see;
* ``MessageRouter.register`` wraps each registered handler in a span
  labelled with the layer of its owner (``owner_of(kind)``), so engine
  handlers are charged to their engine;
* ``Tracer.span`` (a chaos phase) starts a new span group.

Instrumentation must be installed before the deployment is built, so
that bound methods captured at construction time are the wrappers, and
uninstalled afterwards; :meth:`Instrumentation.uninstall` restores every
attribute it replaced.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from dataclasses import dataclass

import numpy as np

from spans import SpanRecorder

#: Layer name -> the ``repro`` modules (or whole packages) it covers.
LAYER_MODULES: dict[str, tuple[str, ...]] = {
    "simclock": ("repro.net.simclock",),
    "latency": ("repro.net.latency",),
    "network": ("repro.net.network", "repro.net.traffic"),
    "gossip": ("repro.net.gossip",),
    "router": ("repro.protocols.router",),
    "dissemination": ("repro.protocols.dissemination",),
    "intracluster": ("repro.protocols.intracluster",),
    "query": ("repro.protocols.query",),
    "reliability": ("repro.protocols.reliability",),
    "repair": ("repro.protocols.repair",),
    "sync": ("repro.protocols.sync",),
    "dht": ("repro.dht",),
    "chain": ("repro.chain",),
    "crypto": ("repro.crypto",),
    "placement": ("repro.storage.placement",),
    "heat": ("repro.storage.heat",),
    "coded": ("repro.storage.coded", "repro.storage.erasure"),
    "faults": ("repro.sim.faults",),
    "obs": ("repro.obs",),
}

#: Every layer that reports a self time, in report order; ``other`` is
#: the time inside the timed phase that no layer span covers.
LAYERS: tuple[str, ...] = tuple(LAYER_MODULES) + ("other",)

#: Router owner names that differ from the layer they belong to.
OWNER_LAYERS = {"verification": "intracluster"}

#: Private methods wrapped anyway: they are scheduled as callbacks.
PRIVATE_ENTRY_POINTS = {("repro.net.network", "Network", "_deliver")}

#: Entry points with their own wrapper factory (an Instrumentation method).
SPECIAL_WRAPPERS = {
    ("repro.net.simclock", "SimClock", "step"): "_wrap_step",
    ("repro.net.simclock", "SimClock", "schedule_at"): "_wrap_schedule_at",
    ("repro.net.network", "Network", "send"): "_wrap_send",
    ("repro.net.network", "Network", "send_many"): "_wrap_send",
    ("repro.protocols.router", "MessageRouter", "register"): "_wrap_register",
    ("repro.obs.tracer", "Tracer", "span"): "_wrap_phase",
}

def expand_modules(names: tuple[str, ...]) -> list[str]:
    """Module names, with packages expanded to their submodules."""
    out: list[str] = []
    for name in names:
        module = importlib.import_module(name)
        out.append(name)
        if hasattr(module, "__path__"):
            out.extend(
                f"{name}.{info.name}"
                for info in pkgutil.iter_modules(module.__path__)
            )
    return out


def module_layers() -> dict[str, str]:
    """``repro`` module name -> layer name."""
    return {
        module: layer
        for layer, names in LAYER_MODULES.items()
        for module in expand_modules(names)
    }


def owner_layer(owner: str) -> str:
    """The layer a router handler registered by ``owner`` belongs to."""
    if owner in OWNER_LAYERS:
        return OWNER_LAYERS[owner]
    if owner in LAYER_MODULES:
        return owner
    if "gossip" in owner:
        return "gossip"
    return "router"


def _wrappable(value) -> bool:
    """A plain (non-generator) function or an ``lru_cache`` wrapper."""
    if inspect.isfunction(value):
        return not inspect.isgeneratorfunction(value)
    return callable(value) and hasattr(value, "cache_info")


@dataclass
class ClockStats:
    """What the ``SimClock.step`` wrapper observed."""

    events: int = 0
    peak_pending: int = 0


@dataclass
class NetworkStats:
    """Messages dropped inside ``Network.send`` / ``send_many`` calls."""

    send_drops: int = 0
    depth: int = 0


class Instrumentation:
    """Installs (and removes) span wrappers over every layer."""

    def __init__(self, recorder: SpanRecorder | None = None) -> None:
        self.recorder = recorder or SpanRecorder()
        self.clock = ClockStats()
        self.network = NetworkStats()
        self.layer_of_module = module_layers()
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: set[int] = set()
        self._originals: dict[int, object] = {}
        self.installed = False

    # ------------------------------------------------------------ patching
    def _set(self, target, attr: str, value) -> None:
        self._patches.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, value)

    def _note(self, original, wrapper) -> None:
        self._wrappers.add(id(wrapper))
        self._originals[id(original)] = wrapper

    def install(self) -> "Instrumentation":
        """Wrap every layer's public functions (idempotent per instance)."""
        if self.installed:
            return self
        for module_name, layer in self.layer_of_module.items():
            module = importlib.import_module(module_name)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if _wrappable(value) and value.__module__ == module_name:
                    wrapper = self.recorder.wrap(value, f"{layer}:{attr}")
                    self._set(module, attr, wrapper)
                    self._note(value, wrapper)
                elif (
                    inspect.isclass(value)
                    and value.__module__ == module_name
                ):
                    self._wrap_class(module_name, value, layer)
        self._patch_use_sites()
        self.installed = True
        return self

    def _wrap_class(self, module_name: str, cls, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            private = attr.startswith("_")
            if private and (
                module_name, cls.__name__, attr
            ) not in PRIVATE_ENTRY_POINTS:
                continue
            name = f"{layer}:{cls.__name__}.{attr}"
            special = self._special(cls, attr, value, name)
            if special is not None:
                wrapper = special
            elif isinstance(value, (staticmethod, classmethod)):
                if not _wrappable(value.__func__):
                    continue
                wrapper = type(value)(self.recorder.wrap(value.__func__, name))
            elif _wrappable(value):
                wrapper = self.recorder.wrap(value, name)
            else:
                continue
            self._set(cls, attr, wrapper)
            self._note(value, wrapper)

    def _patch_use_sites(self) -> None:
        """Repoint ``from x import f`` references in other modules."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._originals.get(id(value))
                if wrapper is not None and value is not wrapper:
                    self._set(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every replaced attribute, newest first."""
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()
        self._wrappers.clear()
        self._originals.clear()
        self.installed = False

    def __enter__(self) -> "Instrumentation":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --------------------------------------------------- special wrappers
    def _special(self, cls, attr: str, value, name: str):
        factory = SPECIAL_WRAPPERS.get((cls.__module__, cls.__name__, attr))
        if factory is None:
            return None
        return getattr(self, factory)(value, name)

    def _wrap_step(self, fn, name: str):
        rec = self.recorder
        nid = rec.name_id(name)
        stats = self.clock

        def step(clock):
            if not rec.on:
                return fn(clock)
            idx = rec.open(nid)
            try:
                ran = fn(clock)
                if ran:
                    stats.events += 1
                    pending = clock.pending
                    if pending > stats.peak_pending:
                        stats.peak_pending = pending
                return ran
            finally:
                rec.close(idx)

        step.__wrapped__ = fn
        step.__qualname__ = fn.__qualname__
        return step

    def _wrap_schedule_at(self, fn, name: str):
        rec = self.recorder
        nid = rec.name_id(name)
        wrappers = self._wrappers
        layers = self.layer_of_module

        def schedule_at(clock, time, callback, *args):
            if not rec.on:
                return fn(clock, time, callback, *args)
            idx = rec.open(nid)
            try:
                if id(getattr(callback, "__func__", callback)) not in wrappers:
                    layer = layers.get(getattr(callback, "__module__", None))
                    if layer is not None:
                        label = getattr(
                            callback, "__qualname__", type(callback).__name__
                        )
                        callback = rec.wrap(callback, f"{layer}:timer:{label}")
                return fn(clock, time, callback, *args)
            finally:
                rec.close(idx)

        schedule_at.__wrapped__ = fn
        schedule_at.__qualname__ = fn.__qualname__
        return schedule_at

    def _wrap_send(self, fn, name: str):
        rec = self.recorder
        nid = rec.name_id(name)
        stats = self.network

        def send(network, *args, **kwargs):
            if not rec.on:
                return fn(network, *args, **kwargs)
            idx = rec.open(nid)
            outermost = stats.depth == 0
            before = network.dropped_messages
            stats.depth += 1
            try:
                return fn(network, *args, **kwargs)
            finally:
                stats.depth -= 1
                if outermost:
                    stats.send_drops += network.dropped_messages - before
                rec.close(idx)

        send.__wrapped__ = fn
        send.__qualname__ = fn.__qualname__
        return send

    def _wrap_register(self, fn, name: str):
        rec = self.recorder
        register_span = rec.wrap(fn, name)

        def register(router, kind, handler, owner="?"):
            handler = rec.wrap(
                handler, f"{owner_layer(owner)}:handler:{owner}"
            )
            return register_span(router, kind, handler, owner)

        register.__wrapped__ = fn
        register.__qualname__ = fn.__qualname__
        return register

    def _wrap_phase(self, fn, name: str):
        rec = self.recorder
        span = rec.wrap(fn, name)

        def phase(tracer, *args, **kwargs):
            if rec.on:
                rec.current_group += 1
            return span(tracer, *args, **kwargs)

        phase.__wrapped__ = fn
        phase.__qualname__ = fn.__qualname__
        return phase

    # ------------------------------------------------------------ counting
    def counts(self) -> dict[str, int]:
        """Recorded span count per span name."""
        per_name = np.bincount(
            np.frombuffer(self.recorder.name, dtype=np.int32),
            minlength=len(self.recorder.names),
        )
        return {
            name: int(count)
            for name, count in zip(self.recorder.names, per_name)
            if count
        }

    def reset(self) -> None:
        """Clear spans and wrapper counters before a new timed phase."""
        self.recorder.clear()
        # In place: the special wrappers hold these objects.
        self.clock.events = self.clock.peak_pending = 0
        self.network.send_drops = self.network.depth = 0
