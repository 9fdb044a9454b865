"""Per-layer self time and counts, measured from outside the program.

:class:`LayerTrace` patches public functions of the ``repro`` packages
with wrappers that keep a span stack: on entry the wrapper charges the
wall time since the last boundary to the enclosing span, on exit it
charges it to its own span.  A layer's self time is therefore the time
spent in its functions minus the time spent in the wrapped functions
they call.  Time outside every span is charged to ``outside`` and never
reported.  :meth:`LayerTrace.restore` puts every original back.

Kernel events are classified by the qualified name of the callable
handed to ``EventQueue.push``; events of a kind that belongs to a layer
(port transmissions, TCP timers, traffic arrivals) are timed as that
layer, the rest stay in the kernel loop's self time.

:class:`SetupProbe` is the untraced counterpart: it only records when
set-up ends (the first ``Simulator.run`` entry, or the release of PDES
workers) and which networks and traffic generators were built, at one
wrapper call per object, never per event.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Optional

OUTSIDE = "outside"

#: Event kind and timed layer by the owner of the pushed callable.
EVENT_KINDS = {
    "Port": ("port", "net.port"),
    "_Delivery": ("model_delivery", None),
    "Timer": ("tcp_timer", "tcp"),
    "TrafficGenerator": ("traffic", "traffic"),
}
KINDS = ("port", "model_delivery", "tcp_timer", "traffic", "other")

#: Set-up layers; the rest run inside the simulation proper.
SETUP_LAYERS = (
    "setup.topology",
    "setup.routing",
    "setup.network",
    "setup.model",
    "setup.schedule",
    "setup.workers",
)


def _owner_of(fn: Callable) -> str:
    func = getattr(fn, "__func__", fn)
    qualname = getattr(func, "__qualname__", None) or type(fn).__qualname__
    return qualname.split(".", 1)[0]


class _Patcher:
    """Replaces attributes and remembers the originals."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def method(self, cls: type, name: str, make: Callable) -> None:
        """Wrap ``cls.name`` as defined on ``cls`` (class methods too)."""
        original = cls.__dict__[name]
        if isinstance(original, classmethod):
            wrapped = classmethod(make(original.__func__))
        else:
            wrapped = make(original)
        self._saved.append((cls, name, original))
        setattr(cls, name, wrapped)

    def overrides(self, base: type, name: str, make: Callable) -> None:
        """Wrap ``name`` on ``base`` and every subclass that overrides it."""
        pending = [base]
        while pending:
            cls = pending.pop()
            if name in cls.__dict__:
                self.method(cls, name, make)
            pending.extend(cls.__subclasses__())

    def function(self, module: str, name: str, make: Callable) -> None:
        """Wrap a module-level function wherever ``repro`` imported it."""
        original = getattr(sys.modules[module], name)
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("repro") and getattr(mod, name, None) is original:
                self._saved.append((mod, name, original))
                setattr(mod, name, wrapped)

    def restore(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


def _import_layers():
    """The program's classes and modules that the probes patch."""
    import repro.cascade.controller as controller
    import repro.cascade.simulation as cascade
    import repro.core.cluster_model as cluster_model
    import repro.core.features as features
    import repro.core.macro as macro
    import repro.core.training as training
    import repro.des.kernel as kernel
    import repro.flowsim.epoch as epoch
    import repro.net.host as host
    import repro.net.network as network
    import repro.net.packet as packet
    import repro.net.port as port
    import repro.net.switch as switch
    import repro.net.tcp.receiver as receiver
    import repro.net.tcp.sender as sender
    import repro.nn.infer as infer
    import repro.pdes.hybrid_shard as hybrid_shard
    import repro.topology.clos  # noqa: F401 - patched by module name
    import repro.topology.routing as routing
    import repro.traffic.apps as apps

    return locals()


class SetupProbe:
    """Records the end of set-up and the objects a run builds."""

    def __init__(self) -> None:
        #: First ``Simulator.run`` entry: the end of single-process set-up.
        self.run_entry: Optional[float] = None
        #: Return of the parent's wait for "ready": the end of sharded set-up.
        self.workers_ready: Optional[float] = None
        self.networks: list = []
        self.generators: list = []
        self._patcher = _Patcher()

    def install(self) -> "SetupProbe":
        m = _import_layers()
        patch = self._patcher
        patch.method(m["kernel"].Simulator, "run", self._mark_run_entry)
        patch.function("repro.pdes.hybrid_shard", "_collect", self._mark_workers_ready)
        patch.method(m["network"].Network, "__init__", self._capture(self.networks))
        patch.method(m["apps"].TrafficGenerator, "__init__", self._capture(self.generators))
        return self

    def restore(self) -> None:
        """Put the originals back and drop the captured simulation objects.

        A held network would keep a whole simulation alive into the next
        repeat's memory peak.
        """
        self._patcher.restore()
        self.networks.clear()
        self.generators.clear()

    def _mark_run_entry(self, fn):
        def run(*args, **kwargs):
            if self.run_entry is None:
                self.run_entry = perf_counter()
            return fn(*args, **kwargs)

        return run

    def _mark_workers_ready(self, fn):
        # Workers are released right after they all report "ready".
        def collect(parent_ends, processes, expected_tag, timeout_s):
            result = fn(parent_ends, processes, expected_tag, timeout_s)
            if expected_tag == "ready" and self.workers_ready is None:
                self.workers_ready = perf_counter()
            return result

        return collect

    @staticmethod
    def _capture(into: list):
        def make(fn):
            def init(instance, *args, **kwargs):
                fn(instance, *args, **kwargs)
                into.append(instance)

            return init

        return make


class LayerTrace(SetupProbe):
    """Span-stack tracer over the program's public layer functions.

    ``setup_only`` patches only the set-up layers: the sharded workload
    forks its workers from this process, and wrappers inherited by
    workers would slow them without reporting anything back.
    """

    def __init__(self, setup_only: bool = False) -> None:
        super().__init__()
        self.setup_only = setup_only
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.event_kinds: dict[str, int] = defaultdict(int)
        self.in_run_s = 0.0
        self.port_drops = 0
        self.senders: list = []
        self.retransmissions = 0
        self.timeouts = 0
        self._stack: list[str] = [OUTSIDE]
        self._mark = [perf_counter()]
        self._kind_cache: dict[object, tuple[str, Optional[str]]] = {}

    # -- wrappers ------------------------------------------------------
    def timed(self, layer: str, label: Optional[str] = None, inclusive: bool = False):
        """Factory: wrap ``fn`` in a ``layer`` span, counting ``label``."""
        stack, self_s, calls = self._stack, self.self_s, self.calls
        incl, mark, clock = self.inclusive_s, self._mark, perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                now = clock()
                self_s[stack[-1]] += now - mark[0]
                stack.append(layer)
                mark[0] = now
                if label is not None:
                    calls[label] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    self_s[stack.pop()] += end - mark[0]
                    mark[0] = end
                    if inclusive:
                        incl[layer] += end - now

            return wrapper

        return make

    def _timed_push(self, fn):
        stack, self_s, kinds = self._stack, self.self_s, self.event_kinds
        mark, clock, classify = self._mark, perf_counter, self._classify
        span = self.timed("des.queue")

        def event_for(callback):
            kind, layer = classify(callback)
            if layer is None:
                def event():
                    kinds[kind] += 1
                    callback()

                return event

            def event():
                kinds[kind] += 1
                now = clock()
                self_s[stack[-1]] += now - mark[0]
                stack.append(layer)
                mark[0] = now
                try:
                    callback()
                finally:
                    end = clock()
                    self_s[stack.pop()] += end - mark[0]
                    mark[0] = end

            return event

        @span
        def push(queue, time, callback, *args, **kwargs):
            return fn(queue, time, event_for(callback), *args, **kwargs)

        return push

    def _classify(self, fn) -> tuple[str, Optional[str]]:
        func = getattr(fn, "__func__", fn)
        key = getattr(func, "__code__", None) or type(fn)
        found = self._kind_cache.get(key)
        if found is None:
            found = EVENT_KINDS.get(_owner_of(fn), ("other", None))
            self._kind_cache[key] = found
        return found

    def _timed_run(self, fn):
        span = self.timed("des.loop")

        def run(*args, **kwargs):
            if self.run_entry is None:
                self.run_entry = perf_counter()
            before = self._run_layer_total()
            try:
                return span(fn)(*args, **kwargs)
            finally:
                self.in_run_s += self._run_layer_total() - before

        return run

    def _run_layer_total(self) -> float:
        return sum(
            seconds
            for layer, seconds in self.self_s.items()
            if layer != OUTSIDE and layer not in SETUP_LAYERS
        )

    def _counting_enqueue(self, fn):
        span = self.timed("net.port", "net.port.enqueues")

        def enqueue(port, packet):
            accepted = fn(port, packet)
            if not accepted:
                self.port_drops += 1
            return accepted

        return span(enqueue)

    # -- installation --------------------------------------------------
    def install(self) -> "LayerTrace":
        m = _import_layers()
        patch = self._patcher
        timed = self.timed
        patch.function("repro.topology.clos", "build_clos", timed("setup.topology"))
        patch.function("repro.topology.routing", "make_routing", timed("setup.routing"))
        patch.function(
            "repro.pdes.hybrid_shard", "extract_flow_schedule", timed("setup.schedule")
        )
        patch.function(
            "repro.pdes.hybrid_shard",
            "_collect",
            lambda fn: self._mark_workers_ready(self._workers_span(fn)),
        )
        patch.method(
            m["network"].Network,
            "__init__",
            lambda fn: timed("setup.network")(self._capture(self.networks)(fn)),
        )
        patch.method(m["training"].TrainedClusterModel, "load", timed("setup.model"))
        patch.method(m["training"].TrainedClusterModel, "compiled", timed("setup.model"))
        patch.method(m["apps"].TrafficGenerator, "__init__", self._capture(self.generators))
        patch.method(m["sender"].TcpSender, "__init__", self._capture(self.senders))
        if self.setup_only:
            patch.method(m["kernel"].Simulator, "run", self._mark_run_entry)
            return self

        patch.method(m["kernel"].Simulator, "run", self._timed_run)
        patch.method(m["kernel"].EventQueue, "push", self._timed_push)
        patch.method(m["kernel"].EventQueue, "pop", timed("des.queue"))
        patch.method(m["port"].Port, "enqueue", self._counting_enqueue)
        patch.method(m["switch"].Switch, "receive", timed("net.switch", "net.switch.receives"))
        patch.method(m["packet"].Packet, "flow_hash", timed("net.flow_hash", "net.flow_hash.calls"))
        patch.overrides(m["routing"].EcmpRouting, "select_next_hop", timed("routing.select"))
        patch.method(m["host"].Host, "receive", timed("tcp"))
        patch.method(m["sender"].TcpSender, "on_ack", timed("tcp"))
        patch.method(m["receiver"].TcpReceiver, "on_data", timed("tcp"))
        patch.method(
            m["apps"].TrafficGenerator, "launch_flow", timed("traffic", "traffic.flows_launched")
        )
        patch.method(
            m["cluster_model"].ApproximatedCluster,
            "receive",
            timed("model", "model.calls", inclusive=True),
        )
        patch.method(m["features"].RegionFeatureExtractor, "extract", timed("features"))
        patch.overrides(m["infer"].FusedInferenceEngine, "predict", timed("infer", "infer.calls"))
        patch.method(m["macro"].AutoRegressiveMacroClassifier, "observe", timed("macro"))
        for name in ("admit", "step_to", "extract", "resume"):
            patch.method(m["epoch"].EpochFlowSimulator, name, timed("flowsim"))
        patch.method(m["controller"].FidelityController, "evaluate", timed("cascade.controller"))
        patch.method(m["cascade"].CascadeSimulation, "dispatch_flow", timed("cascade.dispatch"))
        return self

    def restore(self) -> None:
        """Also reduce the captured TCP senders to their counters."""
        super().restore()
        self.retransmissions = sum(s.retransmissions for s in self.senders)
        self.timeouts = sum(s.timeouts for s in self.senders)
        self.senders.clear()

    def _workers_span(self, fn):
        span = self.timed("setup.workers")

        def collect(parent_ends, processes, expected_tag, timeout_s):
            if expected_tag == "ready":
                return span(fn)(parent_ends, processes, expected_tag, timeout_s)
            return fn(parent_ends, processes, expected_tag, timeout_s)

        return collect
