"""Layer tracing for the traced run: spans at the program's layer boundaries.

The tracer patches public functions and methods of ``repro`` (from the
benchmark's side only; no file under ``src/`` knows about it) with
wrappers that count calls and time each call inclusively.  A call's
*self time* is its inclusive time minus the inclusive time of the wrapped
calls it made, so every traced second lands in exactly one span name and
the self times add up to the time covered by top-level spans.

Span names are the per-layer metric names without their suffix:
``kernel``, ``kernel.submit``, ``scheduler``, ``protocol.<module>``,
``committees``, ``crypto.<operation>``, ``observers.<observer>``,
``artifacts.save``, ``artifacts.load``, ``setup.pki_keygen`` and
``setup.make_runner``.

Protocol code runs as generators that the kernel resumes and as wait
conditions that the kernel evaluates.  Both are attributed by the
``Wait.description`` prefix of the wait involved (see
:func:`protocol_bucket`): a resume belongs to the module whose wait it
ends, a condition to the module that yielded it.
"""

from __future__ import annotations

import gc
import sys
import time
from collections import defaultdict
from typing import Any, Callable

# Description prefix -> protocol span.  Resumes of a generator that has not
# blocked yet, and waits of other modules, go to ``protocol.resume``.
_PROTOCOL_PREFIXES = (
    ("approve", "protocol.approve"),
    ("whp_coin", "protocol.whp_coin"),
    ("shared_coin", "protocol.shared_coin"),
    ("mmr-", "protocol.mmr"),
)
RESUME = "protocol.resume"
SETUP_SPANS = ("setup.pki_keygen", "setup.make_runner")


def protocol_bucket(description: str) -> str:
    """The protocol span a wait with this description is attributed to."""
    for prefix, span in _PROTOCOL_PREFIXES:
        if description.startswith(prefix):
            return span
    return RESUME


class Tracer:
    """Span counts, self times and GC pauses of one traced section."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        # Inclusive time of finished child spans, one slot per open span;
        # slot 0 collects the top-level spans.
        self.stack: list[float] = [0.0]
        self.condition_calls = 0
        self.condition_hits = 0
        self.events = 0
        # Kernel counters summed over every Simulation.run of the section.
        self.deliveries = 0
        self.batched_deliveries = 0
        self.drain_batches = 0
        self.wait_evaluations = 0
        self.wait_skips = 0
        self.verifications = 0
        self.cache_hits = 0
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0
        self._restore: list[tuple[Any, str, Any]] = []

    # -- spans -----------------------------------------------------------------

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` as one span called ``name``."""
        self.calls[name] += 1
        stack = self.stack
        stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.self_s[name] += elapsed - stack.pop()
            stack[-1] += elapsed

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call a span called ``name``."""
        span = self.span

        def traced(*args, **kwargs):
            return span(name, fn, *args, **kwargs)

        return traced

    @property
    def covered_s(self) -> float:
        """Inclusive time of all top-level spans (= sum of self times)."""
        return self.stack[0]

    # -- installation -------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, module: Any, attr: str, name: str) -> None:
        """Wrap a module-level function everywhere ``repro`` imported it."""
        original = getattr(module, attr)
        self._replace_everywhere(original, self.wrap(name, original))

    def _replace_everywhere(self, original: Callable, replacement: Callable) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, replacement)

    def _patch_method(self, cls: type, attr: str, name: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._patch(cls, attr, classmethod(self.wrap(name, raw.__func__)))
        else:
            self._patch(cls, attr, self.wrap(name, raw))

    def _patch_overrides(self, base: type, attrs: tuple[str, ...], name: str,
                         include_base: bool = True) -> None:
        for cls in _subclasses(base, include_base):
            for attr in attrs:
                if attr in cls.__dict__:
                    self._patch_method(cls, attr, name)

    def install_setup(self) -> None:
        """Patch only the set-up boundaries: the untraced run's set-up clock."""
        from repro.crypto.pki import PKI
        from repro.experiments import protocols

        self._patch_method(PKI, "create", "setup.pki_keygen")
        self._patch_function(protocols, "make_runner", "setup.make_runner")

    @property
    def setup_s(self) -> float:
        """Seconds spent in set-up so far (no wrapped span nests in one
        under :meth:`install_setup`, so this is their inclusive time)."""
        return sum(self.self_s.get(name, 0.0) for name in SETUP_SPANS)

    def install(self) -> None:
        """Patch every layer boundary and start counting GC pauses."""
        from repro.core import committees
        from repro.crypto import pki as pki_module
        from repro.crypto.signatures import SignatureScheme
        from repro.crypto.vrf import VRFScheme
        from repro.sim import adversary, coverage, events, flightrecorder
        from repro.sim import monitors, network, runner, telemetry

        Simulation = network.Simulation
        PKI = pki_module.PKI

        self.install_setup()
        # kernel
        self._patch_function(runner, "run_protocol", "kernel")
        self._install_simulation_run(Simulation)
        self._patch_method(Simulation, "submit", "kernel.submit")
        self._patch_method(Simulation, "submit_broadcast", "kernel.submit")
        self._install_event_count(events.EventBus)
        # scheduler: the base on_submit stays unwrapped because the kernel
        # compares it by identity to skip per-envelope callbacks.
        self._patch_overrides(
            adversary.Scheduler,
            ("choose", "drain", "on_delivered", "on_submit_range"),
            "scheduler",
        )
        self._patch_overrides(
            adversary.Scheduler, ("on_submit",), "scheduler", include_base=False
        )
        # protocol
        self._install_protocol_proxy(Simulation)
        # committees
        for attr in ("sample", "committee_val", "sample_committee",
                     "committee_census"):
            self._patch_function(committees, attr, "committees")
        self._install_membership_checker(committees)
        for attr in ("member_mask", "is_member", "members", "census"):
            self._patch_method(committees.ArrayCensus, attr, "committees")
        # crypto
        self._patch_overrides(VRFScheme, ("prove",), "crypto.vrf_prove")
        self._patch_overrides(SignatureScheme, ("sign",), "crypto.sig_sign")
        self._patch_method(PKI, "vrf_verify", "crypto.vrf_verify")
        self._patch_method(PKI, "signature_verify", "crypto.sig_verify")
        # observers
        for attr in ("begin_run", "on_event", "finalize"):
            self._patch_method(monitors.MonitorSuite, attr, "observers.monitors")
        for cls, name in ((coverage.CoverageProbe, "observers.coverage"),
                          (telemetry.TelemetryProbe, "observers.telemetry")):
            self._patch_method(cls, "snapshot", name)
            self._install_instance_on_event(cls, name)
        self._patch_function(coverage, "signature_set", "observers.coverage")
        self._patch_method(flightrecorder.FlightRecorder, "on_event",
                           "observers.recorder")
        # artifacts
        self._patch_function(flightrecorder, "save_recording", "artifacts.save")
        self._patch_function(telemetry, "save_telemetry", "artifacts.save")
        self._patch_function(flightrecorder, "load_recording", "artifacts.load")

        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Undo every patch, newest first, and stop counting GC pauses."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    # -- boundaries that need more than a plain wrapper -------------------------

    def _install_simulation_run(self, Simulation: type) -> None:
        """``Simulation.run`` as a kernel span that also sums its counters."""
        traced = self.wrap("kernel", Simulation.__dict__["run"])
        tracer = self

        def run(simulation):
            try:
                return traced(simulation)
            finally:
                tracer.deliveries += simulation.deliveries
                tracer.batched_deliveries += simulation.batched_deliveries
                tracer.drain_batches += simulation.drain_batches
                metrics = simulation.metrics
                tracer.wait_evaluations += metrics.wait_evaluations
                tracer.wait_skips += metrics.wait_skips
                tracer.verifications += metrics.verifications
                tracer.cache_hits += metrics.verification_cache_hits

        self._patch(Simulation, "run", run)

    def _install_instance_on_event(self, cls: type, name: str) -> None:
        """Wrap ``on_event`` of probes that bind it per instance in __init__."""
        original = cls.__dict__["__init__"]
        wrap = self.wrap

        def __init__(probe, *args, **kwargs):
            original(probe, *args, **kwargs)
            probe.on_event = wrap(name, probe.on_event)

        self._patch(cls, "__init__", __init__)

    def _install_event_count(self, EventBus: type) -> None:
        """Count events fanned out to observers (no span: the fan-out loop
        itself stays kernel time, the observers' calls are their spans)."""
        original = EventBus.__dict__["emit"]
        tracer = self

        def emit(bus, event):
            tracer.events += 1
            return original(bus, event)

        self._patch(EventBus, "emit", emit)

    def _install_membership_checker(self, committees: Any) -> None:
        """Wrap ``membership_checker`` and the checkers it returns."""
        original = committees.membership_checker
        wrap = self.wrap

        def membership_checker(*args, **kwargs):
            return wrap("committees", original(*args, **kwargs))

        self._replace_everywhere(original, wrap("committees", membership_checker))

    def _install_protocol_proxy(self, Simulation: type) -> None:
        """Hand the kernel a :class:`_TracedProtocol` for every process."""
        original = Simulation.__dict__["set_protocol"]
        tracer = self

        def set_protocol(simulation, pid, factory):
            def traced_factory(ctx):
                return _TracedProtocol(factory(ctx), tracer)

            return original(simulation, pid, traced_factory)

        self._patch(Simulation, "set_protocol", set_protocol)

    def traced_condition(self, condition: Callable, name: str) -> Callable:
        """A wait condition as a span that also counts non-``None`` results."""
        traced = self.wrap(name, condition)
        tracer = self

        def evaluate(mailbox):
            result = traced(mailbox)
            tracer.condition_calls += 1
            if result is not None:
                tracer.condition_hits += 1
            return result

        evaluate.traced_condition = True
        return evaluate


class _TracedProtocol:
    """Generator proxy: each resume is a span of the wait it ends.

    The kernel only calls ``next`` and ``send`` on a protocol generator.
    """

    __slots__ = ("_generator", "_tracer", "_bucket")

    def __init__(self, generator: Any, tracer: Tracer) -> None:
        self._generator = generator
        self._tracer = tracer
        self._bucket = RESUME

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        tracer = self._tracer
        wait = tracer.span(self._bucket, self._generator.send, value)
        bucket = protocol_bucket(wait.description)
        self._bucket = bucket
        if not getattr(wait.condition, "traced_condition", False):
            wait.condition = tracer.traced_condition(wait.condition, bucket)
        return wait


def _subclasses(base: type, include_base: bool) -> list[type]:
    found = [base] if include_base else []
    pending = list(base.__subclasses__())
    while pending:
        cls = pending.pop()
        if cls not in found:
            found.append(cls)
            pending.extend(cls.__subclasses__())
    return found
