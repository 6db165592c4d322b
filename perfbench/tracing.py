"""Spans and counters around the library's public functions.

Tracing is installed from outside the library: each traced function is
replaced, in every module that holds a reference to it, by a wrapper that
records a span (name, start, end, parent span, operation id) and updates
counters derived from the call's arguments and result.  Names imported
with ``from x import y`` live on in the importing module, so those modules
are rebound too.  Spans are kept in memory and written out at the end.
Calls made outside an operation (set-up, checks) pass straight through.
"""
from __future__ import annotations

import inspect
import json
import resource
import time
from collections import defaultdict
from contextlib import contextmanager

ROOT_SPAN = "bench.op"


def read_wchar() -> int:
    """Bytes this process has passed to write() so far (Linux /proc)."""
    with open("/proc/self/io") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []          # [name, start, end, parent, op]
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one benchmark operation; layer spans nest under it."""
        self.op = op_id
        idx = self._open(ROOT_SPAN)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx][1:3] = t0, time.perf_counter()
            self._stack.pop()
            self.op = None

    def wrap(self, name: str, fn, probe=None):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            pre = probe.before() if probe is not None and hasattr(probe, "before") else None
            idx = self._open(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.spans[idx][1:3] = t0, t1
                self._stack.pop()
            if probe is not None:
                named = None
                if probe.needs_args:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    named = bound.arguments
                probe.after(self, named, result, pre)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets) -> None:
        """targets: iterable of (span name, [(module or class, attribute),
        ...], probe)."""
        for name, sites, probe in targets:
            module0, attr0 = sites[0]
            wrapper = self.wrap(name, getattr(module0, attr0), probe)
            for module, attr in sites:
                self._restore.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def summary(self, ops: int) -> dict[str, float]:
        """Per-operation means: inclusive time per span name (`<name>_s`),
        self time per span name, and the counters."""
        incl: dict[str, float] = defaultdict(float)
        self_t: dict[str, float] = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans:
            d = t1 - t0
            incl[name] += d
            self_t[name] += d
            if parent >= 0:
                self_t[self.spans[parent][0]] -= d
        out = {f"{k}_s": v / ops for k, v in incl.items()}
        out.update({f"self:{k}": v / ops for k, v in self_t.items()})
        out.update({k: v / ops for k, v in self.counts.items()})
        out.update(self.peaks)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")


# ---------------------------------------------------------------------------
# Probes: counters taken at the call boundary
# ---------------------------------------------------------------------------


class Count:
    """Adds 1 per call, or a value computed from (arguments, result)."""

    def __init__(self, key: str, value=None):
        self.key = key
        self.value = value
        self.needs_args = value is not None

    def after(self, tracer: Tracer, args: dict, result, pre) -> None:
        tracer.counts[self.key] += 1 if self.value is None else self.value(args, result)


class Many:
    def __init__(self, *probes):
        self.probes = probes
        self.needs_args = any(p.needs_args for p in probes)

    def after(self, tracer: Tracer, args: dict, result, pre) -> None:
        for p in self.probes:
            p.after(tracer, args, result, pre)


class SpectrumProbe:
    """Pairs, engine, bytes written and the resident high-water mark right
    after each all_pair_distances call."""

    needs_args = False

    def __init__(self, external_type):
        self.external_type = external_type

    def before(self) -> int:
        return read_wchar()

    def after(self, tracer: Tracer, args: dict, result, pre: int) -> None:
        tracer.counts["spectrum.pairs"] += result.m
        tracer.counts["spectrum.engine"] += isinstance(result.values, self.external_type)
        tracer.counts["spectrum.calls"] += 1
        tracer.counts["spectrum.write_mb"] += (read_wchar() - pre) / 2**20
        tracer.peaks["spectrum.peak_rss_mb"] = max(tracer.peaks["spectrum.peak_rss_mb"], max_rss_mb())


class AcceptProbe:
    """Points drawn by uniform_in_region, and the acceptance ratio it should
    see, computed as region area over bounding-box area (not counted)."""

    needs_args = True

    def __init__(self, regions_mod):
        self.regions = regions_mod
        self._ratio: dict = {}

    def after(self, tracer: Tracer, args: dict, result, pre) -> None:
        region, count = args["region"], int(args["count"])
        if count == 0:
            return
        ratio = self._ratio.get(region)
        if ratio is None:
            box = self.regions.bounding_box(region)
            ratio = self.regions.area(region) / (4.0 * box.half_width * box.half_height)
            self._ratio[region] = ratio
        tracer.counts["poisson.points_drawn"] += count
        tracer.counts["poisson.box_draws_expected"] += count / ratio
