"""Spans and counts recorded from outside the program.

The tracer replaces public functions under the name their caller looks up
(a module global or a class attribute) with a wrapper that opens a span,
and puts the originals back on ``restore``.  Spans live in memory with a
parent link; self time is a span's duration minus its children's.
``peak_alloc_mb`` comes from ``tracemalloc``, switched on only inside the
spans that ask for it.
"""

from __future__ import annotations

import importlib
import math
import os
import time
import tracemalloc
from statistics import median

MiB = float(1 << 20)


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs", "error",
                 "alloc_base", "alloc_peak")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.attrs = {}
        self.error = None
        self.alloc_base = None
        self.alloc_peak = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list = []
        self.missing: list[str] = []
        self.counters: dict[str, float] = {}

    # -- spans ---------------------------------------------------------
    def open(self, name: str, alloc: bool = False) -> Span:
        parent = self._stack[-1] if self._stack else None
        if alloc:
            enclosing = self._alloc_parent()
            if enclosing is not None:
                # reset_peak below is global: bank the enclosing span's peak
                _, peak = tracemalloc.get_traced_memory()
                enclosing.alloc_peak = max(enclosing.alloc_peak, peak - enclosing.alloc_base)
            elif not tracemalloc.is_tracing():
                tracemalloc.start()
        span = Span(name, parent, time.perf_counter())
        if alloc:
            tracemalloc.reset_peak()
            span.alloc_base = tracemalloc.get_traced_memory()[0]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, error: BaseException | None = None) -> None:
        span.end = time.perf_counter()
        span.error = error
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.alloc_base is not None:
            _, peak = tracemalloc.get_traced_memory()
            span.alloc_peak = max(span.alloc_peak, peak - span.alloc_base)
            if self._alloc_parent() is None:
                tracemalloc.stop()

    def _alloc_parent(self):
        for s in reversed(self._stack):
            if s.alloc_base is not None:
                return s
        return None

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    # -- patching ------------------------------------------------------
    def wrap(self, target: str, name, *, alloc: bool = False, post=None) -> None:
        """Wrap ``module:attr`` or ``module:Class.attr``.

        ``name`` is the span name, or a function of the call's arguments
        returning it.  ``post(span, args, kwargs, result)`` runs after the
        span has closed, to attach counts.
        """
        modname, _, path = target.partition(":")
        try:
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(target)
            return
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name(*args, **kwargs) if callable(name) else name, alloc)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(span, exc)
                raise
            tracer.close(span)
            if post is not None:
                post(span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------
    def outermost(self, name: str):
        """Spans called ``name`` with no ancestor of the same name."""
        for s in self.spans:
            p = s.parent
            while p is not None and p.name != name:
                p = p.parent
            if p is None and s.name == name:
                yield s

    def busy(self, name: str) -> float:
        return sum(s.duration for s in self.outermost(name))

    def self_time(self, prefix: str) -> float:
        """Summed self time of every span whose name starts with ``prefix``."""
        child_time = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[id(s.parent)] = child_time.get(id(s.parent), 0.0) + s.duration
        return sum(s.duration - child_time.get(id(s), 0.0)
                   for s in self.spans if s.name.startswith(prefix))

    def attr_sum(self, name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in self.outermost(name))


# ---------------------------------------------------------------------------
# what to wrap, and the per-layer metrics computed from the spans

def _bits_attrs(span, x, out):
    n = len(x)
    ones = x.count(1)
    span.attrs.update(bits_in=n, bits_out=len(out), ones=ones)


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def _source_kind(spec, *a, **k) -> str:
    kind = type(spec).__name__.replace("Source", "").lower()
    if kind == "drifting":
        kind = f"drifting_{spec.trajectory}"
    return f"sources.sample.{kind}"


def install(tracer: Tracer) -> None:
    """Wrap every public function the workloads reach, under the name its
    caller looks it up by."""
    w = tracer.wrap

    # bits
    def parse_post(span, args, kwargs, result):
        data, fmt = args[0], args[1] if len(args) > 1 else kwargs.get("fmt")
        span.attrs.update(bytes=len(data), fmt=fmt)

    def serialize_post(span, args, kwargs, result):
        fmt = args[1] if len(args) > 1 else kwargs.get("fmt")
        span.attrs.update(bytes=len(result), fmt=fmt)

    w("debias.cli:parse_bits", "bits.parse", post=parse_post)
    w("debias.cli:serialize_bits", "bits.serialize", post=serialize_post)
    w("debias.bits:BitString.to_array", "bits.convert",
      post=lambda s, a, k, r: s.attrs.update(bytes=r.nbytes))
    w("debias.bits:BitString.from_array", "bits.convert",
      post=lambda s, a, k, r: s.attrs.update(bytes=len(r)))
    w("debias.bits:BitString.__init__", "bits.construct")

    # sources
    w("debias.sources:sample", _source_kind,
      post=lambda s, a, k, r: s.attrs.update(bits=len(r[0])))
    w("debias.sources:DriftTrace.save", "sources.trace_save",
      post=lambda s, a, k, r: s.attrs.update(bytes=os.path.getsize(a[1])))

    # normalize
    for method in ("vn", "peres", "parity"):
        def post(span, args, kwargs, result, method=method):
            _bits_attrs(span, args[0], result)
            if method == "parity":
                block = args[1] if len(args) > 1 else kwargs["block"]
                span.attrs["limit"] = len(args[0]) / block
            else:
                n = span.attrs["bits_in"]
                p1 = span.attrs["ones"] / n if n else 0.0
                span.attrs["limit"] = (p1 * (1 - p1) * n if method == "vn"
                                       else _binary_entropy(p1) * n)
        w(f"debias.normalize:{method}_normalize", f"normalize.{method}", post=post)
    w("debias.normalize:vn_preimage", "normalize.preimage",
      post=lambda s, a, k, r: s.attrs.update(strings=len(r)))

    # stats
    w("debias.stats:borel_counts", "stats.borel",
      post=lambda s, a, k, r: s.attrs.update(windows=r.total, m=r.m, bits_in=len(a[0])))
    w("debias.stats:empirical_block_dist", "stats.empirical")
    w("debias.stats:sweep", "stats.sweep",
      post=lambda s, a, k, r: s.attrs.update(points=len(r)))

    # exactdist
    def normalized_post(span, args, kwargs, result):
        span.attrs.update(n=args[1], m=args[2])
    for site in ("debias.cli", "debias.markov"):
        w(f"{site}:normalized_dist", "exactdist.normalized", alloc=True,
          post=normalized_post)
    for site in ("debias.cli", "debias.exactdist"):
        w(f"{site}:exact_source_dist", "exactdist.source", alloc=True)
    w("debias.exactdist:DistributionTable.to_csv", "exactdist.csv",
      post=lambda s, a, k, r: s.attrs.update(rows=len(a[0].probs)))

    # bounds: calibrate_alpha and binom_tv reach these through module globals
    w("debias.bounds:calibrate_alpha", "bounds.calibrate",
      post=lambda s, a, k, r: s.attrs.update(m=a[0]))
    for site in ("debias.bounds", "debias.stats"):
        w(f"{site}:tv_bound_exact", "bounds.tv_exact")
    w("debias.bounds:reg_inc_beta", "bounds.inc_beta")

    # markov
    w("debias.markov:run_markov_experiment", "markov.run",
      post=lambda s, a, k, r: s.attrs.update(trials=r.samples, accepted=r.accepted))

    # cli: the entry point and each subcommand (build_parser looks them up)
    w("debias.cli:run", "cli.run")
    for cmd in CLI_COMMANDS:
        w(f"debias.cli:cmd_{cmd}", f"cli.{cmd}")


CLI_COMMANDS = ("generate", "normalize", "analyze", "dist", "tv", "calibrate",
                "sweep", "markov")
SOURCE_KINDS = ("constant", "drifting_walk", "markov", "pairwise")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict:
    """Every per-layer metric, zero where the workload never calls the layer."""
    m = {}
    for op in ("parse", "serialize"):
        name = f"bits.{op}"
        m[f"{name}.busy_s"] = t.busy(name)
        m[f"{name}.bytes"] = t.attr_sum(name, "bytes")
        for fmt in ("ascii", "packed"):
            m[f"{name}.{fmt}.busy_s"] = sum(
                s.duration for s in t.outermost(name) if s.attrs.get("fmt") == fmt)
    m["bits.convert.busy_s"] = t.busy("bits.convert")
    m["bits.convert.bytes"] = t.attr_sum("bits.convert", "bytes")
    m["bits.construct.calls"] = sum(1 for _ in t.outermost("bits.construct"))
    m["bits.construct.busy_s"] = t.busy("bits.construct")

    for kind in SOURCE_KINDS:
        m[f"sources.sample.{kind}.busy_s"] = t.busy(f"sources.sample.{kind}")
    m["sources.sample.bits"] = sum(
        s.attrs.get("bits", 0) for s in t.spans if s.name.startswith("sources.sample."))
    m["sources.trace_save.busy_s"] = t.busy("sources.trace_save")
    m["sources.trace_save.bytes"] = t.attr_sum("sources.trace_save", "bytes")

    for method in ("vn", "peres", "parity"):
        name = f"normalize.{method}"
        m[f"{name}.busy_s"] = t.busy(name)
        m[f"{name}.bits_in"] = t.attr_sum(name, "bits_in")
        m[f"{name}.bits_out"] = t.attr_sum(name, "bits_out")
        m[f"{name}.yield_vs_limit"] = _ratio(m[f"{name}.bits_out"],
                                              t.attr_sum(name, "limit"))
    m["normalize.preimage.busy_s"] = t.busy("normalize.preimage")
    m["normalize.preimage.strings"] = t.attr_sum("normalize.preimage", "strings")

    m["stats.borel.busy_s"] = t.busy("stats.borel")
    m["stats.borel.windows"] = t.attr_sum("stats.borel", "windows")
    m["stats.empirical.busy_s"] = t.busy("stats.empirical")
    m["stats.sweep.busy_s"] = t.busy("stats.sweep")
    m["stats.sweep.points"] = t.attr_sum("stats.sweep", "points")

    m["exactdist.normalized.busy_s"] = t.busy("exactdist.normalized")
    m["exactdist.normalized.calls"] = sum(1 for _ in t.outermost("exactdist.normalized"))
    for name in ("exactdist.normalized", "exactdist.source"):
        m[f"{name}.peak_alloc_mb"] = max(
            (s.alloc_peak / MiB for s in t.outermost(name)), default=0.0)
    m["exactdist.source.busy_s"] = t.busy("exactdist.source")
    m["exactdist.csv.busy_s"] = t.busy("exactdist.csv")
    m["exactdist.csv.rows"] = t.attr_sum("exactdist.csv", "rows")

    for name in ("calibrate", "tv_exact", "inc_beta"):
        m[f"bounds.{name}.busy_s"] = t.busy(f"bounds.{name}")
        m[f"bounds.{name}.calls"] = sum(1 for _ in t.outermost(f"bounds.{name}"))
    m["bounds.convergence_errors"] = sum(
        1 for s in t.spans
        if s.name.startswith("bounds.") and type(s.error).__name__ == "ConvergenceError"
        and not (s.parent is not None and s.parent.name.startswith("bounds.")))

    m["markov.run.self_s"] = t.self_time("markov.run")
    m["markov.run.trials"] = t.attr_sum("markov.run", "trials")
    m["markov.accept_ratio"] = _ratio(t.attr_sum("markov.run", "accepted"),
                                      m["markov.run.trials"])

    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.busy_s"] = t.busy(f"cli.{cmd}")
    m["cli.self_s"] = t.self_time("cli.")
    m["cli.io.bytes_read"] = t.counters.get("cli.io.bytes_read", 0)
    m["cli.io.bytes_written"] = t.counters.get("cli.io.bytes_written", 0)
    return m


def baseline_rows(t: Tracer) -> list:
    """The ROADMAP baseline table, one row per stage, in milliseconds, from
    the spans of one traced pass (median over the calls that match the row)."""
    def med(name, keep=lambda s: True):
        d = [s.duration for s in t.outermost(name) if keep(s)]
        return (1e3 * median(d), len(d)) if d else (None, 0)

    big = lambda s: s.attrs.get("bits_in", 0) >= 10 ** 6  # noqa: E731
    rows = [
        ("sample constant", *med("sources.sample.constant")),
        ("sample drifting walk", *med("sources.sample.drifting_walk")),
        ("sample markov k=3", *med("sources.sample.markov")),
        ("parse ascii (10^6 bits)", *med("bits.parse", lambda s: s.attrs.get("fmt") == "ascii"
                                         and s.attrs.get("bytes", 0) >= 10 ** 6)),
        ("parse packed (10^6 bits)", *med("bits.parse", lambda s: s.attrs.get("fmt") == "packed"
                                          and s.attrs.get("bytes", 0) >= 10 ** 6 // 8)),
        ("calibrate_alpha m=10^6", *med("bounds.calibrate",
                                        lambda s: s.attrs.get("m") == 10 ** 6)),
        ("normalized_dist n=22, m=8", *med("exactdist.normalized",
                                           lambda s: s.attrs.get("n") == 22)),
        ("vn_normalize", *med("normalize.vn", big)),
        ("peres_normalize", *med("normalize.peres", big)),
        ("parity_normalize(8)", *med("normalize.parity", big)),
        ("borel_counts m=3", *med("stats.borel", lambda s: s.attrs.get("m") == 3)),
        ("BitString(str), all calls", 1e3 * t.busy("bits.construct"),
         sum(1 for _ in t.outermost("bits.construct"))),
        ("sweep 4x25 grid", *med("stats.sweep")),
    ]
    return [{"stage": r[0], "ms": r[1], "calls": r[2]} for r in rows if r[2]]
