"""In-process tracing of kforcing's layers, from outside the package.

A :class:`Tracer` binds timing and counting wrappers over the module-level
names that callers look up (``kforcing.records.k_forcing_number``,
``kforcing.forcing.is_k_forcing_set``, ...) and puts every original back
when it is closed. Nothing inside ``src/`` is edited, and a process that
never opens a tracer never sees a wrapper.

Spans nest: a span's self time is its duration minus the time of the
wrapped calls made inside it, so the self times of all layers plus the
time outside every span add up to the traced wall time, less the cost of
the wrappers themselves, which is kept apart as ``overhead_s``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from time import perf_counter

# (layer, defining module, function) timed as spans.
SPANS = (
    ("graphio", "kforcing.graphio", "parse_graph6"),
    ("graphio", "kforcing.graphio", "write_graph6"),
    ("records", "kforcing.records", "compute_record"),
    ("forcing", "kforcing.forcing", "k_forcing_number"),
    ("invariants", "kforcing.invariants", "connected_k_domination"),
    ("invariants", "kforcing.invariants", "k_independence_number"),
    ("invariants", "kforcing.invariants", "vertex_k_connected"),
    ("invariants", "kforcing.invariants", "hamiltonian_cycle"),
    ("invariants", "kforcing.invariants", "is_cycle_tree"),
    ("invariants", "kforcing.invariants", "min_star_free_index"),
    ("invariants", "kforcing.invariants", "path_cover_number"),
    ("bounds", "kforcing.bounds", "evaluate_bounds"),
    ("smallgraphs", "kforcing.smallgraphs", "all_graphs"),
    ("smallgraphs", "kforcing.smallgraphs", "all_trees"),
    ("smallgraphs", "kforcing.smallgraphs", "canonical_key"),
    ("smallgraphs", "kforcing.smallgraphs", "canonical_graph"),
)

# Functions whose every call duration is kept, for a tail percentile.
KEEP_DURATIONS = frozenset({"canonical_key"})


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, from the ladder 50, 90, 99, 99.9, ...

    The value is the nearest-rank sample. Returns None when fewer than
    twenty samples leave no rung with ten beyond it.
    """
    n = len(samples)
    best = None
    ordered = sorted(samples)
    for pct, denominator in [(50.0, 2)] + [
        (100.0 - 100.0 / 10**j, 10**j) for j in range(1, 10)
    ]:
        beyond = n // denominator  # samples above the nearest rank, exactly
        if beyond < 10:
            break
        best = (pct, ordered[n - beyond - 1])
    return best


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] | None = None


@dataclass
class Counters:
    closures: int = 0
    closure_hits: int = 0
    trivial_forcing_calls: int = 0
    gamma_kc_unused: int = 0
    reports: int = 0
    not_applicable: int = 0


@dataclass
class Tracer:
    """Wraps kforcing's public functions while open; restores them on close."""

    spans: dict[str, SpanStats] = field(default_factory=dict)
    layer_self_s: dict[str, float] = field(default_factory=dict)
    counts: Counters = field(default_factory=Counters)
    overhead_s: float = 0.0
    # time inside top-level spans, wrapper cost included
    top_level_s: float = 0.0
    _stack: list[list[float]] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)
    _gamma_kc_ks: list[int] | None = None
    _forcing_subsets: list[int] = field(default_factory=lambda: [0])
    _invariants_subsets: list[int] = field(default_factory=lambda: [0])

    # -- installing ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put back every attribute this tracer replaced."""
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _bind(self, module, name: str, wrapper) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def _bind_everywhere(self, original, wrapper) -> None:
        """Replace ``original`` under every name any kforcing module uses."""
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (
                mod_name == "kforcing" or mod_name.startswith("kforcing.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._bind(module, attr, wrapper)

    def _install(self) -> None:
        import kforcing.cli  # noqa: F401  (loads every module a command uses)
        import kforcing.forcing as forcing
        import kforcing.invariants as invariants
        import kforcing.smallgraphs  # noqa: F401

        before = {"compute_record": self._before_record}
        after = {
            "compute_record": self._after_record,
            "k_forcing_number": self._after_forcing,
            "connected_k_domination": self._after_gamma_kc,
            "evaluate_bounds": self._after_bounds,
        }
        for layer, mod_name, name in SPANS:
            original = getattr(sys.modules[mod_name], name)
            self.spans[name] = SpanStats(
                durations=[] if name in KEEP_DURATIONS else None
            )
            self.layer_self_s.setdefault(layer, 0.0)
            wrapper = self._span(
                layer, name, original, before.get(name), after.get(name)
            )
            self._bind_everywhere(original, wrapper)

        self._bind_everywhere(
            forcing.is_k_forcing_set, self._closure(forcing.is_k_forcing_set)
        )
        # one generator, counted separately for each solver module using it
        for module, tally in ((forcing, self._forcing_subsets),
                              (invariants, self._invariants_subsets)):
            self._bind(module, "subsets_of_size",
                       self._subsets(module.subsets_of_size, tally))

    # -- wrappers --------------------------------------------------------------

    def _span(self, layer, name, fn, before, after):
        stats = self.spans[name]
        stack = self._stack

        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            if before is not None:
                before()
            children = [0.0]
            stack.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            dur = t1 - t0
            own = dur - children[0]
            stats.calls += 1
            stats.total_s += dur
            stats.self_s += own
            self.layer_self_s[layer] += own
            if stats.durations is not None:
                stats.durations.append(dur)
            if after is not None:
                after(args, kwargs, result)
            t_out = perf_counter()
            self.overhead_s += (t_out - t_in) - dur
            if stack:
                stack[-1][0] += t_out - t_in
            else:
                self.top_level_s += t_out - t_in
            return result

        return wrapper

    def _closure(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            hit = fn(*args, **kwargs)
            counts.closures += 1
            counts.closure_hits += bool(hit)
            return hit

        return wrapper

    def _subsets(self, fn, tally: list[int]):
        def wrapper(*args, **kwargs):
            tried = 0
            try:
                for mask in fn(*args, **kwargs):
                    tried += 1
                    yield mask
            finally:  # also when the caller stops early and the generator closes
                tally[0] += tried

        return wrapper

    # -- hooks: counts read off arguments and results ---------------------------

    def _after_forcing(self, args, kwargs, result) -> None:
        g = args[0]
        k = args[1] if len(args) > 1 else kwargs["k"]
        if g.n and k >= max(g.degree(v) for v in range(g.n)):
            self.counts.trivial_forcing_calls += 1

    def _after_gamma_kc(self, args, kwargs, result) -> None:
        k = args[1] if len(args) > 1 else kwargs["k"]
        if self._gamma_kc_ks is not None:
            self._gamma_kc_ks.append(k)

    def _before_record(self) -> None:
        self._gamma_kc_ks = []

    def _after_record(self, args, kwargs, rec) -> None:
        for k in self._gamma_kc_ks or ():
            if k >= 2 and not rec.k_connected.get(k, False):
                self.counts.gamma_kc_unused += 1
        self._gamma_kc_ks = None

    def _after_bounds(self, args, kwargs, reports) -> None:
        self.counts.reports += len(reports)
        self.counts.not_applicable += sum(1 for r in reports if not r.applicable)

    # -- results ---------------------------------------------------------------

    def metrics(self, wall_s: float, classes: int = 0) -> dict[str, float]:
        """Per-layer metrics of one traced command that took ``wall_s`` and
        emitted ``classes`` isomorphism classes (enumeration only)."""

        def frac(num: float, den: float) -> float:
            return num / den if den else 0.0

        s, c = self.spans, self.counts
        out: dict[str, float] = {}
        for layer, _, name in SPANS:
            if layer in ("graphio", "records", "forcing", "invariants", "bounds"):
                out[f"{layer}.{name}.s"] = s[name].total_s
                out[f"{layer}.{name}.calls"] = s[name].calls
        out["records.compute_record.self_s"] = s["compute_record"].self_s
        out["forcing.closures"] = c.closures
        out["forcing.closure_hit_frac"] = frac(c.closure_hits, c.closures)
        out["forcing.subsets_tried"] = self._forcing_subsets[0]
        out["forcing.trivial_call_frac"] = frac(
            c.trivial_forcing_calls, s["k_forcing_number"].calls
        )
        out["invariants.subsets_tried"] = self._invariants_subsets[0]
        out["invariants.gamma_kc_unused_frac"] = frac(
            c.gamma_kc_unused, s["connected_k_domination"].calls
        )
        out["bounds.reports"] = c.reports
        out["bounds.not_applicable_frac"] = frac(c.not_applicable, c.reports)

        key = s["canonical_key"]
        tail = tail_percentile(key.durations)
        out["smallgraphs.canonical_key.s"] = key.total_s
        out["smallgraphs.canonical_key.calls"] = key.calls
        out["smallgraphs.canonical_key.ms_tail"] = 1e3 * tail[1] if tail else 0.0
        out["smallgraphs.canonical_key.tail_pct"] = tail[0] if tail else 0.0
        out["smallgraphs.unique_frac"] = frac(classes, key.calls)

        # layers of one span already report it as <layer>.<function>.s
        for layer in ("graphio", "invariants", "smallgraphs"):
            out[f"{layer}.self_s"] = self.layer_self_s[layer]
        out["cli.self_s"] = wall_s - self.top_level_s
        out["trace.accounted_frac"] = frac(
            sum(self.layer_self_s.values()) + out["cli.self_s"], wall_s
        )
        return out
