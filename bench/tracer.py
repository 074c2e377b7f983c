"""Layer tracing from outside the package.

Tracer.install() replaces the public functions of each gpcubes layer module,
and a few hot methods on its classes, with wrappers that record one span per
call: name, start, end and the enclosing span.  Modules that imported a
function by name get the wrapper too, so no call path escapes the trace.
Spans stay in memory in flat arrays; metrics() turns them into the per-layer
figures in LAYER_METRICS.  A span's self time is its duration minus the
durations of its direct child spans, and a layer's self time is the sum over
its spans, so the layers' self times add up to the root span (cli.main).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict

LAYERS = ("groups", "cubes", "morse", "special", "dj", "cli")

# Methods traced besides the modules' public functions.
METHODS = {
    "groups": ("GraphProduct", ("normalize", "enumerate_ball", "desc_letters", "end_letters")),
    "cubes": ("CubeBall", ("cube_vertices", "covers_down", "cubes_containing")),
    "dj": ("DJPair", ("factorize", "factorize_doubled", "beta", "alpha")),
}

# Result sizes recorded per span.
SIZES = {
    "groups.enumerate_ball": lambda elements: (len(elements),),
    "cubes.build_ball": lambda ball: (len(ball.vertices), len(ball.cubes)),
    "special.hyperplanes": lambda hps: (len(hps),),
}

ALL = ("check-raag", "build-z2xz3", "dj-mixed")
CHECK = ("check-raag",)
BUILD = ("build-z2xz3",)
DJ = ("dj-mixed",)


class Spans:
    """Aggregates of a finished trace, keyed by span name."""

    def __init__(self, tracer):
        names = tracer.names
        ids, parents = tracer.name_ids, tracer.parents
        durations = [e - s for s, e in zip(tracer.starts, tracer.ends)]
        child = [0.0] * len(durations)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += durations[i]
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = defaultdict(int)
        self.time = defaultdict(float)  # (name, parent name) -> outermost duration
        layer_of = [n.split(".", 1)[0] for n in names]
        for i, nid in enumerate(ids):
            self.self_s[layer_of[nid]] += durations[i] - child[i]
            self.calls[names[nid]] += 1
            p = parents[i]
            if p < 0 or ids[p] != nid:
                self.time[names[nid], names[ids[p]] if p >= 0 else None] += durations[i]
        self.sizes = defaultdict(lambda: [0, 0])  # (name, parent name) -> sums
        for i, size in tracer.sizes.items():
            p = parents[i]
            total = self.sizes[names[ids[i]], names[ids[p]] if p >= 0 else None]
            for k, x in enumerate(size):
                total[k] += x

    def seconds(self, name, parent=None):
        return sum(t for (n, p), t in self.time.items() if n == name and parent in (None, p))

    def size(self, name, parent=None, k=0):
        return sum(s[k] for (n, p), s in self.sizes.items() if n == name and parent in (None, p))


# name, unit, value from the spans (None: measured by the runner), the
# end-to-end metric it should move, and the workloads on which it should.
LAYER_METRICS = (
    ("groups.normalize_calls", "count", lambda a: a.calls["groups.normalize"], "verdict_s", ALL),
    ("groups.normalize_s", "s", lambda a: a.seconds("groups.normalize"), "verdict_s", ALL),
    ("groups.enumerate_ball_s", "s", lambda a: a.seconds("groups.enumerate_ball"), "verdict_s", ALL),
    ("groups.ball_elements", "count", lambda a: a.size("groups.enumerate_ball"), "verdict_s", ALL),
    ("groups.self_s", "s", lambda a: a.self_s["groups"], "verdict_s", ALL),
    ("cubes.build_ball_s", "s", lambda a: a.seconds("cubes.build_ball"), "verdict_s", BUILD),
    ("cubes.vertices", "count", lambda a: a.size("cubes.build_ball"), "peak_rss_mb", BUILD),
    ("cubes.cubes", "count", lambda a: a.size("cubes.build_ball", k=1), "peak_rss_mb", BUILD),
    ("cubes.cube_vertices_calls", "count", lambda a: a.calls["cubes.cube_vertices"], "verdict_s", CHECK),
    ("cubes.links_s", "s", lambda a: a.seconds("cubes.check_link_models"), "verdict_s", CHECK),
    (
        "cubes.export_s",
        "s",
        lambda a: a.seconds("cubes.ball_to_json") + a.seconds("cubes.ball_to_dot"),
        "verdict_s",
        BUILD,
    ),
    (
        "cubes.fundamental_domain_s",
        "s",
        lambda a: a.seconds("cubes.fundamental_domain_check"),
        "verdict_s",
        CHECK,
    ),
    ("cubes.self_s", "s", lambda a: a.self_s["cubes"], "verdict_s", BUILD),
    ("morse.report_s", "s", lambda a: a.seconds("morse.morse_report"), "verdict_s", CHECK),
    ("morse.cube_max_vertex_calls", "count", lambda a: a.calls["morse.cube_max_vertex"], "verdict_s", CHECK),
    ("morse.sublevel_euler_s", "s", lambda a: a.seconds("morse.sublevel_euler"), "verdict_s", CHECK),
    ("morse.heights", "count", lambda a: a.calls["morse.sublevel_euler"], "verdict_s", CHECK),
    ("morse.self_s", "s", lambda a: a.self_s["morse"], "verdict_s", CHECK),
    ("special.check_s", "s", lambda a: a.seconds("special.check_special"), "verdict_s", CHECK),
    ("special.hyperplanes_s", "s", lambda a: a.seconds("special.hyperplanes"), "verdict_s", CHECK),
    ("special.hyperplanes", "count", lambda a: a.size("special.hyperplanes"), "verdict_s", CHECK),
    (
        "special.kernel_action_s",
        "s",
        lambda a: a.seconds("special.check_free_kernel_action"),
        "verdict_s",
        CHECK,
    ),
    ("special.stabilizer_calls", "count", lambda a: a.calls["cubes.stabilizer"], "verdict_s", CHECK),
    ("special.self_s", "s", lambda a: a.self_s["special"], "verdict_s", CHECK),
    ("dj.iso_check_s", "s", lambda a: a.seconds("dj.iso_check"), "verdict_s", DJ),
    ("dj.y_ball_s", "s", lambda a: a.seconds("dj.build_y_ball"), "verdict_s", DJ),
    ("dj.balls_s", "s", lambda a: a.seconds("cubes.build_ball", "dj.iso_check"), "verdict_s", DJ),
    (
        "dj.ambient_elements",
        "count",
        lambda a: a.size("groups.enumerate_ball", "dj.build_y_ball"),
        "verdict_s",
        DJ,
    ),
    ("dj.factorize_calls", "count", lambda a: a.calls["dj.factorize"], "verdict_s", DJ),
    ("dj.self_s", "s", lambda a: a.self_s["dj"], "verdict_s", DJ),
    ("cli.import_s", "s", None, "setup_s", ALL),
    ("cli.self_s", "s", lambda a: a.self_s["cli"], "verdict_s", BUILD),
    ("trace.verdict_s", "s", None, "verdict_s", ALL),
    ("trace.overhead_s", "s", None, "verdict_s", ALL),
)


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.sizes = {}
        self._stack = [-1]

    def install(self):
        """Wrap every public function of the layers, and METHODS, in place."""
        modules = {layer: importlib.import_module("gpcubes." + layer) for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[obj] = self._wrap(obj, "%s.%s" % (layer, attr))
            if layer in METHODS:
                cls_name, methods = METHODS[layer]
                cls = getattr(mod, cls_name)
                for m in methods:
                    setattr(cls, m, self._wrap(vars(cls)[m], "%s.%s" % (layer, m)))
        # every binding, including names imported from another module
        for mod in (*modules.values(), importlib.import_module("gpcubes")):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

    def span_count(self):
        return len(self.starts)

    def metrics(self):
        spans = Spans(self)
        return {name: fn(spans) for name, _, fn, _, _ in LAYER_METRICS if fn is not None}

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        size = SIZES.get(name)
        stack, sizes, ends = self._stack, self.sizes, self.ends
        push, pop = stack.append, stack.pop
        add_name, add_parent = self.name_ids.append, self.parents.append
        add_start, add_end = self.starts.append, ends.append
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ends)
            add_name(nid)
            add_parent(stack[-1])
            add_end(0.0)
            push(idx)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                pop()
            if size is not None:
                sizes[idx] = size(result)
            return result

        return traced
