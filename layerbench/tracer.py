"""Spans and counts recorded around ccbound's public functions, from outside.

``install`` replaces every public function of the layer modules, in every
ccbound namespace that bound it (``regions.critical_visibility`` is the
same object as ``attack.critical_visibility``), with a wrapper that times
the call.  ``Correlation.__init__`` is wrapped on the class.  Nothing under
``src/`` is edited; the wrappers live only in the traced process.

Every call adds to its function's totals: calls, inclusive time and self
time (inclusive minus the wrapped calls beneath it).  The first
``SPANS_PER_FUNCTION`` calls of each function in a pass are also kept as
spans (name, start, end, parent span).  Later calls, which are the kernels
and grid points called 10^4 to 10^6 times, are only counted and timed per
parent span, which bounds the memory the trace needs.  Calls beneath a
function, such as CMI evaluations per minimization, are counted from the
span tree.
"""

import importlib
import sys
import time

LAYERS = ("correlations", "localset", "infotheory", "attack", "regions", "kernels", "cli")

SPANS_PER_FUNCTION = 1000


class FunctionStats:
    __slots__ = ("calls", "total", "self_time", "work")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.work = 0  # computed work units, for functions with a work formula


class Tracer:
    """Call statistics and spans for one pass over a task list."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.stats = {}
        self.spans = []  # [name, start, end, parent id, {name: [calls, seconds]}]; id = index
        self.stack = []  # open calls: [seconds in wrapped calls beneath, span id for children]
        self.top_level = 0.0  # seconds inside wrapped calls made from outside ccbound

    def wrap(self, name, fn, label=None, work=None):
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            key = name if label is None else label(name, args)
            stats = tracer.stats.get(key)
            if stats is None:
                stats = tracer.stats[key] = FunctionStats()
            stats.calls += 1
            stack = tracer.stack
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent else None
            span = None
            if stats.calls <= SPANS_PER_FUNCTION:
                spans = tracer.spans
                frame = [0.0, len(spans)]
                span = [key, 0.0, 0.0, parent_span, None]
                spans.append(span)
            else:
                frame = [0.0, parent_span]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.total += elapsed
                stats.self_time += elapsed - frame[0]
                if work is not None:
                    stats.work += work(args)
                if span is not None:
                    span[1] = start
                    span[2] = start + elapsed
                elif parent_span is not None:
                    owner = tracer.spans[parent_span]
                    if owner[4] is None:
                        owner[4] = {}
                    agg = owner[4].get(key)
                    if agg is None:
                        agg = owner[4][key] = [0, 0.0]
                    agg[0] += 1
                    agg[1] += elapsed
                if parent is not None:
                    parent[0] += elapsed
                else:
                    tracer.top_level += elapsed

        return traced

    def calls_beneath(self, ancestor, name):
        """Calls of ``name`` made, at any depth, inside calls of ``ancestor``.

        Counted from the span tree: ``name``'s own spans plus the calls
        aggregated into spans.  Exact while ``ancestor`` stays within the
        per-function span limit.  A parent span always precedes its children.
        """
        inside = []
        total = 0
        for key, _, _, parent, agg in self.spans:
            within_parent = parent is not None and inside[parent]
            inside.append(key == ancestor or within_parent)
            if within_parent and key == name:
                total += 1
            if inside[-1] and agg:
                total += agg.get(name, (0,))[0]
        return total

    def export_spans(self):
        return [
            {"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3],
             "aggregated_children": {k: {"calls": v[0], "seconds": v[1]} for k, v in (s[4] or {}).items()}}
            for i, s in enumerate(self.spans)
        ]


def _cli_label(name, args):
    """cli.main is split by subcommand: cli.main.region, cli.main.curve, ..."""
    argv = args[0] if args else None
    return f"{name}.{argv[0]}" if argv else name


def _tableau_bytes(args):
    m, n = args[0].shape
    return 8 * (m + 1) * (n + m + 1)


def _sweep_maps(args):
    p_abe, n_f = args[0], args[1]
    return int(n_f) ** p_abe.shape[2]


LABELS = {"cli.main": _cli_label}
WORK = {"kernels.simplex_maximize": _tableau_bytes, "kernels.sweep_deterministic_maps": _sweep_maps}


def _public_functions(module):
    """(object, name) pairs of the public callables defined in ``module``.

    kernels binds each kernel twice (``py_name`` and ``name``, the same
    object when numba is absent); the name without ``py_`` is kept.
    """
    found = {}
    for attr, obj in sorted(vars(module).items(), key=lambda kv: kv[0].startswith("py_")):
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        found.setdefault(id(obj), (obj, attr))
    return found.values()


def install(tracer):
    """Wrap every layer's public functions in every ccbound namespace."""
    from ccbound.correlations import Correlation

    replacements = {}
    for layer in LAYERS:
        module = importlib.import_module(f"ccbound.{layer}")
        for obj, attr in _public_functions(module):
            name = f"{layer}.{attr}"
            replacements[id(obj)] = (obj, tracer.wrap(name, obj, LABELS.get(name), WORK.get(name)))

    namespaces = [m for n, m in list(sys.modules.items()) if n == "ccbound" or n.startswith("ccbound.")]
    for module in namespaces:
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])

    Correlation.__init__ = tracer.wrap("correlations.Correlation", Correlation.__init__)
