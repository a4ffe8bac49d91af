"""Run one orbicert command in this process under a per-module span tracer.

    PYTHONPATH=src python3 perfbench/tracer.py TRACE_JSON -- verify q17 --format json

The command runs exactly as ``python -m orbicert.cli ARGS`` would: same
argv, same report on stdout, same exit code.  The tracer works from
outside the package: after ``import orbicert.cli`` it replaces every
public function of the layer modules, and every public method of
``VertexPermutation``, with a wrapper.  Modules from-import one another,
so a function is replaced at every module attribute that binds it.

Each wrapper records a span: calls, and self time (its duration minus the
time its child spans cover).  A few scalar helpers are called 10^5 to 10^6
times per command; a span each would inflate the traced run, so they only
count calls and their time stays with the caller.  Spans live in memory
and are written to TRACE_JSON when the command ends.
"""

import time

T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

LAYERS = (
    "fields",
    "matrices",
    "groups",
    "digraphs",
    "cliques",
    "crossratio",
    "certify",
    "report",
    "cli",
)
# Called 1.6e5 to 6.9e5 times by `verify cross-ratio-table --p 13`.
COUNT_ONLY = frozenset(
    {
        "crossratio.cross_ratio",
        "crossratio.homogeneous",
        "crossratio.apply_formula",
        "crossratio.permute_quad",
        "fields.fp_inv",
    }
)


class Tracer:
    """Span and call-count bookkeeping for one single-threaded command."""

    def __init__(self):
        self.open = []  # [start, time covered by child spans] per open span
        self.spans = {}  # name -> [calls, self_s, calls that returned non-None]
        self.counts = {}  # name -> [calls], for COUNT_ONLY helpers
        self.top_s = 0.0  # time covered by outermost spans
        self.caches = {}  # name -> the lru_cache object, for its miss count

    def span(self, name, fn):
        stats = self.spans.setdefault(name, [0, 0.0, 0])
        open_spans = self.open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            open_spans.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - frame[0]
                open_spans.pop()
                if open_spans:
                    open_spans[-1][1] += took
                else:
                    self.top_s += took
                stats[0] += 1
                stats[1] += took - frame[1]
            stats[2] += result is not None
            return result

        return wrapper

    def counter(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap the public functions of every layer module, at every binding."""
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = sys.modules[f"orbicert.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                cached = hasattr(obj, "cache_info")
                if not (isinstance(obj, types.FunctionType) or cached):
                    continue
                name = f"{layer}.{attr}"
                if cached:
                    self.caches[name] = obj
                wrap = self.counter if name in COUNT_ONLY else self.span
                wrappers[id(obj)] = wrap(name, obj)
        for modname, module in list(sys.modules.items()):
            if modname != "orbicert" and not modname.startswith("orbicert."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, attr, wrappers[id(obj)])
        cls = sys.modules["orbicert.digraphs"].VertexPermutation
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self.span(f"digraphs.{attr}", obj.__func__)))
            elif isinstance(obj, types.FunctionType):
                setattr(cls, attr, self.span(f"digraphs.{attr}", obj))


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: tracer.py TRACE_JSON -- ORBICERT_ARGS...", file=sys.stderr)
        return 2
    trace_path, argv = sys.argv[1], sys.argv[3:]
    tracer = Tracer()
    start = time.perf_counter()
    import orbicert.cli  # noqa: F401

    import_s = time.perf_counter() - start
    tracer.install()
    code = sys.modules["orbicert.cli"].main(argv)
    sys.stdout.flush()
    wall_s = time.perf_counter() - T0
    trace = {
        "wall_s": wall_s,
        "covered_s": import_s + tracer.top_s,
        "spans": {"cli.import": [1, import_s, 1], **tracer.spans},
        "counts": {name: cell[0] for name, cell in tracer.counts.items()},
        "misses": {name: fn.cache_info().misses for name, fn in tracer.caches.items()},
    }
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
