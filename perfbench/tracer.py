"""Spans around the calls into qtcat's modules, recorded from outside.

The traced child process calls ``install`` before it runs ``cli.main``.  It
replaces each entry point in ``ENTRY_POINTS`` by a wrapper at every binding
where a caller looks it up: the module attribute, and the names that other
qtcat modules imported with ``from ... import``.  The program itself is not
edited.  A span is (name, start, end, parent); spans stay in memory as flat
arrays and ``Recorder.save`` writes them out once the job has ended.
"""

import functools
import inspect
import json
import sys
import time
from array import array

clock = time.perf_counter_ns


def _census_counts(result):
    all_counts, max_counts = result
    return {"paths": sum(all_counts.values()), "max_keys": len(max_counts)}


# (span name, module that defines it, attribute, count).  A span name is
# "<layer>.<function>" and the layer is the module's name.  Helpers that a
# module calls from its own inner loops (paths.alpha, cycles.right_tuple, ...)
# stay unwrapped: their time is part of the span that calls them.  Entry
# points that no metric names (bijections.bounded_partitions, paths.area,
# ...) are called by cli and verify; they are wrapped so that their time is
# not counted in cli.self_s or verify.self_s.
ENTRY_POINTS = [
    ("cli.main", "qtcat.cli", "main", None),
    ("verify.check_conjecture", "qtcat.verify", "check_conjecture", None),
    ("verify.basecase", "qtcat.verify", "basecase", None),
    ("verify.computation1", "qtcat.verify", "computation1", None),
    ("verify.computation2", "qtcat.verify", "computation2", None),
    ("verify.verify_string_partition", "qtcat.verify", "verify_string_partition", None),
    # the one private function wrapped: it marks the slice-assembly stage
    ("verify.assembly", "qtcat.verify", "_slices_from_census", None),
    ("kernels.rational_census", "qtcat.kernels", "rational_census", _census_counts),
    ("kernels.ellm_census_bounded", "qtcat.kernels", "ellm_census_bounded", _census_counts),
    ("kernels.ellm_maximal_bounded", "qtcat.kernels", "ellm_maximal_bounded", None),
    ("qtpoly.add", "qtcat.qtpoly", "QtPolynomial.__add__", None),
    ("qtpoly.sym", "qtcat.qtpoly", "sym", None),
    ("cycles.lowest_tuple", "qtcat.cycles", "lowest_tuple", None),
    ("cycles.is_connected", "qtcat.cycles", "is_connected", None),
    ("cycles.string_of", "qtcat.cycles", "string_of", None),
    ("bijections.f", "qtcat.bijections", "f", None),
    ("bijections.g", "qtcat.bijections", "g", None),
    ("bijections.height_from_path", "qtcat.bijections", "height_from_path", None),
    ("bijections.bounded_partitions", "qtcat.bijections", "bounded_partitions", None),
    ("paths.enumerate_positions", "qtcat.paths", "enumerate_positions", None),
    ("paths.degr_alpha", "qtcat.paths", "degr_alpha", None),
    ("paths.positions_to_steps", "qtcat.paths", "positions_to_steps", None),
    ("paths.area", "qtcat.paths", "area", None),
]


class Recorder:
    """Flat in-memory span store with a stack of open spans."""

    def __init__(self):
        self.names = []
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counters = {}

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name, count=None):
        """A wrapper of fn that records one span per call, or, for a
        generator function, one span per resumption and an item count."""
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counters = self.stack, self.counters

        if inspect.isgeneratorfunction(fn):
            items = name + ".items"
            counters[items] = 0

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = len(names)
                    names.append(nid)
                    parents.append(stack[-1])
                    starts.append(0)
                    ends.append(0)
                    stack.append(idx)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        ends[idx] = clock()
                        starts[idx] = t0
                        stack.pop()
                    counters[items] += 1
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if count is not None:
                for key, n in count(result).items():
                    key = name + "." + key
                    counters[key] = counters.get(key, 0) + n
            return result

        return traced

    def save(self, path):
        """Header line of JSON, then the four span arrays as raw bytes."""
        header = {
            "names": self.names,
            "spans": len(self.name),
            "counters": self.counters,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def install(recorder):
    """Wrap every entry point at each binding where callers look it up."""
    qtcat_modules = [
        mod for key, mod in sys.modules.items() if key.startswith("qtcat.") and mod
    ]
    for name, modname, attr, count in ENTRY_POINTS:
        owner = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, recorder.wrap(getattr(cls, meth), name, count))
            continue
        original = getattr(owner, attr)
        wrapped = recorder.wrap(original, name, count)
        for mod in qtcat_modules:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)


def load(path):
    """Read a file written by Recorder.save: (header, name, parent, start, end)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in ("H", "i", "q", "q"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (header, *arrays)


def summarize(path):
    """Per span name: calls, busy seconds (sum of durations) and self seconds
    (durations minus the time covered by child spans); per layer: self
    seconds; and the number of qtpoly.add spans whose parent is
    verify.assembly."""
    header, name, parent, start, end = load(path)
    names = header["names"]
    n = len(name)
    dur = [end[i] - start[i] for i in range(n)]
    child = [0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
    calls = [0] * len(names)
    busy = [0] * len(names)
    own = [0] * len(names)
    for i in range(n):
        k = name[i]
        calls[k] += 1
        busy[k] += dur[i]
        own[k] += dur[i] - child[i]
    per_name = {
        names[k]: {"calls": calls[k], "busy_s": busy[k] / 1e9, "self_s": own[k] / 1e9}
        for k in range(len(names))
    }
    layer_self = {}
    for nm, row in per_name.items():
        layer = nm.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + row["self_s"]
    assembly_adds = 0
    if "qtpoly.add" in names and "verify.assembly" in names:
        add_id = names.index("qtpoly.add")
        asm_id = names.index("verify.assembly")
        for i in range(n):
            if name[i] == add_id and parent[i] >= 0 and name[parent[i]] == asm_id:
                assembly_adds += 1
    return {
        "header": header,
        "per_name": per_name,
        "layer_self": layer_self,
        "assembly_adds": assembly_adds,
    }
