"""Span tracer that wraps katzlab's public functions from outside the package.

Every public function defined in one of the seven katzlab modules is replaced
by a wrapper that records a span (function, start, end, parent span, op id).
The wrapper is installed in the defining module *and* in every katzlab
module that imported the function by name (``from .graphs import
resistance`` binds a second reference that patching ``graphs`` alone would
miss), found by identity over the modules' globals.  Spans stay in memory
in flat arrays and are written out when the run ends.

Per-layer metrics are derived from the spans: a layer's self time is the
sum over its spans of duration minus the duration of their direct children,
and its call count is the number of spans entered from outside the layer.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
import tracemalloc
from array import array
from collections import Counter, defaultdict

LAYERS = ("dpoly", "linalg", "graphs", "katz", "ordering", "cli", "verify")

# Metric group of each function that is not simply "<layer>" (dpoly, linalg,
# graphs, cli, verify) or the layer's default group below.
_GROUPS = {
    "graphs.resistance_oracle": "graphs.oracle",
    "graphs.spectral_radius_oracle": "graphs.oracle",
    "katz.katz_oracle_inverse": "katz.oracle",
    "katz.katz_oracle_series": "katz.oracle",
    "katz.determinant_path": "katz.oracle",
    "katz.determinant_cycle": "katz.oracle",
    "katz.katz_path_exact": "katz.exact",
    "katz.katz_cycle_exact": "katz.exact",
    "ordering.cutoff_root": "ordering.cutoff",
    "ordering.cutoff_table": "ordering.cutoff",
    "ordering.p_tilde": "ordering.cutoff",
    "ordering.p_gap": "ordering.cutoff",
    "ordering.cycle_numerator_gap": "ordering.cutoff",
}
_DEFAULT_GROUP = {"katz": "katz.closed", "ordering": "ordering.agreement"}

KATZ_MATRIX_FUNCTIONS = ("katz.katz_path_matrix", "katz.katz_cycle_matrix")
D_TERM_FUNCTIONS = ("dpoly.d_sequence", "dpoly.d_recursive", "dpoly.d_sequence_exact", "dpoly.d_closed")


def group_of(qualname: str) -> str:
    layer = qualname.split(".", 1)[0]
    return _GROUPS.get(qualname, _DEFAULT_GROUP.get(layer, layer))


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _solve_flops(args, kwargs):
    """Computed cost of one elimination: 2/3 n^3 + 2 n^2 k for k right-hand sides."""
    a = args[0] if args else kwargs["a"]
    b = args[1] if len(args) > 1 else kwargs["b"]
    n = len(a)
    shape = getattr(b, "shape", None) or (len(b),)
    k = 1 if len(shape) == 1 else shape[1]
    return 2.0 / 3.0 * n**3 + 2.0 * n * n * k


def _counters(qualname: str):
    """(counter name, f(args, kwargs, result)) pairs recorded per call."""
    if qualname in D_TERM_FUNCTIONS:
        return (("dpoly.terms", lambda a, kw, r: _first_arg(a, kw, "n")),)
    if qualname == "linalg.solve":
        return (("linalg.flops", lambda a, kw, r: _solve_flops(a, kw)),)
    if qualname == "linalg.determinant":
        return (("linalg.flops", lambda a, kw, r: 2.0 / 3.0 * len(_first_arg(a, kw, "a")) ** 3),)
    if qualname in KATZ_MATRIX_FUNCTIONS:
        return (("katz.entries", lambda a, kw, r: _first_arg(a, kw, "n") ** 2),)
    if group_of(qualname) == "katz.closed":
        return (("katz.entries", lambda a, kw, r: 1),)
    if qualname == "ordering.agreement":
        def comparisons(a, kw, r):
            n = _first_arg(a, kw, "g").n
            pairs = n * (n - 1) // 2
            return 3 * pairs * pairs

        return (("ordering.pair_comparisons", comparisons),)
    if qualname == "ordering.cutoff_root":
        return (("ordering.bisection_iters", lambda a, kw, r: r.iterations),)
    return ()


class Tracer:
    """Records spans for calls into katzlab while installed.

    With ``measure_memory`` the ``agreement`` wrapper also records the
    tracemalloc peak of each call (the caller starts tracemalloc); that
    mode is kept apart from the timed traced pass because tracemalloc's
    allocation hooks slow the code it watches.
    """

    def __init__(self, measure_memory: bool = False):
        self.measure_memory = measure_memory
        self.qualnames: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.counts: Counter = Counter()
        self.agreement_peak_bytes = 0
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every public katzlab function at every module that binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"katzlab.{layer}")
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__:
                    continue
                wrappers[id(value)] = (value, self._wrap(value, f"{layer}.{attr}"))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "katzlab" and not mod_name.startswith("katzlab."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, qualname: str):
        name_id = len(self.qualnames)
        self.qualnames.append(qualname)
        counters = _counters(qualname)
        track_peak = self.measure_memory and qualname == "ordering.agreement"
        starts, ends, names, parents, ops = self.start, self.end, self.name, self.parent, self.op
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            if track_peak:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if track_peak:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.agreement_peak_bytes = max(self.agreement_peak_bytes, peak)
            for counter, fn_count in counters:
                counts[counter] += fn_count(args, kwargs, result)
            return result

        return traced

    # -- output -------------------------------------------------------

    def write_spans(self, path) -> None:
        """Gzipped CSV of every span: op id, function, start and end (s), parent row."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,op,function,start_s,end_s,parent\n")
            q = self.qualnames
            for idx in range(len(self.name)):
                fh.write(
                    f"{idx},{self.op[idx]},{q[self.name[idx]]},"
                    f"{self.start[idx]!r},{self.end[idx]!r},{self.parent[idx]}\n"
                )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times over every recorded span."""
        n = len(self.name)
        groups = [group_of(q) for q in self.qualnames]
        layers = [g.split(".", 1)[0] for g in groups]
        child_s = [0.0] * n
        duration = [0.0] * n
        for idx in range(n):
            d = self.end[idx] - self.start[idx]
            duration[idx] = d
            p = self.parent[idx]
            if p >= 0:
                child_s[p] += d

        calls: Counter = Counter()
        fn_calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        fn_self_s: defaultdict = defaultdict(float)
        fn_total_s: defaultdict = defaultdict(float)
        for idx in range(n):
            name_id = self.name[idx]
            group, layer = groups[name_id], layers[name_id]
            own = duration[idx] - child_s[idx]
            self_s[group] += own
            fn_self_s[name_id] += own
            fn_total_s[name_id] += duration[idx]
            fn_calls[name_id] += 1
            p = self.parent[idx]
            if p < 0 or layers[self.name[p]] != layer:
                calls[group] += 1

        def by_name(qualname, table):
            return sum(v for k, v in table.items() if self.qualnames[k] == qualname)

        def layer_sum(layer, table):
            return sum(v for g, v in table.items() if g.split(".", 1)[0] == layer)

        matrix_ids = {i for i, q in enumerate(self.qualnames) if q in KATZ_MATRIX_FUNCTIONS}
        agreement_group = "ordering.agreement"
        builds = 0
        ordering_ops = set()
        for idx in range(n):
            name_id = self.name[idx]
            if groups[name_id] == agreement_group:
                ordering_ops.add(self.op[idx])
            if name_id in matrix_ids:
                p = self.parent[idx]
                while p >= 0 and groups[self.name[p]] != agreement_group:
                    p = self.parent[p]
                if p >= 0:
                    builds += 1

        m: dict[str, float] = {
            "dpoly.calls": layer_sum("dpoly", calls),
            "dpoly.terms": self.counts["dpoly.terms"],
            "dpoly.self_s": layer_sum("dpoly", self_s),
            "dpoly.exact_s": by_name("dpoly.d_sequence_exact", fn_self_s),
            "linalg.calls": layer_sum("linalg", calls),
            "linalg.flops": self.counts["linalg.flops"],
            "linalg.self_s": layer_sum("linalg", self_s),
            "graphs.calls": calls["graphs"],
            "graphs.self_s": self_s["graphs"],
            "graphs.oracle_calls": calls["graphs.oracle"],
            "graphs.oracle_s": self_s["graphs.oracle"],
            "katz.closed_calls": calls["katz.closed"],
            "katz.entries": self.counts["katz.entries"],
            "katz.closed_s": self_s["katz.closed"],
            "katz.oracle_calls": calls["katz.oracle"],
            "katz.oracle_s": self_s["katz.oracle"],
            "katz.exact_s": self_s["katz.exact"],
            "ordering.agreement_calls": by_name("ordering.agreement", fn_calls),
            "ordering.pair_comparisons": self.counts["ordering.pair_comparisons"],
            "ordering.agreement_s": self_s[agreement_group],
            "ordering.matrix_builds": builds / len(ordering_ops) if ordering_ops else 0.0,
            "ordering.cutoff_calls": by_name("ordering.cutoff_root", fn_calls),
            "ordering.bisection_iters": self.counts["ordering.bisection_iters"],
            "ordering.p_tilde_calls": by_name("ordering.p_tilde", fn_calls),
            "ordering.cutoff_s": self_s["ordering.cutoff"],
            "cli.calls": calls["cli"],
            "cli.self_s": self_s["cli"],
        }
        for idx, qualname in enumerate(self.qualnames):
            if qualname.startswith("verify.suite_"):
                m[f"verify.{qualname[len('verify.suite_'):]}_s"] = fn_total_s.get(idx, 0.0)
        return m

