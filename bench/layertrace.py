"""Span and counter tracing of masseytc layers, installed from outside.

The tracer wraps layer functions in place: every module of the package
that holds a binding to a traced function gets the wrapper, not only the
defining module (``kernel``, for one, is imported by name into
``cohomology``, ``massey`` and ``bounds``).  Methods are wrapped on their
class.  ``uninstall`` puts every original binding back.

Spans are kept in memory as (id, name, start, end, parent id, op id) and
written out once the run ends.  A layer's self time is its span's duration
minus the durations of its direct child spans.  Hot functions that would
flood the span list (``cup_basis``, ``representative``, ``class_of``,
``cup``) are counted, not spanned; their time lands in the self time of
the enclosing span.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, attribute path, span name).  A callable name picks the span name
# from the call's arguments.
SPANS = (
    ("dsl", "parse_model", "dsl.parse"),
    ("dga", "compile_cdga", "dga.compile"),
    ("dga", "tensor", "dga.tensor"),
    ("cohomology", "CohomologyRing.__init__",
     lambda args: ("cohomology.square_ring" if args[1].factors is not None
                   else "cohomology.ring")),
    ("cohomology", "KunnethMap.__init__", "cohomology.kunneth"),
    ("cohomology", "KunnethMap.decompose", "cohomology.decompose"),
    ("cohomology", "CohomologyRing.product_span", "cohomology.product_span"),
    ("linalg", "kernel", "linalg.kernel"),
    ("linalg", "image", "linalg.image"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "solve", "linalg.solve"),
    ("linalg", "PrefactoredSolver.__init__", "linalg.prefactor"),
    ("massey", "massey_triple", "massey.triple"),
    ("massey", "scan_triples", "massey.scan"),
    ("bounds", "zero_divisors_cup_length", "bounds.zcl"),
    ("bounds", "weighted_lower_bound", "bounds.search"),
    ("bounds", "rudyak_lower_bound", "bounds.rudyak"),
    ("bounds", "cat_weight_facts", "bounds.cat_facts"),
    ("bounds", "tc_weight_facts", "bounds.tc_facts"),
    ("bounds", "transfer_weight", "bounds.transfer"),
    ("bounds", "build_ledger", "bounds.ledger"),
    ("report", "massey_section", "report.massey_section"),
    ("report", "zcl_section", "report.zcl_section"),
    ("report", "render_json", "report.render"),
    ("report", "render_text", "report.render"),
)

# (module, attribute path, counter name): counted on every call, no span.
COUNTERS = (
    ("cohomology", "CohomologyRing.cup_basis", "cohomology.cup_basis_calls"),
    ("cohomology", "CohomologyRing.representative",
     "cohomology.representative_calls"),
    ("cohomology", "CohomologyRing.class_of", "cohomology.class_of_calls"),
    ("cohomology", "CohomologyRing.cup", None),  # see _cup_count
)

# Span names whose matrix argument is handed to an elimination.
ELIMINATIONS = {"linalg.kernel": 0, "linalg.image": 0, "linalg.rank": 0,
                "linalg.solve": 0, "linalg.prefactor": 1}

# Per-layer metrics: (name, unit, better, end-to-end metric it should move).
# ``_s`` metrics are span totals, ``_self_s`` the matching self times.
LAYER_METRICS = []


def _metric(name, unit, better, moves):
    LAYER_METRICS.append((name, unit, better, moves))


def _timed(layer, moves, calls=False):
    if calls:
        _metric(f"{layer}_calls", "count", "lower", moves)
    _metric(f"{layer}_s", "s", "lower", moves)
    _metric(f"{layer}_self_s", "s", "lower", moves)


_ZCL = "op_p50_s on golden and stress-nil; flat on massey-cli"
for _n in ("cohomology.cup_basis_calls", "cohomology.representative_calls",
           "cohomology.class_of_calls"):
    _metric(_n, "count", "lower", _ZCL)
_timed("cohomology.product_span", _ZCL, calls=True)
_timed("bounds.zcl", _ZCL, calls=True)
_timed("cohomology.decompose", "bounds_s.borromean on golden", calls=True)
_timed("linalg.solve", "bounds_s.borromean on golden", calls=True)
_SQUARE = ("bounds_s.even7 on golden; op_p50_s and peak_rss_mib on "
           "stress-nil; zero on massey-cli")
_timed("dga.tensor", _SQUARE)
_metric("dga.tensor_dim", "count", "lower", _SQUARE)
_timed("cohomology.square_ring", _SQUARE)
_timed("cohomology.kunneth", _SQUARE)
_timed("massey.scan", "op_p50_s on golden and stress-nil", calls=True)
_SEARCH = "op_p50_s on stress-nil"
_timed("bounds.search", _SEARCH)
_metric("bounds.search_cups", "count", "lower", _SEARCH)
_timed("bounds.rudyak", _SEARCH)
_metric("bounds.rudyak_triples", "count", "lower", _SEARCH)
_timed("bounds.cat_facts", _SEARCH)
_timed("bounds.tc_facts", _SEARCH)
_metric("bounds.transfer_refused", "count", "lower", _SEARCH)
_ELIM = "op_p90_s on massey-cli; op_p50_s on every workload"
_timed("linalg.kernel", _ELIM, calls=True)
_timed("linalg.image", _ELIM, calls=True)
_timed("linalg.prefactor", _ELIM, calls=True)
_metric("linalg.elim_cells", "count", "lower", _ELIM)
_metric("linalg.elim_max_cells", "count", "lower", _ELIM)
_QUERY = "op_p50_s and ops_per_s on massey-cli; noise on golden"
_timed("dsl.parse", _QUERY)
_timed("dga.compile", _QUERY)
_timed("cohomology.ring", _QUERY)
_timed("massey.triple", _QUERY, calls=True)
_metric("massey.defined_frac", "fraction", "higher", _QUERY)
_metric("massey.nonzero_frac", "fraction", "higher", _QUERY)
_ALL = "op_p50_s on every workload"
_timed("bounds.ledger", _ALL)
_timed("bounds.replay", _ALL)
_timed("report.massey_section", _ALL)
_timed("report.zcl_section", _ALL)
_timed("report.render", _ALL)
_metric("report.payload_bytes", "count", "lower", _ALL)
_metric("trace.op_p50_s", "s", "lower", "traced op median, for the overhead")
_metric("trace.overhead_s", "s", "lower",
        "traced minus untraced op_p50_s in the same process")
LAYER_METRICS = tuple(LAYER_METRICS)


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


def _normalise_reason(reason: str) -> str:
    return "".join("#" if ch.isdigit() else ch for ch in reason)


class Tracer:
    """Collects spans and counters while installed and enabled."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, op)
        self.counts = Counter()  # counters of the current pass
        self.pass_counts = []
        self.refusals = Counter()
        self.enabled = True
        self.op = -1
        self._stack = []
        self._open = Counter()   # span name -> nesting depth
        self._next_id = 0
        self._restore = []

    # ---------------------------------------------------------- recording

    def new_pass(self) -> None:
        self.counts = Counter()
        self.pass_counts.append(self.counts)

    def call(self, name, fn, args, kwargs):
        """Run fn inside a span called name, returning its result."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        self._open[name] += 1
        self.counts[name + "_calls"] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open[name] -= 1
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self.op))

    def _after(self, name, fn, args, result) -> None:
        counts = self.counts
        slot = ELIMINATIONS.get(name)
        if slot is not None:
            m = args[slot]
            cells = m.rows * m.cols
            counts["linalg.elim_cells"] += cells
            if cells > counts["linalg.elim_max_cells"]:
                counts["linalg.elim_max_cells"] = cells
        elif name == "dga.tensor":
            counts["dga.tensor_dim"] += result.total_dim()
        elif name == "massey.triple":
            counts["massey.defined"] += result.defined
            counts["massey.nonzero"] += result.is_nonzero()
            if self._open["bounds.rudyak"]:
                counts["bounds.rudyak_triples"] += 1
        elif name == "bounds.transfer" and result[0] is None:
            counts["bounds.transfer_refused"] += 1
            self.refusals[_normalise_reason(result[1])] += 1
        elif fn.__name__ == "render_json":
            counts["report.payload_bytes"] += len(result.encode())

    def _span_wrapper(self, fn, name):
        pick = name if callable(name) else None

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            label = pick(args) if pick else name
            result = self.call(label, fn, args, kwargs)
            self._after(label, fn, args, result)
            return result
        return wrapper

    def _count_wrapper(self, fn, counter):
        def wrapper(*args, **kwargs):
            if self.enabled:
                self.counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _cup_count(self, fn):
        # ring.cup calls under weighted_lower_bound: a proxy for search nodes
        def wrapper(*args, **kwargs):
            if self.enabled and self._open["bounds.search"]:
                self.counts["bounds.search_cups"] += 1
            return fn(*args, **kwargs)
        return wrapper

    # ------------------------------------------------------- installation

    def install(self, package: str = "masseytc") -> None:
        loaded = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == package or n.startswith(package + "."))]
        for mod, path, name in SPANS:
            self._patch(loaded, package, mod, path,
                        lambda fn, name=name: self._span_wrapper(fn, name))
        for mod, path, counter in COUNTERS:
            self._patch(loaded, package, mod, path,
                        (lambda fn, c=counter: self._count_wrapper(fn, c))
                        if counter else self._cup_count)

    def _patch(self, loaded, package, mod, path, make):
        owner, attr = _resolve(sys.modules[f"{package}.{mod}"], path)
        original = vars(owner)[attr]
        wrapper = make(original)
        if isinstance(owner, type):
            self._rebind(owner, attr, original, wrapper)
            return
        for module in loaded:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._rebind(module, key, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------ results

    def layer_times(self, ops) -> tuple:
        """(total, self) seconds per span name over spans of the given ops.

        Totals count only the outermost span of a name, so a layer that
        re-enters itself is not counted twice.
        """
        ops = set(ops)
        by_id = {s[0]: s for s in self.spans}
        child = Counter()
        for sid, name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, own = Counter(), Counter()
        for sid, name, start, end, parent, op in self.spans:
            if op not in ops:
                continue
            own[name] += end - start - child[sid]
            p = parent
            while p >= 0 and by_id[p][1] != name:
                p = by_id[p][4]
            if p < 0:
                total[name] += end - start
        return total, own
