"""In-memory span recorder wrapped around the public functions of sgnspec.

The recorder replaces every public function of the package modules
(except a few scalar helpers, see UNTRACED), at every module attribute
that binds it, by a wrapper that records a span:
name, start, end, parent span, op id, a per-span count and whether the
call returned.  Calls between functions of one module resolve through
the module globals, so they are caught too.  Spans stay in memory until
the run ends; ``layer_metrics`` reduces them to the per-layer metrics.

Nothing here imports NumPy, so the module can be loaded before set-up
is timed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

MODULES = ("kernel", "quadrature", "bounds", "fdop", "bs", "field",
           "models", "cli")

# Scalar helpers called once or more per field point.  They carry no
# metric of their own; recording them would cost more than their work.
UNTRACED = {"kernel.principal_sqrt", "kernel.wave_numbers",
            "kernel.ray_distances", "kernel.spectrum_distance",
            "kernel.in_half_strip", "kernel.classify_region",
            "bounds.half_strip_distance"}

# span record fields
NAME, START, END, PARENT, OP, COUNT, OK = range(7)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _size(x):
    return len(x) if hasattr(x, "__len__") else 1


# per-span work counts, from the call's arguments and result
COUNTS = {
    "kernel.resolvent_kernel_grid":
        lambda a, k, r: _size(_arg(a, k, 1, "x")) * _size(_arg(a, k, 2, "y")),
    "kernel.dirichlet_kernel_grid":
        lambda a, k, r: _size(_arg(a, k, 1, "x")) * _size(_arg(a, k, 2, "y")),
    "quadrature.gauss_legendre_grid": lambda a, k, r: r.size,
    "quadrature.trapezoid_grid": lambda a, k, r: r.size,
    "bounds.apply_resolvent": lambda a, k, r: _arg(a, k, 1, "grid").size,
    "fdop.build_fd": lambda a, k, r: r.size,
    "fdop.eigenvalue_near": lambda a, k, r: int(_arg(a, k, 1, "n")),
    "bs.assemble_k": lambda a, k, r: r.size,
    "bs.decomposition_diagnostics": lambda a, k, r: r["n"],
    "field.compute_field":
        lambda a, k, r: r.grid.re_count * r.grid.im_count,
    "field.field_to_csv": lambda a, k, r: len(r.encode()),
    "field.field_to_json": lambda a, k, r: len(r.encode()),
}


class Recorder:
    """Span stack and span list for one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self.active = True  # off while the harness checks results
        self._saved: list[tuple] = []

    def wrap(self, name, fn):
        count = COUNTS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0,
                   False]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
                rec[OK] = True
            finally:
                rec[END] = clock()
                stack.pop()
            if count is not None:
                rec[COUNT] = count(args, kwargs, out)
            return out

        return traced

    def install(self) -> int:
        """Wrap every public sgnspec function where it is bound; return
        how many bindings were replaced."""
        mods = [importlib.import_module("sgnspec")]
        mods += [importlib.import_module(f"sgnspec.{m}") for m in MODULES]
        wrappers = {}
        for mod in mods[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and name not in UNTRACED):
                    wrappers[id(obj)] = self.wrap(name, obj)
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, w)
        return len(self._saved)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def dump(self, path) -> None:
        """Write the spans as JSON lines, one list per span."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


class SpanIndex:
    """Durations, self times and ancestry over a finished span list."""

    def __init__(self, spans):
        self.spans = spans
        self.dur = [s[END] - s[START] for s in spans]
        child = [0.0] * len(spans)
        for s, d in zip(spans, self.dur):
            if s[PARENT] >= 0:
                child[s[PARENT]] += d
        self.self_time = [d - c for d, c in zip(self.dur, child)]
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            self.by_name.setdefault(s[NAME], []).append(i)

    def ids(self, *names):
        return [i for n in names for i in self.by_name.get(n, ())]

    def under(self, i, *names) -> bool:
        """Whether span i has an ancestor with one of the names."""
        p = self.spans[i][PARENT]
        while p >= 0:
            if self.spans[p][NAME] in names:
                return True
            p = self.spans[p][PARENT]
        return False

    def total(self, ids) -> float:
        return sum(self.dur[i] for i in ids)

    def outer(self, ids) -> float:
        """Time covered by the spans, counting nested ones once."""
        names = {self.spans[i][NAME] for i in ids}
        return sum(self.dur[i] for i in ids if not self.under(i, *names))

    def count(self, ids) -> int:
        return sum(self.spans[i][COUNT] for i in ids)

    def top_level_s(self) -> float:
        return sum(d for s, d in zip(self.spans, self.dur) if s[PARENT] < 0)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass (values without units)."""
    ix = SpanIndex(spans)
    m: dict[str, float] = {}

    grid = ix.ids("kernel.resolvent_kernel_grid",
                  "kernel.dirichlet_kernel_grid")
    m["kernel.grid_calls"] = len(grid)
    m["kernel.grid_entries"] = ix.count(grid)
    m["kernel.grid_s"] = ix.total(grid)
    m["kernel.grid_entries_per_s"] = _ratio(m["kernel.grid_entries"],
                                            m["kernel.grid_s"])
    m["kernel.grid_bytes"] = 16 * m["kernel.grid_entries"]

    quad = ix.ids("quadrature.gauss_legendre_grid",
                  "quadrature.trapezoid_grid")
    m["quadrature.grid_calls"] = len(quad)
    m["quadrature.grid_nodes"] = ix.count(quad)
    m["quadrature.grid_s"] = ix.outer(quad)

    apply = ix.ids("bounds.apply_resolvent")
    m["bounds.apply_calls"] = len(apply)
    m["bounds.apply_nodes"] = ix.count(apply)
    m["bounds.apply_s"] = ix.total(apply)
    m["bounds.apply_ns_per_node"] = 1e9 * _ratio(m["bounds.apply_s"],
                                                 m["bounds.apply_nodes"])
    m["bounds.power_iters"] = sum(
        ix.under(i, "bounds.quadrature_operator_norm") for i in apply) // 2
    closed = ix.ids("bounds.schur_upper_bound",
                    "bounds.pseudomode_lower_bound", "bounds.numrange_bound")
    m["bounds.closed_calls"] = len(closed)
    m["bounds.closed_s"] = ix.outer(closed)

    norm = ix.ids("fdop.resolvent_norm_fd")
    builds = ix.ids("fdop.build_fd")
    m["fdop.norm_calls"] = len(norm)
    m["fdop.norm_unknowns"] = sum(
        ix.spans[i][COUNT] for i in builds
        if ix.under(i, "fdop.resolvent_norm_fd"))
    m["fdop.norm_s"] = ix.total(norm)
    m["fdop.norm_s_per_unknown"] = _ratio(m["fdop.norm_s"],
                                          m["fdop.norm_unknowns"])
    m["fdop.build_s"] = ix.total(builds)
    near = ix.ids("fdop.eigenvalue_near")
    m["fdop.eig_near_calls"] = len(near)
    m["fdop.eig_near_unknowns"] = ix.count(near)
    m["fdop.eig_near_s"] = ix.total(near)

    diag = ix.ids("bs.decomposition_diagnostics")
    m["bs.diag_calls"] = len(diag)
    m["bs.diag_s"] = ix.total(diag)
    m["bs.diag_self_s"] = sum(ix.self_time[i] for i in diag)
    m["bs.diag_n_max"] = max((ix.spans[i][COUNT] for i in diag), default=0)
    assemble = ix.ids("bs.assemble_k")
    m["bs.assemble_calls"] = len(assemble)
    m["bs.assemble_entries"] = ix.count(assemble)
    m["bs.assemble_s"] = ix.total(assemble)
    m["bs.l_matrix_s"] = ix.total(ix.ids("bs.l_matrix"))

    specrad = ix.ids("bs.spectral_radius")
    m["bs.specrad_calls"] = len(specrad)
    m["bs.specrad_s"] = ix.total(specrad)
    dense_parents = {ix.spans[i][PARENT] for i in assemble}
    m["bs.specrad_dense_calls"] = sum(i in dense_parents for i in specrad)
    m["bs.arnoldi_matvecs"] = sum(
        ix.under(i, "bs.spectral_radius") for i in apply)

    roots = ix.ids("bs.find_eigenvalue")
    m["bs.root_calls"] = len(roots)
    m["bs.root_s"] = ix.total(roots)
    m["bs.det_evals"] = sum(ix.under(i, "bs.find_eigenvalue")
                            for i in assemble)
    m["bs.det_evals_per_root"] = _ratio(m["bs.det_evals"], len(roots))
    m["bs.roots_ok_frac"] = _ratio(sum(ix.spans[i][OK] for i in roots),
                                   len(roots))

    comp = ix.ids("field.compute_field")
    m["field.compute_calls"] = len(comp)
    m["field.points"] = ix.count(comp)
    m["field.compute_s"] = ix.total(comp)
    m["field.points_per_s"] = _ratio(m["field.points"], m["field.compute_s"])
    csv_ids = ix.ids("field.field_to_csv")
    json_ids = ix.ids("field.field_to_json")
    m["field.csv_s"] = ix.total(csv_ids)
    m["field.json_s"] = ix.total(json_ids)
    m["field.export_bytes"] = ix.count(csv_ids) + ix.count(json_ids)
    m["field.load_s"] = ix.total(ix.ids("field.load_field_csv"))

    models = [i for n, ids in ix.by_name.items() if n.startswith("models.")
              for i in ids]
    m["models.calls"] = len(models)
    m["models.s"] = ix.outer(models)

    m["cli.main_s"] = ix.total(ix.ids("cli.main"))
    return m
