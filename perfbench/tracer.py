"""Span tracer for the traced run, and the per-layer metrics it yields.

The tracer replaces public names at each module boundary of the
coilfringe package with timing wrappers while a traced pass runs, and
puts the originals back afterwards.  A wrapped name is looked up in the
module that makes the call, so `export._coil_A_arrays` is the kernel as
`field_map_rows` calls it.  A name a module no longer has is recorded as
absent and its layer reads zero; the run goes on.

Each span records name, start, end and parent.  Spans stay in memory
until the run ends.  Self time is a span's duration minus the durations
of its child spans (children of one span never overlap: the program is
single-threaded).
"""

from dataclasses import dataclass, field
import contextlib
import importlib
import math
import os
import time

PACKAGE = "coilfringe"

BUILD = ("cli.build_winding", "export.build_winding", "winding.build_winding")
KERNEL_A = ("export._coil_A_arrays", "winding._coil_A_arrays")
KERNEL_B = ("export._curl_fd", "winding._curl_fd")
LOAD = ("cli.load_scenario", "cli.paper_scenario")


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index of the parent span in Tracer.spans, -1 for a root
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _size(winding):
    """Segment count of a built winding: a list, or an object of arrays."""
    starts = getattr(winding, "starts", winding)
    return len(starts)


def _points(p):
    return p.size // 3


def _hook_build(tracer, args, kwargs, result):
    tracer.segments = _size(result)
    return {"segments": tracer.segments}


def _hook_kernel_a(tracer, args, kwargs, result):
    starts, ends, currents, p = args[:4]
    nbytes = sum(a.nbytes for a in (starts, ends, currents, p, result))
    return {"pairs": len(starts) * _points(p), "bytes": nbytes}


def _hook_kernel_b(tracer, args, kwargs, result):
    return {"pairs": _points(args[1]) * tracer.segments}


def _hook_grid_rows(tracer, args, kwargs, result):
    return {"rows": len(result), "pairs": len(result) * tracer.segments}


def _hook_grid_points(tracer, args, kwargs, result):
    grid = kwargs.get("grid", args[2] if len(args) > 2 else None)
    points = grid**3 if isinstance(grid, int) else math.prod(grid)
    return {"pairs": points * tracer.segments}


def _hook_file_bytes(tracer, args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _hook_sweep_rows(tracer, args, kwargs, result):
    return {"rows": len(result[0])}


# (module, public name, hook recording counts at the call)
TARGETS = (
    ("cli", "main", None),
    ("cli", "load_scenario", None),
    ("cli", "paper_scenario", None),
    ("cli", "build_winding", _hook_build),
    ("export", "build_winding", _hook_build),
    ("winding", "build_winding", _hook_build),
    ("cli", "field_map_rows", _hook_grid_rows),
    ("cli", "homogeneity_report", _hook_grid_points),
    ("export", "_coil_A_arrays", _hook_kernel_a),
    ("winding", "_coil_A_arrays", _hook_kernel_a),
    ("export", "_curl_fd", _hook_kernel_b),
    ("winding", "_curl_fd", _hook_kernel_b),
    ("cli", "write_field_map", _hook_file_bytes),
    ("cli", "write_json", None),
    ("cli", "write_fringe_csv", None),
    ("cli", "run_sweep", _hook_sweep_rows),
    ("cli", "write_sweep_csv", _hook_file_bytes),
    ("cli", "fringe_pattern", None),
    ("sweep", "linear_response_fit", None),
    ("cli", "reproduce_paper", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.segments = 0  # size of the winding built most recently
        self.targets = []  # (module object, attribute, original, wrapper)
        self.absent = []
        for mod_name, attr, hook in TARGETS:
            label = f"{mod_name}.{attr}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.absent.append(label)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(label)
                continue
            self.targets.append((module, attr, original, self._wrap(original, label, hook)))

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, hook):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if hook is not None:
                try:
                    span.attrs = hook(self, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError,
                        OSError) as exc:
                    span.attrs = {"hook_error": repr(exc)}
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        for module, attr, _, wrapper in self.targets:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original, _ in self.targets:
                setattr(module, attr, original)

    def take(self):
        """Spans recorded since the last call, and a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def _child_time(spans):
    """Time each span spent in its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return child


def unaccounted_by_command(spans):
    """Command wall time minus its top-level spans, per command (root) span."""
    child = _child_time(spans)
    return {s.name: s.duration - child[i] for i, s in enumerate(spans) if s.parent < 0}


def pass_metrics(spans):
    """Per-layer metrics of one traced pass; roots are the command spans."""
    child = _child_time(spans)

    def pick(names):
        return [(i, s) for i, s in enumerate(spans) if s.name in names]

    def total(names):
        return sum(s.duration for _, s in pick(names))

    def self_time(names):
        return sum(s.duration - child[i] for i, s in pick(names))

    def count(names, key):
        return sum(s.attrs.get(key, 0) for _, s in pick(names))

    a_spans = [s for _, s in pick(KERNEL_A)
               if s.parent < 0 or spans[s.parent].name not in KERNEL_B]
    a_pairs = sum(s.attrs.get("pairs", 0) for s in a_spans)
    a_time = sum(s.duration for s in a_spans)
    segments = count(BUILD, "segments")
    fm = ("cli.field_map_rows",)
    sweep = ("cli.run_sweep",)
    return {
        "cli.self_s": self_time(("cli.main",)),
        "scenario.load_scenario_s": total(LOAD),
        "winding.build_winding_s": total(BUILD),
        "winding.segments": segments,
        "winding.build_segments_per_s": _ratio(segments, total(BUILD)),
        "winding.coil_A_pairs_per_s": _ratio(a_pairs, a_time),
        "winding.coil_B_pairs_per_s": _ratio(count(KERNEL_B, "pairs"), total(KERNEL_B)),
        "winding.homogeneity_report_s": total(("cli.homogeneity_report",)),
        "winding.homogeneity_report_self_s": self_time(("cli.homogeneity_report",)),
        "winding.pairs": count(fm + ("cli.homogeneity_report",), "pairs"),
        "winding.kernel_bytes_computed": count(KERNEL_A, "bytes"),
        "export.field_map_rows_s": total(fm),
        "export.field_map_rows_self_s": self_time(fm),
        "export.field_map_points_per_s": _ratio(count(fm, "rows"), total(fm)),
        "export.write_field_map_s": total(("cli.write_field_map",)),
        "export.write_field_map_bytes": count(("cli.write_field_map",), "bytes"),
        "export.write_json_s": total(("cli.write_json",)),
        "sweep.run_sweep_s": total(sweep),
        "sweep.run_sweep_rows_per_s": _ratio(count(sweep, "rows"), total(sweep)),
        "sweep.write_sweep_csv_s": total(("cli.write_sweep_csv",)),
        "sweep.write_sweep_csv_bytes": count(("cli.write_sweep_csv",), "bytes"),
        "diffraction.fringe_pattern_s": total(("cli.fringe_pattern",)),
        "diffraction.linear_response_fit_s": total(("sweep.linear_response_fit",)),
        "report.reproduce_paper_s": total(("cli.reproduce_paper",)),
        "trace.unaccounted_s": sum(unaccounted_by_command(spans).values()),
        "trace.spans": len(spans),
    }


def import_profile(stderr_text):
    """Import costs in seconds from `python -X importtime` output."""
    entries = []
    for line in stderr_text.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        cumulative, name = parts[1].strip(), parts[2]
        if not cumulative.isdigit():
            continue  # the column header
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative)))

    def first(module):
        return next((c for _, n, c in entries if n == module), 0) / 1e6

    top = sum(c for d, n, c in entries
              if d == 0 and (n == PACKAGE or n.startswith(PACKAGE + ".")))
    return {
        "cli.import_s": top / 1e6,
        "cli.import.ideal_field_s": first(f"{PACKAGE}.ideal_field"),
        "cli.import.scipy_integrate_s": first("scipy.integrate"),
    }

