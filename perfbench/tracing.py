"""Per-layer spans for the benchmark, recorded from outside the package.

Each traced function is replaced, in every ``axitherm`` module that holds
a reference to it, by a wrapper that times the call and subtracts the
time of traced calls made inside it (self time). Some wrappers also add
to a count taken from the call's arguments or result.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _traction_edges(args, kwargs, result):
    from axitherm.mechanical import Traction
    from axitherm.mesh import BoundaryTag

    mesh, bc = _arg(args, kwargs, 0, "mesh"), _arg(args, kwargs, 2, "bc")
    return sum(1 for (_, _, tag) in mesh.boundary_edges
               if tag is not None and tag is not BoundaryTag.INTERFACE
               and isinstance(bc.lookup(tag), Traction))


# (module, function, span name or None for a count-only hook,
#  count name, count function of (args, kwargs, result))
TARGETS = [
    ("axitherm.mesh", "generate_mesh", "mesh.generate_mesh",
     "mesh.nodes", lambda a, k, r: r.num_nodes),
    ("axitherm.mesh", "tag_boundaries", "mesh.tag_boundaries",
     "mesh.boundary_edges", lambda a, k, r: len(r.boundary_edges)),
    ("axitherm.mesh", "save_mesh", "mesh.save_mesh", None, None),
    ("axitherm.mesh", "load_mesh", "mesh.load_mesh", None, None),
    ("axitherm.thermal", "newton_solve", "thermal.newton_solve",
     "thermal.newton_iterations", lambda a, k, r: r[1].iterations),
    ("axitherm.thermal", "assemble_thermal_residual",
     "thermal.assemble_thermal_residual", None, None),
    ("axitherm.thermal", "assemble_thermal_jacobian",
     "thermal.assemble_thermal_jacobian", None, None),
    ("axitherm.fem_core", "solve_lu", "fem_core.solve_lu",
     "fem_core.lu_matrix_nnz", lambda a, k, r: _arg(a, k, 0, "A").nnz),
    ("axitherm.fem_core", "assemble_csr", "fem_core.assemble_csr", None, None),
    ("axitherm.fem_core", "apply_constraints", "fem_core.apply_constraints",
     None, None),
    ("axitherm.mechanical", "assemble_mechanical_system",
     "mechanical.assemble_mechanical_system",
     "mechanical.traction_edges", _traction_edges),
    ("axitherm.mechanical", "solve_mechanical", "mechanical.solve_mechanical",
     None, None),
    ("axitherm.mechanical", "recover_stress", "mechanical.recover_stress",
     None, None),
    ("axitherm.io", "export_vtk", "io.export_vtk", None, None),
    ("axitherm.io", "export_csv", "io.export_csv", None, None),
    ("axitherm.io", "export_report", "io.export_report", None, None),
    # Solve reports carry their own wall time, so their length changes
    # from run to run; only the deterministic artifacts are counted.
    ("axitherm.io", "atomic_write_text", None, "io.bytes_written", None),
    ("axitherm.isoline", "extract_isoline", "isoline.extract_isoline",
     "isoline.points", lambda a, k, r: sum(len(p) for p in r.polylines)),
    ("axitherm.verification", "weighted_l2_error",
     "verification.weighted_l2_error", None, None),
    ("axitherm.verification", "mms_thermal_study", "verification.study",
     None, None),
    ("axitherm.verification", "mms_mechanical_study", "verification.study",
     None, None),
    ("axitherm.verification", "annulus_study", "verification.study",
     None, None),
    ("axitherm.cli", "run_scenario", "cli.run_scenario", None, None),
    ("axitherm.cli", "main", "cli.main", None, None),
]

SPAN_NAMES = sorted({t[2] for t in TARGETS if t[2] is not None})
COUNT_NAMES = sorted({t[3] for t in TARGETS if t[3] is not None})


class Tracer:
    """Self time and call count per span, and counts, for one case."""

    def __init__(self):
        self._stack = []  # [span name, time of traced children]
        self.reset()

    def reset(self):
        self.spans = defaultdict(lambda: [0.0, 0])
        self.counts = Counter()

    def wrap(self, span, fn, count_name, count):
        if span is None:
            return self._count_only(fn, count_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append([span, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                _, children = self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += elapsed
                entry = self.spans[span]
                entry[0] += elapsed - children
                entry[1] += 1
            if count is not None:
                self.counts[count_name] += count(args, kwargs, result)
            return result

        return traced

    def _count_only(self, fn, count_name):
        # io.atomic_write_text(path, text): bytes of every artifact that
        # is not a solve report
        @functools.wraps(fn)
        def counted(path, text):
            fn(path, text)
            if not any(name == "io.export_report" for name, _ in self._stack):
                self.counts[count_name] += len(text.encode())

        return counted


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "axitherm"
                                  or name.startswith("axitherm."))]


@contextmanager
def patched(replacements):
    """Replace functions by wrappers in every axitherm module naming them.

    ``replacements`` maps an original function to its wrapper. Raises if
    a function is held by no axitherm module.
    """
    undo = []
    try:
        for original, wrapper in replacements.items():
            found = False
            for module in _package_modules():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))
                        found = True
            if not found:
                raise RuntimeError(f"{original.__qualname__} not found in axitherm")
        yield
    finally:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)


def tracing(tracer: Tracer):
    """Context manager installing every span and count of ``TARGETS``.

    A target that was renamed or removed raises AttributeError here.
    """
    replacements = {}
    for module, func, span, count_name, count in TARGETS:
        original = getattr(sys.modules[module], func)
        replacements[original] = tracer.wrap(span, original, count_name, count)
    return patched(replacements)
