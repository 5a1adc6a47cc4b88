"""Per-layer timings and counts, taken from outside the cychom package.

A Tracer replaces every module binding of a traced public function with a
wrapper that records a span.  Modules such as homology, towers and cli import
rank, solve_columns or build_mixed_complex by name, so wrapping the defining
module alone would miss their calls; install() therefore rebinds the name in
every loaded cychom module that holds the original, and restore() puts every
binding back.

A layer's self time is the duration of its spans minus the time spent in
wrapped calls nested inside them.  Bookkeeping that is not the program's own
work (the input-equality tests behind the repeat counters, the nonzero and
cell counts) runs outside every span and is charged to no layer.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict

# (defining module, function name, span); the span is the metric prefix.
ELIMINATIONS = ("rank", "kernel_basis", "image_basis", "pivot_columns",
                "solve_columns")
TRACED = (
    *(("linalg", name, "linalg.elim") for name in ELIMINATIONS),
    ("mixed", "build_mixed_complex", "mixed.build"),
    ("mixed", "verify_mixed_identities", "mixed.identities"),
    ("mixed", "induced_chain_map", "mixed.chain_map"),
    ("homology", "total_differential", "homology.tot_assembly"),
    *(("homology", name, "homology.self") for name in (
        "hochschild_homology", "cyclic_homology",
        "periodic_via_stabilization", "stabilization_certificate",
        "homology_representatives")),
    ("towers", "continuity_check", "towers.self"),
    ("towers", "hp_continuity_check", "towers.self"),
    ("cli", "parse_algebra_file", "cli.parse"),
    ("cli", "parse_tower_file", "cli.parse"),
    ("cli", "parse_component_file", "cli.parse"),
    ("algebra", "check_associativity", "algebra.assoc_check"),
    ("cli", "render_report", "cli.render"),
)


class _SeenInputs:
    """Inputs met so far in one job, to count calls that repeat one exactly."""

    def __init__(self):
        self._buckets = defaultdict(list)

    def repeat(self, key, value):
        """True when an equal (key, value) was seen before; remembers it."""
        bucket = self._buckets[key]
        if any(value == old for old in bucket):
            return True
        bucket.append(value)
        return False


def _matrix_key(m):
    return (m.rows, m.cols, len(m.data), hash(frozenset(m.data.items())))


class Tracer:
    """Spans and counters for one job; use as a context manager around it."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.repeat_elim_s = 0.0
        self.max_elim = (0.0, (0, 0))
        self._stack = []
        self._bindings = []
        self._matrices = _SeenInputs()
        self._builds = _SeenInputs()

    def _wrap(self, fn, span, before=None, after=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            note = before(*args, **kwargs) if before else None
            frame = [clock(), 0.0]
            stack.append(frame)
            result = returned = None
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                self.self_s[span] += elapsed - frame[1]
                self.calls[span] += 1
                if returned and after:
                    after(note, elapsed, result)
                if stack:
                    # the whole call, bookkeeping included, leaves the
                    # caller's self time: bookkeeping is charged to no span
                    stack[-1][1] += clock() - entered
            return result

        return wrapper

    def _before_elim(self, m, vectors=()):
        nnz = len(m.data) + sum(len(v) for v in vectors)
        self.counts["linalg.elim_nnz"] += nnz
        repeat = self._matrices.repeat(_matrix_key(m), m.data)
        if repeat:
            self.counts["linalg.repeat_eliminations"] += 1
        return m.shape, repeat

    def _after_elim(self, note, elapsed, result):
        shape, repeat = note
        if repeat:
            self.repeat_elim_s += elapsed
        if elapsed > self.max_elim[0]:
            self.max_elim = (elapsed, shape)

    def _before_build(self, a, n_max, cell_cap=None):
        # cell_cap only decides whether the build is refused
        if self._builds.repeat((a.dim, n_max), (a.table, a.unit)):
            self.counts["mixed.repeat_builds"] += 1

    def _after_build(self, note, elapsed, mc):
        self.counts["mixed.cells"] += sum(s.dim for s in mc.spaces)
        self.counts["mixed.nnz"] += sum(
            m.nnz for ops in (mc.b_tilde, mc.B_tilde) for m in ops.values())

    def install(self):
        """Rebind every traced name in every loaded cychom module."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        hooks = {"linalg.elim": (self._before_elim, self._after_elim),
                 "mixed.build": (self._before_build, self._after_build)}
        wrappers = {}
        for module, name, span in TRACED:
            original = getattr(importlib.import_module(f"cychom.{module}"),
                               name)
            wrappers[id(original)] = (original, self._wrap(
                original, span, *hooks.get(span, ())))
        for modname, module in list(sys.modules.items()):
            if modname != "cychom" and not modname.startswith("cychom."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, hit[1])
        from cychom.linalg import SparseMatrix
        matmul = SparseMatrix.__matmul__
        self._bindings.append((SparseMatrix, "__matmul__", matmul))
        SparseMatrix.__matmul__ = self._wrap(matmul, "linalg.matmul")

    def restore(self):
        """Put back every binding install() replaced."""
        while self._bindings:
            owner, attr, original = self._bindings.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def metrics(self):
        """Per-layer numbers for this job, keyed by metric name."""
        elim_s = self.self_s["linalg.elim"]
        elim_nnz = self.counts["linalg.elim_nnz"]
        return {
            "linalg.elim_s": elim_s,
            "linalg.eliminations": self.calls["linalg.elim"],
            "linalg.elim_nnz": elim_nnz,
            "linalg.us_per_nnz": 1e6 * elim_s / elim_nnz if elim_nnz else 0.0,
            "linalg.repeat_eliminations":
                self.counts["linalg.repeat_eliminations"],
            "linalg.repeat_elim_s": self.repeat_elim_s,
            "linalg.max_elim_s": self.max_elim[0],
            "linalg.max_elim_rows": self.max_elim[1][0],
            "linalg.max_elim_cols": self.max_elim[1][1],
            "linalg.matmul_s": self.self_s["linalg.matmul"],
            "linalg.matmuls": self.calls["linalg.matmul"],
            "mixed.build_s": self.self_s["mixed.build"],
            "mixed.builds": self.calls["mixed.build"],
            "mixed.repeat_builds": self.counts["mixed.repeat_builds"],
            "mixed.cells": self.counts["mixed.cells"],
            "mixed.nnz": self.counts["mixed.nnz"],
            "mixed.identities_s": self.self_s["mixed.identities"],
            "mixed.chain_map_s": self.self_s["mixed.chain_map"],
            "homology.tot_assembly_s": self.self_s["homology.tot_assembly"],
            "homology.self_s": self.self_s["homology.self"],
            "towers.self_s": self.self_s["towers.self"],
            "cli.parse_s": self.self_s["cli.parse"],
            "algebra.assoc_check_s": self.self_s["algebra.assoc_check"],
            "cli.render_s": self.self_s["cli.render"],
        }
