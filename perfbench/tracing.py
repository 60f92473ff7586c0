"""Span tracing of the affinehe layers, installed from outside the package.

A :class:`Tracer` wraps chosen public functions of the ``affinehe`` modules
(and the few scipy/numpy kernels they call for their heaviest steps) while
it is installed, and restores the originals when it is removed; nothing in
``src/`` changes.  Each wrapped call records one span: name, start, end,
parent span and operation index.  Spans stay in flat arrays in memory and
are written once, at the end of a run.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (span name, module, attribute path) of every wrapped callable.  Module
# functions are also replaced wherever another affinehe module imported
# them by name, so ``continuation.covariant_del0`` is traced as well.
TARGETS = [
    ("torus.partial", "affinehe.torus", "AffineTorus.partial"),
    ("bundle.covariant_del0", "affinehe.bundle", "covariant_del0"),
    ("bundle.end_delbar", "affinehe.bundle", "end_delbar"),
    ("bundle.HermCalculus.eig", "affinehe.bundle", "HermCalculus.eig"),
    ("bundle.HermCalculus.dlog", "affinehe.bundle", "HermCalculus.dlog"),
    ("continuation.normalize_background", "affinehe.continuation",
     "normalize_background"),
    ("continuation.newton_solve", "affinehe.continuation", "newton_solve"),
    ("continuation.solve_newton_direction", "affinehe.continuation",
     "ContinuationProblem.solve_newton_direction"),
    ("continuation.linearize_residual", "affinehe.continuation",
     "ContinuationProblem.linearize_residual"),
    ("continuation.res_norm", "affinehe.continuation",
     "ContinuationProblem.res_norm"),
    ("continuation.update", "affinehe.continuation",
     "ContinuationProblem.update"),
    ("gauduchon.find_gauduchon_factor", "affinehe.gauduchon",
     "find_gauduchon_factor"),
    ("gauduchon.apply_Q", "affinehe.gauduchon", "apply_Q"),
    ("destabilizer.destabilize", "affinehe.destabilizer", "destabilize"),
    ("fields_io.dump_field", "affinehe.fields_io", "dump_field"),
    ("scipy.lgmres", "scipy.sparse.linalg", "lgmres"),
    ("numpy.lstsq", "numpy.linalg", "lstsq"),
    ("scipy.svdvals", "scipy.linalg", "svdvals"),
    ("scipy.lu_factor", "scipy.linalg", "lu_factor"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.flag = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        # lgmres returns (x, info); info != 0 means it stopped unconverged
        flags_result = name == "scipy.lgmres"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.op.append(self._op)
            self.flag.append(0)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if flags_result:
                self.flag[idx] = result[1] != 0
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Replace every target by its traced wrapper."""
        affinehe_modules = [m for k, m in sys.modules.items()
                            if k == "affinehe" or k.startswith("affinehe.")]
        for name, module_name, path in TARGETS:
            module = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, attr, self._wrap(name, owner.__dict__[attr]))
                continue
            original = getattr(module, path)
            wrapped = self._wrap(name, original)
            self._patch(module, path, wrapped)
            for other in affinehe_modules:
                if other is not module:
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def begin_op(self, op_index: int) -> None:
        self._op = op_index

    # -- analysis -------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "flag": np.frombuffer(self.flag, dtype=np.int8),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, flagged calls, total and self seconds.

        Names in PARENT_SPLITS are also totalled over the spans whose parent
        is the given span, under "<name>@<parent>".
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child_time = np.bincount(a["parent"][has_parent],
                                 weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child_time
        parent_name = np.where(has_parent,
                               a["name"][np.maximum(a["parent"], 0)], -1)

        def totals(sel: np.ndarray) -> dict[str, float]:
            return {"calls": float(sel.sum()),
                    "flagged": float(a["flag"][sel].sum()),
                    "total_s": float(dur[sel].sum()),
                    "self_s": float(self_time[sel].sum())}

        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            out[name] = totals(sel)
            for parent in PARENT_SPLITS.get(name, ()):
                out[f"{name}@{parent}"] = totals(
                    sel & (parent_name == self._ids[parent]))
        return out


# spans whose totals are also reported per parent, as "<name>@<parent>"
PARENT_SPLITS = {
    "scipy.lgmres": ("continuation.solve_newton_direction",),
    "numpy.lstsq": ("continuation.solve_newton_direction",),
    "scipy.svdvals": ("gauduchon.find_gauduchon_factor",),
    "scipy.lu_factor": ("gauduchon.find_gauduchon_factor",),
}


def per_op(totals: dict[str, dict[str, float]], n_ops: int) -> dict[str, float]:
    """The per-operation layer metrics reported by the traced run."""

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0) / n_ops

    m: dict[str, float] = {}
    for name in ("torus.partial", "bundle.covariant_del0", "bundle.end_delbar",
                 "bundle.HermCalculus.eig", "bundle.HermCalculus.dlog",
                 "continuation.linearize_residual", "continuation.res_norm",
                 "gauduchon.apply_Q", "fields_io.dump_field"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
    for name in ("continuation.solve_newton_direction",
                 "continuation.newton_solve"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.total_s"] = get(name, "total_s")
    directions = get("continuation.solve_newton_direction", "calls")
    m["continuation.matvecs_per_direction"] = (
        get("continuation.linearize_residual", "calls") / directions
        if directions else 0.0)
    m["continuation.lgmres_unconverged.calls"] = get(
        "scipy.lgmres@continuation.solve_newton_direction", "flagged")
    m["continuation.dense_fallback.calls"] = get(
        "numpy.lstsq@continuation.solve_newton_direction", "calls")
    m["continuation.update.self_s"] = get("continuation.update", "self_s")
    m["continuation.normalize_background.total_s"] = get(
        "continuation.normalize_background", "total_s")
    m["gauduchon.find_gauduchon_factor.total_s"] = get(
        "gauduchon.find_gauduchon_factor", "total_s")
    m["gauduchon.svdvals.self_s"] = get(
        "scipy.svdvals@gauduchon.find_gauduchon_factor", "self_s")
    m["gauduchon.lu_factor.self_s"] = get(
        "scipy.lu_factor@gauduchon.find_gauduchon_factor", "self_s")
    m["destabilizer.destabilize.total_s"] = get(
        "destabilizer.destabilize", "total_s")
    return m
