"""Spans recorded around the public functions of the kronekit modules.

The tracer wraps each target from outside the program: it replaces the
function (or method) in every kronekit module that holds it and puts the
original back on ``uninstall``. Each call records a span (name, start, end,
parent, op) into flat arrays kept in memory until the run ends; per-layer
metrics are computed from them afterwards.
"""

from __future__ import annotations

import array
import functools
import importlib
import math
import sys
import time

import numpy as np

# (module, attribute path) of every wrapped public function. Span names are
# the attribute paths prefixed with the short module name.
TARGETS = (
    ("kronekit.tensor", "NamedTensorStore.load"),
    ("kronekit.nkp", "nearest_kronecker"),
    ("kronekit.autodiff", "Tensor.__add__"),
    ("kronekit.autodiff", "Tensor.backward"),
    ("kronekit.autodiff", "gelu"),
    ("kronekit.autodiff", "layer_norm"),
    ("kronekit.autodiff", "softmax_last"),
    ("kronekit.model", "forward"),
    ("kronekit.model", "embed"),
    ("kronekit.model", "attention_forward"),
    ("kronekit.model", "ffn_forward"),
    ("kronekit.model", "KronWeight.apply"),
    ("kronekit.model", "DenseWeight.apply"),
    ("kronekit.distill", "train"),
    ("kronekit.distill", "kd_losses"),
)

OP = "op"


def span_name(module: str, path: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{path}"


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = [OP] + [span_name(m, p) for m, p in TARGETS]
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name_id = array.array("H")
        self.parent = array.array("q")
        self.op = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counts: dict[str, float] = {}
        self.current_op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- recording

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float) -> None:
        """Add to a counter; only work inside timed operations counts."""
        if self.current_op >= 0:
            self.counts[key] = self.counts.get(key, 0.0) + amount

    def run_op(self, index: int, fn):
        """Run one timed operation under a root span."""
        self.current_op = index
        idx = self._open(0)
        try:
            return fn()
        finally:
            self._close(idx)
            self.current_op = -1

    # ----------------------------------------------------------- patching

    def _wrap(self, name: str, fn, counter=None):
        name_id = self._ids[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                counter(self, args, result)
            return result
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        from kronekit.kron import kron_flops
        counters = {
            "model.KronWeight.apply": lambda t, a, r: t.count(
                "kron_flops", kron_flops(a[0].shape) * math.prod(a[1].shape[:-1])),
            "nkp.nearest_kronecker": lambda t, a, r: (t.count("nkp_iterations", r.iterations),
                                                      t.count("nkp_converged", 1)),
        }
        targets = [(importlib.import_module(m), m, p) for m, p in TARGETS]
        modules = [m for n, m in sys.modules.items()
                   if n == "kronekit" or n.startswith("kronekit.")]
        for owner, mod_name, path in targets:
            name = span_name(mod_name, path)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self._wrap(name, raw.__func__,
                                                              counters.get(name))))
            elif isinstance(owner, type):
                self._set(owner, attr, self._wrap(name, raw, counters.get(name)))
            else:
                wrapped = self._wrap(name, raw, counters.get(name))
                for mod in modules:  # every module that imported the function by name
                    for key, val in list(vars(mod).items()):
                        if val is raw:
                            self._set(mod, key, wrapped)
        from kronekit.autodiff import Tensor
        init = Tensor.__init__

        def counted_init(obj, *args, **kwargs):
            self.count("tensors", 1)
            init(obj, *args, **kwargs)
        self._set(Tensor, "__init__", counted_init)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # ------------------------------------------------------------ analysis

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy columns plus self time (duration minus the part
        its child spans cover)."""
        name_id = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        op = np.array(self.op, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {"name": name_id, "parent": parent, "op": op, "dur": dur,
                "self": dur - child}

    def layer_metrics(self, op_kinds: list[str], load_bytes: int) -> dict[str, float]:
        """Per-layer metrics of the traced operations 0..len(op_kinds)-1 and
        of the checkpoint load (``load_bytes`` long) during set-up.

        Times are medians over operations of the time one operation spent
        in a layer; a layer the workload never enters reads 0.
        """
        s = self.arrays()
        n_ops = len(op_kinds)
        kinds = np.asarray(op_kinds)
        in_op = s["op"] >= 0

        def per_op(name: str, col: str = "dur", mask=None) -> np.ndarray:
            sel = in_op & (s["name"] == self._ids[name])
            if mask is not None:
                sel &= mask
            return np.bincount(s["op"][sel], weights=s[col][sel], minlength=n_ops)

        def med_ms(name: str, col: str = "dur", mask=None, kind: str | None = None) -> float:
            vals = per_op(name, col, mask)
            if kind is not None:
                vals = vals[kinds == kind]
            return float(np.median(vals)) * 1e3 if vals.size else 0.0

        def total(name: str) -> float:
            return float(per_op(name).sum())

        def ratio(num: float, den: float) -> float:
            return num / den if den > 0 else 0.0

        parent_name = np.where(s["parent"] >= 0, s["name"][s["parent"]], -1)
        under_train = parent_name == self._ids["distill.train"]
        weights = total("model.KronWeight.apply") + total("model.DenseWeight.apply")
        load = (s["op"] < 0) & (s["name"] == self._ids["tensor.NamedTensorStore.load"])
        load_s = float(s["dur"][load].sum())
        c = self.counts
        return {
            "model.kron_apply_ms": med_ms("model.KronWeight.apply"),
            "model.kron_apply_gflop_s": ratio(c.get("kron_flops", 0.0) / 1e9,
                                              total("model.KronWeight.apply")),
            "autodiff.gelu_ms": med_ms("autodiff.gelu"),
            "autodiff.layer_norm_ms": med_ms("autodiff.layer_norm"),
            "autodiff.add_ms": med_ms("autodiff.Tensor.__add__"),
            "autodiff.softmax_ms": med_ms("autodiff.softmax_last"),
            "model.attention_self_ms": med_ms("model.attention_forward", "self"),
            "model.ffn_self_ms": med_ms("model.ffn_forward", "self"),
            "model.embed_ms": med_ms("model.embed"),
            "model.unfactorized_share": ratio(
                total("model.forward") - weights - total("model.embed"), total("model.forward")),
            "autodiff.nodes_per_op": ratio(c.get("tensors", 0.0), n_ops),
            "autodiff.backward_ms": med_ms("autodiff.Tensor.backward"),
            "distill.forward_ms": med_ms("model.forward", mask=under_train),
            "distill.losses_ms": med_ms("distill.kd_losses"),
            "distill.update_ms": med_ms("distill.train", "self"),
            "nkp.embedding_ms": med_ms("nkp.nearest_kronecker", kind="embedding"),
            "nkp.attention_ms": med_ms("nkp.nearest_kronecker", kind="attention"),
            "nkp.ffn1_ms": med_ms("nkp.nearest_kronecker", kind="ffn1"),
            "nkp.ffn2_ms": med_ms("nkp.nearest_kronecker", kind="ffn2"),
            "nkp.iterations_per_tensor": ratio(c.get("nkp_iterations", 0.0),
                                               c.get("nkp_converged", 0.0)),
            "tensor.load_ms": load_s * 1e3,
            "tensor.load_mb_per_s": ratio(load_bytes / 1e6, load_s),
        }
