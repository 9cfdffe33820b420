"""One workload in its own process: set up, run timed operations, check.

    python3 perfbench/workload.py SPEC --t0 T --seconds S [--setup-only] [--trace]

SPEC is the JSON file ``inputs.make_inputs`` returned; T is the monotonic
clock reading taken just before this process was started, so set-up time
covers interpreter start, imports, checkpoint load and model build. The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import time

import numpy as np

import inputs
import reference
import stats
from spans import Tracer

RTOL = 1e-8            # float64 agreement with the reference encoder
RESIDUAL_RTOL = 1e-9   # NKP residual against its recomputation and the SVD optimum
REPLAY_STEPS = 20
DISTILL_LR = 0.05      # the distill CLI's defaults
DISTILL_CLIP = 1.0


class Infer:
    """Each operation is one forward pass of a loaded model."""

    round_size = 1
    expected_failures: tuple[str, ...] = ()

    def __init__(self, spec: dict) -> None:
        from kronekit import model as km
        from kronekit.planner import ArchSpec
        from kronekit.tensor import NamedTensorStore
        self.km, self.spec = km, spec
        self.model = km.model_from_store(NamedTensorStore.load(spec["checkpoint"]),
                                         ArchSpec.from_json(spec["arch"]))
        self.model.freeze()  # inference: no weight requires grad
        self.ids = np.load(spec["arrays"])["ids"]
        self.logits: list[tuple[int, np.ndarray]] = []

    def kind(self, i: int) -> str:
        return "forward"

    def op(self, i: int) -> None:
        batch = i % len(self.ids)
        trace = self.km.forward(self.model, self.ids[batch])
        self.logits.append((batch, trace.logits.value.copy()))

    def check(self) -> tuple[list[str], dict]:
        tensors = inputs.read_kts(self.spec["checkpoint"])
        errors, refs = [], []
        for batch, ids in enumerate(self.ids):
            want = reference.encoder(tensors, self.spec["arch"], ids)
            got = self.km.forward(self.model, ids)
            pairs = [("embedding output", got.E.value, want["E"]),
                     ("logits", got.logits.value, want["logits"])]
            for i, (a, f) in enumerate(zip(want["attn_out"], want["ffn_out"])):
                pairs.append((f"layer {i} attention output", got.attn_out[i].value, a))
                pairs.append((f"layer {i} ffn output", got.ffn_out[i].value, f))
            errors += [f"batch {batch}: {name} differs from the reference encoder"
                       for name, g, w in pairs if not reference.close(g, w, RTOL)]
            refs.append(want["logits"])
        bad = sum(not reference.close(lg, refs[b], RTOL) for b, lg in self.logits)
        if bad:
            errors.append(f"{bad} timed forward passes gave wrong logits")
        return errors, {}


class Compress:
    """Each operation is one ``nearest_kronecker(W, shape)`` call with
    defaults; a round visits each tensor the spec lists once."""

    expected_failures = ("PowerIterationError",)

    def __init__(self, spec: dict) -> None:
        from kronekit import nkp
        from kronekit.kron import FactorShape
        from kronekit.tensor import NamedTensorStore
        self.nkp, self.spec = nkp, spec
        store = NamedTensorStore.load(spec["checkpoint"])
        self.tensors = [(name, kind, store[name], FactorShape(*shape))
                        for name, kind, shape in spec["tensors"]]
        self.round_size = len(self.tensors)
        self.results: dict[str, list] = {}

    def kind(self, i: int) -> str:
        return self.tensors[i % self.round_size][1]

    def op(self, i: int) -> None:
        name, _, w, shape = self.tensors[i % self.round_size]
        runs = self.results.setdefault(name, [])
        runs.append(None)  # stays None when NKP raises
        runs[-1] = self.nkp.nearest_kronecker(w, shape)

    def check(self) -> tuple[list[str], dict]:
        errors, worst = [], 0.0
        for name, _, w, shape in self.tensors:
            runs = self.results.get(name, [])
            done = [r for r in runs if r is not None]
            if done and len(done) != len(runs):
                errors.append(f"{name}: NKP failed on some rounds only")
            if not done:
                continue
            res = done[0]
            if any(r.residual != res.residual for r in done):
                errors.append(f"{name}: residual differs between rounds")
            direct = float(np.linalg.norm(w - np.kron(res.factors.a, res.factors.b)))
            if abs(res.residual - direct) > RESIDUAL_RTOL * direct:
                errors.append(f"{name}: reported residual {res.residual!r} != {direct!r}")
            optimum = reference.optimal_residual(w, tuple(shape.to_json().values()))
            ratio = res.residual / optimum
            worst = max(worst, ratio)
            if abs(ratio - 1.0) > RESIDUAL_RTOL:
                errors.append(f"{name}: residual is {ratio!r} x the SVD optimum")
        return errors, {"nkp.residual_ratio": worst}


class Distill:
    """Each operation is one ``finetune_kd`` training step."""

    round_size = 1
    expected_failures: tuple[str, ...] = ()

    def __init__(self, spec: dict) -> None:
        from kronekit import distill as kd
        from kronekit import model as km
        from kronekit.planner import ArchSpec, make_plan
        from kronekit.tensor import NamedTensorStore
        self.kd, self.km = kd, km
        arch = ArchSpec.from_json(spec["arch"])
        self.teacher = km.model_from_store(NamedTensorStore.load(spec["checkpoint"]), arch)
        self.teacher.freeze()
        sh = spec["shapes"]
        plan = make_plan(arch, tuple(sh["attention"]), tuple(sh["ffn1"]), int(sh["embedding_n"]))
        self.student, _ = km.init_student_from_teacher(
            self.teacher, plan, rng=np.random.default_rng(spec["seed"] + 2))
        self.proj = kd.make_projection(arch.hidden)
        a = np.load(spec["arrays"])
        self.data = (a["ids"], a["labels"])
        self.probe = (a["probe_ids"], a["probe_labels"])
        self.initial = {k: t.value.copy() for k, t in self._params().items()}
        self.probe_before = self.probe_loss()
        self.history: list[dict] = []

    def _params(self) -> dict:
        return {**self.student.parameters(), "projection.p": self.proj}

    def kind(self, i: int) -> str:
        return "step"

    def step(self, i: int) -> list[dict]:
        cfg = self.kd.TrainConfig(stage="finetune_kd", steps=1, lr=DISTILL_LR, seed=i,
                                  clip=DISTILL_CLIP)
        return self.kd.train(self.student, self.teacher, self.data, cfg, proj=self.proj)

    def op(self, i: int) -> None:
        self.history += self.step(i)

    def probe_loss(self) -> float:
        ids, labels = self.probe
        bundle = self.kd.kd_losses(self.km.forward(self.student, ids),
                                   self.km.forward(self.teacher, ids),
                                   proj=self.proj, labels=labels)
        return float(bundle.total.value)

    def check(self) -> tuple[list[str], dict]:
        errors = []
        if not all(math.isfinite(v) for row in self.history for v in row.values()):
            errors.append("a loss is not finite")
        after = self.probe_loss()
        if not after < self.probe_before:
            errors.append(f"probe KD loss did not fall: {self.probe_before!r} -> {after!r}")
        for name, t in self._params().items():
            t.value = self.initial[name].copy()
        replay = [row for i in range(min(REPLAY_STEPS, len(self.history))) for row in self.step(i)]
        if [json.dumps(r, sort_keys=True) for r in replay] != \
                [json.dumps(r, sort_keys=True) for r in self.history[:len(replay)]]:
            errors.append("replayed history is not byte-identical")
        return errors, {}


WORKLOAD_KINDS = {"infer": Infer, "compress": Compress, "distill": Distill}


def unexpected_failures(failures: dict[str, int], expected: tuple[str, ...]) -> list[str]:
    """Failures of any type but the workload's known fault are errors."""
    return [f"{n} operations failed with {key}" for key, n in failures.items()
            if key not in expected]


def run_phase(wl, first: int, seconds: float, tracer: Tracer | None = None) -> dict:
    """Whole rounds of operations until ``seconds`` have passed."""
    out = {"times_ms": [], "failed": [], "kinds": [], "failures": {}}
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    end = time.perf_counter() + seconds
    i = first
    while True:
        for _ in range(wl.round_size):
            k = i - first
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    wl.op(i)
                else:
                    tracer.run_op(k, lambda: wl.op(i))
                failed = False
            except Exception as exc:  # a failed operation is counted, not fatal
                failed = True
                key = type(exc).__name__
                out["failures"][key] = out["failures"].get(key, 0) + 1
            out["times_ms"].append((time.perf_counter() - t0) * 1e3)
            out["failed"].append(failed)
            out["kinds"].append(wl.kind(i))
            i += 1
        if time.perf_counter() >= end:
            out["minor_faults"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("spec")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    with open(args.spec) as fh:
        spec = json.load(fh)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    wl = WORKLOAD_KINDS[spec["kind"]](spec)
    if tracer is not None:
        tracer.uninstall()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return
    result = {"setup_s": setup_s}
    if tracer is None:
        phases = [run_phase(wl, 0, args.seconds)]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        untraced = run_phase(wl, 0, args.seconds / 2)
        tracer.install()
        traced = run_phase(wl, len(untraced["times_ms"]), args.seconds / 2, tracer)
        tracer.uninstall()
        phases = [untraced, traced]
        layers = tracer.layer_metrics(traced["kinds"], os.path.getsize(spec["checkpoint"]))
        layers["model.minor_faults_per_op"] = untraced["minor_faults"] / len(untraced["times_ms"])
        layers["trace.overhead_ms"] = (
            stats.summarize(traced["times_ms"], traced["failed"])["p50"]
            - stats.summarize(untraced["times_ms"], untraced["failed"])["p50"])
        result["layers"] = layers
    times = [t for p in phases for t in p["times_ms"]]
    failed = [f for p in phases for f in p["failed"]]
    failures: dict[str, int] = {}
    for p in phases:
        for key, n in p["failures"].items():
            failures[key] = failures.get(key, 0) + n
    errors, extra = wl.check()
    errors += unexpected_failures(failures, wl.expected_failures)
    if "layers" in result:
        result["layers"].update({"nkp.residual_ratio": 0.0, **extra})
    result.update(summary=stats.summarize(times, failed), failures=failures, errors=errors)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
