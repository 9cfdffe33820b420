"""End-to-end benchmark of kronekit: compressed inference, NKP compression
and distillation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The inputs are made from the seed, each
workload runs in a fresh process with at most two BLAS threads, and the last
line of standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

WORKLOADS = {
    "infer_batch_kron8": {"kind": "infer", "plan": "kron8", "batch": 8, "seq": 128},
    "infer_long_kron19": {"kind": "infer", "plan": "kron19", "batch": 1, "seq": 384},
    "compress_kron19": {"kind": "compress", "plan": "kron19"},
    "distill_toy": {"kind": "distill"},
}
# Not gated: the same functions as the infer_* students with every factor
# pair multiplied out, for the dense-versus-Kronecker comparison.
REFERENCE_WORKLOADS = {
    "infer_batch_dense": dict(WORKLOADS["infer_batch_kron8"], dense=True),
    "infer_long_dense": dict(WORKLOADS["infer_long_kron19"], dense=True),
}

END_TO_END = {"op_ms_p50": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "model.kron_apply_ms": "ms", "model.kron_apply_gflop_s": "GFLOP/s",
    "autodiff.gelu_ms": "ms", "autodiff.layer_norm_ms": "ms", "autodiff.add_ms": "ms",
    "autodiff.softmax_ms": "ms", "model.attention_self_ms": "ms", "model.ffn_self_ms": "ms",
    "model.embed_ms": "ms", "model.unfactorized_share": "share",
    "model.minor_faults_per_op": "faults/op", "autodiff.nodes_per_op": "nodes/op",
    "autodiff.backward_ms": "ms", "distill.forward_ms": "ms", "distill.losses_ms": "ms",
    "distill.update_ms": "ms", "nkp.embedding_ms": "ms", "nkp.attention_ms": "ms",
    "nkp.ffn1_ms": "ms", "nkp.ffn2_ms": "ms", "nkp.iterations_per_tensor": "iterations",
    "nkp.residual_ratio": "ratio", "tensor.load_ms": "ms", "tensor.load_mb_per_s": "MB/s",
    "trace.overhead_ms": "ms",
}

SETUP_PROBES = 3       # set-up-only processes before and again after the timed one;
                       # setup_s is the median of all 7 set-ups
RUN_DEADLINE_S = 170   # a whole run, set-ups included, ends within this


def blas_threads() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def run_child(spec_path: Path, deadline: float, *extra: str) -> dict:
    """Start one workload process, killed at the monotonic ``deadline``, and
    return the JSON object it printed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads())
    cmd = [sys.executable, str(HERE / "workload.py"), str(spec_path),
           "--t0", repr(time.monotonic()), *extra]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def result_line(child: dict, metrics: dict, units: dict) -> str:
    s = child["summary"]
    return json.dumps({
        "correct": not child["errors"],
        "attempted": s["n"], "failed": s["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted({**WORKLOADS, **REFERENCE_WORKLOADS}))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (ROOT / "src" / "kronekit" / "__init__.py").is_file() \
            or not (ROOT / "configs").is_dir():
        print(f"run.py: no kronekit sources under {ROOT}; run it from a full checkout",
              file=sys.stderr)
        return 2
    workload = {**WORKLOADS, **REFERENCE_WORKLOADS}[args.workload]
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        out = Path(tmp)
        spec = inputs.make_inputs(workload, args.seed, ROOT, out)
        spec_path = out / "spec.json"
        spec_path.write_text(json.dumps(spec))
        seconds = ["--seconds", str(args.seconds)]
        if args.trace:
            child = run_child(spec_path, deadline, *seconds, "--trace")
            metrics, units = child["layers"], PER_LAYER
        else:
            def probes():
                return [run_child(spec_path, deadline, "--setup-only")["setup_s"]
                        for _ in range(SETUP_PROBES)]
            setups = probes()
            child = run_child(spec_path, deadline, *seconds)
            setups += [child["setup_s"], *probes()]
            metrics = {"op_ms_p50": child["summary"]["p50"],
                       "setup_s": statistics.median(setups),
                       "peak_rss_mb": child["peak_rss_mb"]}
            units = END_TO_END
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    if bad:  # more than half the operations failed: there is no median time
        print(f"run.py: {', '.join(bad)} not finite; failures {child['failures']}",
              file=sys.stderr)
        return 3
    s = child["summary"]
    print(f"{args.workload} seed {args.seed}: {s['n']} operations, {s['failed']} failed "
          f"{child['failures'] or ''}, BLAS threads {blas_threads()}")
    tail = (f"p{s['tail_p'] * 100:g} {s['tail']:.3f} ms" if "tail" in s
            else "no tail below 40 samples")
    print(f"  op time: median {s['p50']:.3f} ms, {tail}, n={s['n']}")
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]:14.6g} {unit}")
    for err in child["errors"]:
        print(f"  CHECK FAILED: {err}")
    print(result_line(child, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
