"""Command-line surface: plan, compress, verify, bench, distill, report.

Exit codes: 0 success, 2 validation error, 3 numerical failure
(NaN / divergence / failed verification), 4 infeasible target. ``main``
maps a raised error to its code by the one ``EXIT_CODES`` table; any other
error is a program fault and keeps its traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import distill as kd
from .kron import FactorShape, dense_matvec_flops, kron_apply, kron_flops
from .model import (FactorizationError, factor_names, init_student_from_teacher,
                    model_from_store, model_to_store)
from .planner import (ArchSpec, CompressionPlan, PlanInfeasibleError, check_plan, count_flops,
                      count_params, flops_breakdown, json_field, make_plan, plan_for_ratio)
from .tensor import NamedTensorStore, ShapeError, StoreError, make_rng

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_INFEASIBLE = 4

FLOPS_CONVENTION = (
    "FLOPs convention: 1 multiply = 1, 1 add = 1; linear-layer matvecs and the "
    "factorized embedding reconstruction are counted; attention score/context "
    "matmuls and softmax (identical between dense and factorized models) are "
    "reported separately and excluded from the headline total; layernorm and "
    "GELU are excluded.")


def _load_plan(path: str, arch: ArchSpec) -> CompressionPlan:
    with open(path) as fh:
        d = json.load(fh)
    if isinstance(d, dict) and "attention_shape" in d:
        plan = CompressionPlan.from_json(d)
        check_plan(arch, plan)  # a full plan may be written for another architecture
        return plan
    # shorthand shapes file: {"attention": [m1, n1], "ffn1": [m1, n1], "embedding_n": n}
    return make_plan(arch, json_field(d, "attention", "plan", tuple),
                     json_field(d, "ffn1", "plan", tuple), json_field(d, "embedding_n", "plan"))


def _plan_report(arch: ArchSpec, plan: CompressionPlan, seq_len: int) -> list[str]:
    dense = count_params(arch)
    params = count_params(arch, plan)
    lines = [f"attention (m1,n1,m2,n2): {_fs(plan.attention_shape)}",
             f"ffn1      (m1,n1,m2,n2): {_fs(plan.ffn1_shape)}",
             f"ffn2      (m1,n1,m2,n2): {_fs(plan.ffn2_shape)}",
             f"embedding row length n : {plan.embedding_n}"]
    lines.append(f"parameters             : {params:,} ({params / 1e6:.2f}M)")
    lines.append(f"compression factor     : {dense / params:.2f}x vs dense {dense / 1e6:.2f}M")
    br = flops_breakdown(arch, plan, seq_len)
    lines.append(f"flops @ seq_len={seq_len}   : {br.total():,} "
                 f"(linear {br.linear:,}, embedding {br.embedding:,}; "
                 f"excluded: attention scores {br.attention_scores:,}, softmax {br.softmax:,})")
    lines.append(FLOPS_CONVENTION)
    return lines


def _fs(s: FactorShape) -> str:
    return f"{s.m1}, {s.n1}, {s.m2}, {s.n2}"


def cmd_plan(args) -> int:
    arch = ArchSpec.load(args.arch)
    if (args.ratio is None) == (args.shapes is None):
        print("plan: provide exactly one of --ratio or --shapes", file=sys.stderr)
        return EXIT_VALIDATION
    if args.shapes is not None:
        plan = _load_plan(args.shapes, arch)
    else:
        plan = plan_for_ratio(arch, args.ratio)
    payload = plan.to_json(arch, seq_len=args.seq_len)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(_plan_report(arch, plan, args.seq_len)))
    return EXIT_OK


def cmd_compress(args) -> int:
    arch = ArchSpec.load(args.arch)
    plan = _load_plan(args.plan, arch)
    teacher = model_from_store(NamedTensorStore.load(args.checkpoint), arch)
    student, results = init_student_from_teacher(teacher, plan)
    model_to_store(student).save(args.out)
    print(f"{'tensor':40s} {'relative residual':>17s} {'retained energy':>15s}")
    for name, res in results.items():
        # ||W|| = sigma / sqrt(retained energy): the NKP spectrum, which cannot overflow
        rel = res.residual * np.sqrt(res.retained_energy) / res.sigma if res.sigma else 0.0
        print(f"{name:40s} {rel:17.3e} {res.retained_energy:15.6f}")
    student_n, teacher_n = count_params(arch, plan), count_params(arch)
    print(f"entries without the task head: student {student_n:,}, teacher {teacher_n:,}, "
          f"compression factor {teacher_n / student_n:.2f}x")
    return EXIT_OK


def cmd_verify(args) -> int:
    store = NamedTensorStore.load(args.checkpoint)  # a StoreError is exit 2 in main()
    if args.arch:
        # a tensor that is missing, does not fit or is not used by the
        # architecture raises KeyError or ShapeError naming it; main()
        # reports either as exit 2
        model_from_store(store, ArchSpec.load(args.arch))
    if len(store) == 0:
        print("verify: empty checkpoint, vacuously passing (warning)")
        return EXIT_OK
    rng = make_rng(0)
    failures = []
    for name, m in store.items():
        if not np.all(np.isfinite(m)):
            failures.append(f"{name}: non-finite entries")
    names = set(store.names())
    bases = {n[:-2] for n in names if n.endswith((".a", ".b"))}
    if names & set(factor_names("embedding")):
        bases.add("embedding")
    for base in sorted(bases):
        a_name, b_name = factor_names(base)
        if b_name not in names:
            failures.append(f"{base}: factor A without matching B ({b_name} missing)")
            continue
        if a_name not in names:
            failures.append(f"{base}: factor B without matching A ({a_name} missing)")
            continue
        a = np.asarray(store[a_name], dtype=np.float64)
        b = np.asarray(store[b_name], dtype=np.float64)
        if base == "embedding":  # applied by row lookup, not as a matvec
            if b.shape[0] != 1:
                failures.append(f"{b_name} is {b.shape[0]}x{b.shape[1]}, expected a single row")
            continue
        x = rng.standard_normal(a.shape[1] * b.shape[1])
        got = kron_apply(a, b, x)
        want = np.kron(a, b) @ x
        scale = max(float(np.linalg.norm(want)), 1e-300)
        if np.linalg.norm(got - want) / scale > 1e-10:
            failures.append(f"{base}: factorized matvec disagrees with reconstruction")
    if failures:
        for f in failures:
            print(f"FAIL {f}")
        return EXIT_NUMERICAL
    print(f"verify: {len(store)} tensors OK")
    return EXIT_OK


def cmd_bench(args) -> int:
    arch = ArchSpec.load(args.arch)
    plan = _load_plan(args.plan, arch)
    rng = make_rng(0)
    dtype = np.float32 if args.dtype == "f32" else np.float64
    s = args.seq_len
    print(f"{'group':10s} {'path':6s} {'median_ms':>10s} {'iqr_ms':>10s} {'flops/vec':>12s}")
    for label, shape in check_plan(arch, plan).items():
        if label == "embedding":  # a row lookup, not a matvec
            continue
        rows, cols = shape.rows, shape.cols
        w = rng.standard_normal((rows, cols)).astype(dtype)
        a = rng.standard_normal((shape.m1, shape.n1)).astype(dtype)
        b = rng.standard_normal((shape.m2, shape.n2)).astype(dtype)
        x = rng.standard_normal((s, cols)).astype(dtype)  # one token per row, as in the model
        for path, fn, flops in (
                ("dense", lambda: x @ w.T, dense_matvec_flops(rows, cols)),
                ("kron", lambda: kron_apply(a, b, x), kron_flops(shape))):
            times = []
            fn()  # warm up
            for _ in range(50):
                t0 = time.perf_counter()
                fn()
                times.append((time.perf_counter() - t0) * 1e3)
            med = float(np.median(times))
            iqr = float(np.percentile(times, 75) - np.percentile(times, 25))
            print(f"{label:10s} {path:6s} {med:10.4f} {iqr:10.4f} {flops:12,}")
    print(FLOPS_CONVENTION)
    return EXIT_OK


def cmd_distill(args) -> int:
    arch = ArchSpec.load(args.arch)
    if arch.hidden > 256:
        print("distill: hidden size > 256 refused; full-scale training is out of "
              "scope, use a toy architecture", file=sys.stderr)
        return EXIT_VALIDATION
    plan = _load_plan(args.plan, arch)
    seed = args.seed
    if args.ablate:
        results = kd.run_ablation(arch, plan, seed=seed, student_steps=args.steps)
        print(f"{'pretrain':>9s} {'finetune':>9s} {'eval_ce':>9s} "
              f"{'logit_mse':>10s} {'accuracy':>9s}")
        for key, row in results["regimes"].items():
            print(f"{row['pretrain']:>9s} {row['finetune']:>9s} {row['ce']:9.4f} "
                  f"{row['teacher_logit_mse']:10.5f} {row['accuracy']:9.3f}")
        return EXIT_OK

    data_rng = make_rng(seed)
    data = kd.make_synthetic_task(arch, 256, min(8, arch.max_seq_len), data_rng)
    if args.teacher:
        teacher = model_from_store(NamedTensorStore.load(args.teacher), arch).freeze()
    else:
        teacher = kd.train_teacher(arch, data, seed, args.teacher_steps)
    t0 = time.perf_counter()
    student, _ = init_student_from_teacher(teacher, plan)
    history = kd.train(student, teacher, data,
                       kd.TrainConfig(stage=args.stage, steps=args.steps,
                                      lr=args.lr, seed=seed, clip=1.0))
    model_to_store(student).save(args.out)
    if args.history:
        kd.write_history(history, args.history)
    elapsed = time.perf_counter() - t0
    print(f"distill: {args.steps} steps ({args.stage}), "
          f"final total loss {history[-1]['total']:.6f}, {elapsed:.1f}s wall time")
    return EXIT_OK


def cmd_report(args) -> int:
    arch = ArchSpec.load(args.arch)
    rows = [("dense", None)]
    for path in args.shapes:
        rows.append((os.path.basename(path), _load_plan(path, arch)))
    dense = count_params(arch)
    print(f"{'model':24s} {'params':>14s} {'factor':>8s} {'flops@' + str(args.seq_len):>16s}")
    for label, plan in rows:
        p = count_params(arch, plan)
        fl = count_flops(arch, plan, args.seq_len)
        print(f"{label:24s} {p:14,} {dense / p:8.2f} {fl:16,}")
    print(FLOPS_CONVENTION)
    print("Parameter convention: every checkpoint entry of the architecture (segment "
          "embeddings and pooler per its flags) except the task head, which is not part of "
          "the compressed model; this config "
          + ("includes" if arch.has_biases else "excludes") + " bias vectors.")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kronekit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="choose factor shapes and report costs")
    p.add_argument("arch")
    p.add_argument("--ratio", type=float)
    p.add_argument("--shapes")
    p.add_argument("--seq-len", type=int, default=128)
    p.add_argument("--out")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("compress", help="replace dense weights by Kronecker factors")
    p.add_argument("checkpoint")
    p.add_argument("plan")
    p.add_argument("--arch", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_compress)

    p = sub.add_parser("verify", help="run the oracle checks on a checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("--arch")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="time dense vs factorized matmul paths")
    p.add_argument("plan")
    p.add_argument("--arch", required=True)
    p.add_argument("--seq-len", type=int, default=128)
    p.add_argument("--dtype", choices=("f32", "f64"), default="f64")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("distill", help="two-stage KD training at toy scale")
    p.add_argument("plan")
    p.add_argument("--arch", required=True)
    p.add_argument("--teacher", help="dense teacher checkpoint; trained fresh if omitted")
    p.add_argument("--teacher-steps", type=int, default=200)
    p.add_argument("--stage", choices=kd.STAGES, default="finetune_kd")
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="student.kts")
    p.add_argument("--history")
    p.add_argument("--ablate", action="store_true")
    p.set_defaults(fn=cmd_distill)

    p = sub.add_parser("report", help="parameter/FLOP reproduction tables")
    p.add_argument("--arch", required=True)
    p.add_argument("--shapes", nargs="*", default=[])
    p.add_argument("--seq-len", type=int, default=128)
    p.set_defaults(fn=cmd_report)
    return ap


# the value each numeric flag must exceed, checked before any command runs
FLAG_FLOORS = {"ratio": 1, "seq_len": 0, "steps": 0, "teacher_steps": -1, "seed": -1}

# the first match wins, so no key may subclass an earlier one
EXIT_CODES = {
    PlanInfeasibleError: EXIT_INFEASIBLE,
    kd.TrainDivergedError: EXIT_NUMERICAL,
    ShapeError: EXIT_VALIDATION,
    StoreError: EXIT_VALIDATION,
    OSError: EXIT_VALIDATION,
    json.JSONDecodeError: EXIT_VALIDATION,
    KeyError: EXIT_VALIDATION,
    FactorizationError: EXIT_VALIDATION,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for name, floor in FLAG_FLOORS.items():
        value = getattr(args, name, None)
        if value is not None and not floor < value < np.inf:
            print(f"{args.command}: --{name.replace('_', '-')} must be a finite number "
                  f"above {floor}, got {value:g}", file=sys.stderr)
            return EXIT_VALIDATION
    try:
        return args.fn(args)
    except tuple(EXIT_CODES) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
