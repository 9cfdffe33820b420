"""Acceptance criteria, one test per criterion.

Each test prints a single ``CRITERION n: PASS|FAIL`` line so the suite output
doubles as the acceptance report. Tolerances are fixed here and must not be
widened; a failure means the library, not the test, needs investigating.
"""

import subprocess
import sys
import time

import numpy as np

from kronekit import distill as kd
from kronekit.kron import KronFactorPair, choose_order, kron_apply, kron_flops, kron_product
from kronekit.model import build_dense_model, forward, init_student_from_teacher
from kronekit.nkp import nearest_kronecker
from kronekit.planner import ArchSpec, count_flops, count_params, make_plan
from kronekit.tensor import make_rng

from conftest import config_path
from oracles import FlopCounter, kron_embed_oracle, kron_matvec_oracle
from test_model import exact_kron_model, toy_exact_kron_teacher

BERT = ArchSpec.load(config_path("bert_base.json"))
TOY = ArchSpec.load(config_path("toy.json"))
TOY_PLAN = make_plan(TOY, (16, 16), (8, 4), 4)
KRON8 = make_plan(BERT, (384, 384), (8, 2), 8)
KRON19 = make_plan(BERT, (384, 48), (16, 2), 12)


def report(n: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_matvec_oracle():
    rng = make_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        m1, n1, m2, n2 = rng.integers(1, 13, size=4)
        pair = KronFactorPair(rng.standard_normal((m1, n1)),
                              rng.standard_normal((m2, n2)))
        x = rng.standard_normal(pair.cols)
        got = kron_apply(pair.a, pair.b, x)
        want = kron_product(pair) @ x
        scale = max(float(np.linalg.norm(want)), 1e-300)
        worst = max(worst, float(np.linalg.norm(got - want)) / scale)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 5.0
    report(1, ok, f"1000 shapes, max rel error {worst:.2e} (<1e-10), {elapsed:.2f}s (<5s)")


def test_criterion_2_flops_model_exact():
    rng = make_rng(102)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        m1, n1, m2, n2 = rng.integers(1, 9, size=4)
        pair = KronFactorPair(rng.standard_normal((m1, n1)),
                              rng.standard_normal((m2, n2)))
        s = pair.shape
        x = rng.standard_normal(s.cols)
        b_first = (2 * s.n2 - 1) * s.m2 * s.n1 + (2 * s.n1 - 1) * s.m2 * s.m1
        a_first = (2 * s.n1 - 1) * s.n2 * s.m1 + (2 * s.n2 - 1) * s.m2 * s.m1
        for order, formula in (("b_first", b_first), ("a_first", a_first)):
            counter = FlopCounter()
            kron_matvec_oracle(pair.a, pair.b, x, order, counter)
            if counter.total != formula:
                mismatches += 1
        counter = FlopCounter()
        kron_matvec_oracle(pair.a, pair.b, x, choose_order(s), counter)
        if counter.total != kron_flops(s):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5.0
    report(2, ok, f"200 shapes x both branches, {mismatches} count mismatches "
                  f"(=0), {elapsed:.2f}s (<5s)")


def test_criterion_3_compression_factors():
    dense = count_params(BERT)
    f8 = dense / count_params(BERT, KRON8)
    f19 = dense / count_params(BERT, KRON19)
    ok = abs(f8 - 7.7) <= 0.2 and abs(f19 - 19.3) <= 0.2
    report(3, ok, f"compression factors {f8:.3f} (7.7+-0.2) and {f19:.3f} (19.3+-0.2)")


def test_criterion_4_parameter_counts():
    targets = [(None, 108.5e6), (KRON8, 14.3e6), (KRON19, 5.7e6)]
    got = [count_params(BERT, plan) for plan, _ in targets]
    ok = all(abs(g - t) <= 0.02 * t for g, (_, t) in zip(got, targets))
    report(4, ok, "params {:.2f}M / {:.2f}M / {:.2f}M vs 108.5M / 14.3M / 5.7M "
                  "(+-2%)".format(*[g / 1e6 for g in got]))


def test_criterion_5_flop_counts():
    targets = [(None, 22e9), (KRON8, 5.5e9), (KRON19, 1.4e9)]
    got = [count_flops(BERT, plan, 128) for plan, _ in targets]
    ok = all(abs(g - t) <= 0.15 * t for g, (_, t) in zip(got, targets))
    report(5, ok, "flops@128 {:.2f}B / {:.2f}B / {:.2f}B vs 22B / 5.5B / 1.4B "
                  "(+-15%)".format(*[g / 1e9 for g in got]))


def test_criterion_6_nkp_exact_recovery():
    rng = make_rng(106)
    worst_res, worst_rec = 0.0, 0.0
    for _ in range(100):
        m1, n1, m2, n2 = rng.integers(1, 9, size=4)
        pair = KronFactorPair(rng.standard_normal((m1, n1)),
                              rng.standard_normal((m2, n2)))
        w = kron_product(pair)
        norm = max(float(np.linalg.norm(w)), 1e-300)
        res = nearest_kronecker(w, pair.shape)
        worst_res = max(worst_res, res.residual / norm)
        rec = float(np.linalg.norm(kron_product(res.factors) - w)) / norm
        worst_rec = max(worst_rec, rec)
    ok = worst_res < 1e-9 and worst_rec < 1e-9
    report(6, ok, f"100 exact products, worst residual {worst_res:.2e} and "
                  f"reconstruction error {worst_rec:.2e} (<1e-9)")


def test_criterion_7_forward_equivalence():
    teacher = toy_exact_kron_teacher(seed=107)
    student = exact_kron_model(teacher, TOY_PLAN)
    rng = make_rng(109)
    worst = 0.0
    for _ in range(50):
        ids = rng.integers(0, TOY.vocab_size, size=(1, int(rng.integers(2, 9))))
        t, s = forward(teacher, ids), forward(student, ids)
        tensors = [t.E, *t.attn_scores, *t.attn_out, *t.ffn_out, t.logits]
        for a, b in zip(tensors, [s.E, *s.attn_scores, *s.attn_out, *s.ffn_out, s.logits]):
            worst = max(worst, float(np.abs(a.value - b.value).max()))
    ok = worst < 1e-10
    report(7, ok, f"50 inputs, max trace deviation {worst:.2e} (<1e-10)")


def test_criterion_8_embedding_cost():
    rng = make_rng(110)
    teacher = build_dense_model(TOY, rng)
    student, _ = init_student_from_teacher(teacher, TOY_PLAN, rng=rng)
    tokens = rng.integers(0, TOY.vocab_size, size=13)
    counter = FlopCounter()
    kron_embed_oracle(student.embedding.table.value, student.embedding.row.value,
                      tokens, counter)
    ok = counter.mults == len(tokens) * TOY.hidden and counter.adds == 0
    report(8, ok, f"{counter.mults} multiplies for {len(tokens)} tokens "
                  f"(= {len(tokens)} x d={TOY.hidden}), {counter.adds} adds (=0)")


def test_criterion_9_gradient_check():
    rng = make_rng(111)
    teacher = build_dense_model(TOY, rng).freeze()
    student, _ = init_student_from_teacher(teacher, TOY_PLAN, rng=rng)
    proj = kd.make_projection(TOY.hidden)
    ids = rng.integers(0, TOY.vocab_size, size=(2, 4))
    labels = rng.integers(0, TOY.num_classes, size=2)
    tt = forward(teacher, ids)

    def loss_value() -> float:
        bundle = kd.kd_losses(forward(student, ids), tt, proj=proj, labels=labels)
        return float(bundle.total.value)

    params = dict(student.parameters())
    params["projection.p"] = proj
    bundle = kd.kd_losses(forward(student, ids), tt, proj=proj, labels=labels)
    grads = kd.grad(bundle.total, params)

    h, tol = 1e-5, 1e-4
    failures, checked = 0, 0
    worst = 0.0
    for name in sorted(params):
        flat = params[name].value.reshape(-1)
        g = grads[name].reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = loss_value()
            flat[i] = keep - h
            down = loss_value()
            flat[i] = keep
            fd = (up - down) / (2.0 * h)
            rel = abs(g[i] - fd) / max(abs(fd), 1e-4)
            worst = max(worst, rel)
            checked += 1
            if rel > tol:
                failures += 1
    ok = failures == 0
    report(9, ok, f"{checked} parameter entries across {len(params)} tensors, "
                  f"{failures} beyond 1e-4 rel (worst {worst:.2e})")


def test_criterion_10_kd_efficacy_and_ordering():
    start = time.perf_counter()
    results = kd.run_ablation(TOY, TOY_PLAN, seed=0)
    elapsed = time.perf_counter() - start
    r = results["regimes"]
    kd_kd, none_none = r["kd/kd"], r["none/no_kd"]
    beats_no_kd = (kd_kd["teacher_logit_mse"] < none_none["teacher_logit_mse"]
                   and kd_kd["ce"] < none_none["ce"])
    both_kd_best = all(kd_kd["ce"] <= row["ce"] for row in r.values())
    ok = beats_no_kd and both_kd_best and elapsed < 60.0
    ces = ", ".join(f"{k}={v['ce']:.4f}" for k, v in r.items())
    report(10, ok, f"eval CE: {ces}; kd/kd beats no-KD on CE and logit MSE "
                   f"({kd_kd['teacher_logit_mse']:.4f} < "
                   f"{none_none['teacher_logit_mse']:.4f}), {elapsed:.1f}s (<60s)")


def test_criterion_11_deterministic_history(tmp_path):
    def run(tag: str) -> bytes:
        hist = tmp_path / f"history_{tag}.jsonl"
        out = tmp_path / f"student_{tag}.kts"
        cmd = [sys.executable, "-m", "kronekit.cli", "distill",
               config_path("toy_shapes.json"), "--arch", config_path("toy.json"),
               "--teacher-steps", "20", "--steps", "10", "--seed", "7",
               "--out", str(out), "--history", str(hist)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return hist.read_bytes()

    first, second = run("a"), run("b")
    ok = first == second and len(first) > 0
    report(11, ok, f"two distill runs, history files byte-identical "
                   f"({len(first)} bytes)")
