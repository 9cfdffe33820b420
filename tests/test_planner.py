import itertools
import json
from dataclasses import asdict, replace

import pytest

from kronekit import cli
from kronekit.kron import FactorShape, dense_matvec_flops, kron_flops
from kronekit.model import build_dense_model, init_student_from_teacher, model_to_store
from kronekit.planner import (ArchSpec, CompressionPlan, PlanInfeasibleError,
                              count_flops, count_params, enumerate_shapes,
                              flops_breakdown, make_plan, plan_for_ratio, swap_shape)
from kronekit.tensor import ShapeError, make_rng

from conftest import config_path

BERT = ArchSpec.load(config_path("bert_base.json"))
TOY = ArchSpec.load(config_path("toy.json"))
# BERT width with a segment table, a pooler and no biases, as bert_base.json
BERT_1 = replace(BERT, layers=1, vocab_size=512)


def bert_plan(attention, ffn1, n):
    return make_plan(BERT, attention, ffn1, n)


def test_arch_spec_round_trip_and_validation():
    assert ArchSpec.from_json(asdict(BERT)) == BERT
    assert BERT.head_dim == 64
    with pytest.raises(ShapeError):
        ArchSpec(vocab_size=10, hidden=10, layers=1, heads=3, ffn_dim=10, max_seq_len=8)


def test_swap_shape():
    assert swap_shape(FactorShape(8, 2, 384, 384)) == FactorShape(2, 8, 384, 384)


def test_make_plan_derives_inner_dims():
    plan = bert_plan((384, 384), (8, 2), 8)
    assert plan.attention_shape == FactorShape(384, 384, 2, 2)
    assert plan.ffn1_shape == FactorShape(8, 2, 384, 384)
    assert plan.ffn2_shape == FactorShape(2, 8, 384, 384)
    assert plan.embedding_n == 8


def test_make_plan_divisibility_errors():
    with pytest.raises(ShapeError):
        make_plan(BERT, (5, 384), (8, 2), 8)
    with pytest.raises(ShapeError):
        make_plan(BERT, (384, 384), (8, 2), 7)


def test_compression_plan_json_round_trip(tmp_path):
    plan = bert_plan((384, 384), (8, 2), 8)
    d = plan.to_json(BERT, seq_len=128)
    assert CompressionPlan.from_json(d) == plan
    assert d["total_params"] == count_params(BERT, plan)
    assert d["total_flops"] == count_flops(BERT, plan, 128)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(d))
    assert cli._load_plan(path, BERT) == plan


def test_enumerate_shapes_counts():
    assert enumerate_shapes(1, 1) == [FactorShape(1, 1, 1, 1)]
    assert len(enumerate_shapes(4, 4)) == 9  # 3 divisors each side
    assert len(enumerate_shapes(6, 1)) == 4


def test_enumerate_shapes_sorted_and_complete():
    shapes = enumerate_shapes(12, 8)
    flops = [kron_flops(s) for s in shapes]
    assert flops == sorted(flops)
    for s in shapes:
        assert s.m1 * s.m2 == 12 and s.n1 * s.n2 == 8
    assert FactorShape(384, 384, 2, 2) in enumerate_shapes(768, 768)


def test_enumerate_shapes_validation():
    with pytest.raises(ShapeError):
        enumerate_shapes(0, 4)


# ------------------------------------------------------------------- params

@pytest.fixture(scope="module")
def teachers():
    return {"toy": build_dense_model(TOY, make_rng(0)),
            "bert_1": build_dense_model(BERT_1, make_rng(0))}


@pytest.mark.parametrize("arch_name, shapes", [
    ("toy", None), ("toy", "toy_shapes.json"), ("bert_1", None),
    ("bert_1", "kron8_shapes.json"), ("bert_1", "kron19_shapes.json")])
def test_count_params_equals_checkpoint_entries(teachers, arch_name, shapes):
    # the count is the entries of the model's own checkpoint less the task head
    model, plan = teachers[arch_name], None
    if shapes is not None:
        with open(config_path(shapes)) as fh:
            s = json.load(fh)
        plan = make_plan(model.arch, s["attention"], s["ffn1"], s["embedding_n"])
        model, _ = init_student_from_teacher(model, plan)
    entries = sum(m.size for name, m in model_to_store(model).items()
                  if not name.startswith("head."))
    assert count_params(model.arch, plan) == entries


def test_count_params_reference_totals():
    # toy: embedding, position, embedding LN, then per layer the weights,
    # biases and two LNs; no segment table, no pooler, no head
    d, f = 32, 64
    assert count_params(TOY) == 64 * d + 16 * d + 2 * d + 2 * (
        4 * d * d + 2 * f * d + 4 * d + f + d + 4 * d)

    # dense: 30522*768 + 512*768 + 2*768 + 2*768 + 12*(4*768^2 + 2*3072*768
    # + 4*768) + 768^2 (bias-free accounting per the config flags)
    assert count_params(BERT) == 109_398_528
    assert count_params(BERT, bert_plan((384, 384), (8, 2), 8)) == 14_570_504
    assert count_params(BERT, bert_plan((384, 48), (16, 2), 12)) == 5_632_908


# -------------------------------------------------------------------- flops

def test_flops_breakdown_dense_by_hand():
    d, f, s = TOY.hidden, TOY.ffn_dim, 4
    br = flops_breakdown(TOY, None, s)
    per_token = 4 * dense_matvec_flops(d, d) + dense_matvec_flops(f, d) \
        + dense_matvec_flops(d, f)
    assert br.linear == TOY.layers * s * per_token
    assert br.embedding == 0
    assert br.total() == br.linear


def test_flops_factorized_embedding_cost():
    plan = make_plan(TOY, (16, 16), (8, 4), 4)
    br = flops_breakdown(TOY, plan, 8)
    assert br.embedding == TOY.hidden * 8  # one multiply per reconstructed element


def test_flops_validation():
    with pytest.raises(ShapeError):
        count_flops(TOY, None, 0)


def test_count_flops_reference_totals():
    assert count_flops(BERT, None, 128) == 21_732_655_104
    k8 = count_flops(BERT, bert_plan((384, 384), (8, 2), 8), 128)
    k19 = count_flops(BERT, bert_plan((384, 48), (16, 2), 12), 128)
    assert k8 == 5_474_844_672
    assert k19 == 1_403_289_600


# -------------------------------------------------------------- plan search

def brute_force_best(arch, target):
    """Exhaustive search over all plans; mirrors plan_for_ratio's objective."""
    dense = count_params(arch)
    best = None
    d, f = arch.hidden, arch.ffn_dim
    atts = enumerate_shapes(d, d)
    ffns = enumerate_shapes(f, d)
    ns = [n for n in range(1, d + 1) if d % n == 0]
    for att, ffn1, n in itertools.product(atts, ffns, ns):
        plan = CompressionPlan(att, ffn1, swap_shape(ffn1), n)
        if dense / count_params(arch, plan) < target:
            continue
        key = (count_flops(arch, plan, 1), count_params(arch, plan),
               (att.m1, att.n1), (ffn1.m1, ffn1.n1), n)
        if best is None or key < best[0]:
            best = (key, plan)
    return None if best is None else best[1]


def test_plan_for_ratio_meets_target_and_is_optimal():
    for target in (2.0, 5.0, 8.0):
        plan = plan_for_ratio(TOY, target)
        assert count_params(TOY) / count_params(TOY, plan) >= target
        assert plan == brute_force_best(TOY, target)


def test_plan_for_ratio_deterministic():
    assert plan_for_ratio(TOY, 4.0) == plan_for_ratio(TOY, 4.0)


def test_plan_for_ratio_infeasible():
    with pytest.raises(PlanInfeasibleError) as err:
        plan_for_ratio(TOY, 1e9)
    assert err.value.max_achievable < 1e9
    # the reported maximum is itself achievable
    plan = plan_for_ratio(TOY, err.value.max_achievable * 0.999)
    assert count_params(TOY) / count_params(TOY, plan) >= err.value.max_achievable * 0.999


def test_plan_for_ratio_validation():
    with pytest.raises(ValueError):
        plan_for_ratio(TOY, 1.0)
