import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from kronekit.cli import main
from kronekit.model import (build_dense_model, forward, init_student_from_teacher,
                            model_from_store, model_to_store)
from kronekit.planner import ArchSpec, CompressionPlan
from kronekit.tensor import NamedTensorStore, make_rng

from conftest import config_path

TOY_ARCH = config_path("toy.json")
TOY_SHAPES = config_path("toy_shapes.json")
BERT_ARCH = config_path("bert_base.json")


@pytest.fixture
def teacher_store(tmp_path):
    model = build_dense_model(ArchSpec.load(TOY_ARCH), make_rng(0))
    path = tmp_path / "teacher.kts"
    model_to_store(model).save(path)
    return path


def test_plan_shapes_text_and_json(tmp_path, capsys):
    out = tmp_path / "plan.json"
    assert main(["plan", BERT_ARCH, "--shapes", config_path("kron8_shapes.json"),
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "compression factor" in text and "FLOPs convention" in text
    saved = json.loads(out.read_text())
    assert saved["attention_shape"] == {"m1": 384, "n1": 384, "m2": 2, "n2": 2}
    assert main(["plan", BERT_ARCH, "--shapes", config_path("kron8_shapes.json"),
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_params"] == saved["total_params"]


def test_plan_ratio_and_infeasible(capsys):
    assert main(["plan", TOY_ARCH, "--ratio", "4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["compression_factor"] >= 4
    assert main(["plan", TOY_ARCH, "--ratio", "1000"]) == 4
    assert main(["plan", TOY_ARCH]) == 2                      # neither flag
    assert main(["plan", TOY_ARCH, "--ratio", "4", "--shapes", TOY_SHAPES]) == 2


@pytest.mark.parametrize("ratio", ["1", "0.5", "-3", "nan"])
def test_plan_ratio_not_above_one_is_validation_error(ratio, capsys):
    assert main(["plan", TOY_ARCH, "--ratio", ratio]) == 2
    assert "--ratio" in capsys.readouterr().err


def test_plan_missing_config_is_validation_error():
    assert main(["plan", "/nonexistent/arch.json", "--ratio", "2"]) == 2


def test_compress_then_verify(tmp_path, teacher_store, capsys):
    out = tmp_path / "compressed.kts"
    assert main(["compress", str(teacher_store), TOY_SHAPES,
                 "--arch", TOY_ARCH, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "relative residual" in text and "retained energy" in text
    store = NamedTensorStore.load(out)
    assert "embedding.table" in store and "embedding.row" in store
    assert "layer.0.attn.wq.a" in store and "layer.0.attn.wq.b" in store
    assert "layer.0.attn.bq" in store  # biases pass through untouched
    assert main(["verify", str(out), "--arch", TOY_ARCH]) == 0
    assert "OK" in capsys.readouterr().out
    for argv in (["compress", str(out), TOY_SHAPES, "--arch", TOY_ARCH],
                 ["distill", TOY_SHAPES, "--arch", TOY_ARCH, "--teacher", str(out)]):
        assert main(argv + ["--out", str(tmp_path / "again.kts")]) == 2
        assert "teacher must be dense" in capsys.readouterr().err


def test_compress_shape_mismatch(tmp_path, teacher_store):
    bad = tmp_path / "bad_shapes.json"
    bad.write_text(json.dumps({"attention": [16, 16], "ffn1": [8, 4], "embedding_n": 4}))
    # the toy teacher fits this plan; break it by using the bert shapes file
    assert main(["compress", str(teacher_store), config_path("kron8_shapes.json"),
                 "--arch", TOY_ARCH, "--out", str(tmp_path / "x.kts")]) == 2


def test_compress_rejects_tensors_the_arch_does_not_use(tmp_path, capsys):
    path = tmp_path / "three_layers.kts"
    arch = replace(ArchSpec.load(TOY_ARCH), layers=3)
    model_to_store(build_dense_model(arch, make_rng(0))).save(path)
    out = tmp_path / "x.kts"
    assert main(["compress", str(path), TOY_SHAPES, "--arch", TOY_ARCH,
                 "--out", str(out)]) == 2
    assert "checkpoint tensor 'layer.2.attn.wq.dense' is not used" in capsys.readouterr().err
    assert not out.exists()


def test_plan_group_not_fitting_arch_is_validation_error(tmp_path, teacher_store, capsys):
    # full-form plan whose ffn1 is 128x32 where the toy FFN1 weight is 64x32
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "attention_shape": {"m1": 16, "n1": 16, "m2": 2, "n2": 2},
        "ffn1_shape": {"m1": 8, "n1": 4, "m2": 16, "n2": 8},
        "ffn2_shape": {"m1": 4, "n1": 8, "m2": 8, "n2": 8},
        "embedding_n": 4}))
    out = tmp_path / "x.kts"
    for argv in (["compress", str(teacher_store), str(plan), "--arch", TOY_ARCH],
                 ["distill", str(plan), "--arch", TOY_ARCH, "--teacher", str(teacher_store),
                  "--steps", "1"]):
        assert main(argv + ["--out", str(out)]) == 2
        assert "plan ffn1 shape is 128x32" in capsys.readouterr().err
        assert not out.exists()


def test_compress_non_finite_weight_is_validation_error(tmp_path, capsys):
    for bad in (float("nan"), float("inf")):
        store = model_to_store(build_dense_model(ArchSpec.load(TOY_ARCH), make_rng(0)))
        store["layer.0.ffn.w2.dense"][0, 0] = bad
        path = tmp_path / "teacher.kts"
        store.save(path)
        assert main(["compress", str(path), TOY_SHAPES, "--arch", TOY_ARCH,
                     "--out", str(tmp_path / "x.kts")]) == 2
        err = capsys.readouterr().err
        assert "layer.0.ffn.w2.dense" in err and "non-finite" in err


def test_verify_corrupt_name_is_validation_error(tmp_path, teacher_store, capsys):
    data = bytearray(teacher_store.read_bytes())
    data[4 + 2 + 2] = 0xFF  # first byte of the first tensor name
    teacher_store.write_bytes(bytes(data))
    assert main(["verify", str(teacher_store), "--arch", TOY_ARCH]) == 2
    assert "tensor name at byte 8 is not valid UTF-8" in capsys.readouterr().err


def test_verify_duplicate_name_is_validation_error(tmp_path, capsys):
    store = NamedTensorStore()
    store.add("aa", np.zeros((1, 2)))
    store.add("ab", np.ones((1, 2)))
    path = tmp_path / "dup.kts"
    store.save(path)
    data = path.read_bytes()
    second = data.index(b"ab")
    path.write_bytes(data[:second] + b"aa" + data[second + 2:])
    assert main(["verify", str(path)]) == 2
    assert f"duplicate tensor name 'aa' at byte {second}" in capsys.readouterr().err


@pytest.mark.parametrize("target, edit, message", [
    ("layer.0.attn.bq", lambda m: m[:, :-1], "layer.0.attn.bq is 1x31, expected 1x32"),
    ("head.weight", None, "checkpoint is missing tensor 'head.weight'")])
def test_verify_checkpoint_not_fitting_arch_is_validation_error(tmp_path, capsys,
                                                                target, edit, message):
    store = model_to_store(build_dense_model(ArchSpec.load(TOY_ARCH), make_rng(0)))
    broken = NamedTensorStore()
    for name, m in store.items():
        if name != target:
            broken.add(name, m)
        elif edit is not None:
            broken.add(name, edit(m))
    path = tmp_path / "broken.kts"
    broken.save(path)
    assert main(["verify", str(path), "--arch", TOY_ARCH]) == 2
    assert message in capsys.readouterr().err


def test_verify_embedding_row_must_be_one_row(tmp_path, teacher_store, capsys):
    # 32x8 (x) 2x4 multiplies out to the 64x32 embedding, but no lookup
    # of such a pair works
    out = tmp_path / "compressed.kts"
    assert main(["compress", str(teacher_store), TOY_SHAPES, "--arch", TOY_ARCH,
                 "--out", str(out)]) == 0
    store = NamedTensorStore()
    for name, m in NamedTensorStore.load(out).items():
        store.add(name, {"embedding.table": np.ones((32, 8)),
                         "embedding.row": np.ones((2, 4))}.get(name, m))
    store.save(out)
    capsys.readouterr()
    assert main(["verify", str(out), "--arch", TOY_ARCH]) == 2
    captured = capsys.readouterr()
    assert "embedding.row is 2x4, expected a single row" in captured.err
    assert "tensors OK" not in captured.out


@pytest.mark.parametrize("present, message", [("a", "factor A without matching B"),
                                              ("b", "factor B without matching A")])
def test_verify_reports_orphan_factor(tmp_path, capsys, present, message):
    store = NamedTensorStore()
    store.add(f"x.{present}", np.ones((2, 2)))
    path = tmp_path / "orphan.kts"
    store.save(path)
    assert main(["verify", str(path)]) == 3
    assert f"FAIL x: {message}" in capsys.readouterr().out


@pytest.mark.parametrize("tensors, message", [
    ({"embedding.row": np.ones((1, 4))},
     "FAIL embedding: factor B without matching A (embedding.table missing)"),
    ({"embedding.table": np.ones((64, 8))},
     "FAIL embedding: factor A without matching B (embedding.row missing)"),
    ({"embedding.table": np.ones((64, 8)), "embedding.row": np.ones((2, 4))},
     "FAIL embedding.row is 2x4, expected a single row"),
], ids=["lone-row", "lone-table", "two-rows"])
def test_verify_checks_embedding_pair_without_arch(tmp_path, capsys, tensors, message):
    store = NamedTensorStore()
    for name, m in tensors.items():
        store.add(name, m)
    path = tmp_path / "embedding.kts"
    store.save(path)
    assert main(["verify", str(path)]) == 3
    out = capsys.readouterr().out
    assert message in out and "tensors OK" not in out


def test_verify_reports_tensors_the_arch_does_not_use(tmp_path, capsys):
    arch = ArchSpec.load(TOY_ARCH)
    path = tmp_path / "three_layers.kts"
    model_to_store(build_dense_model(replace(arch, layers=3), make_rng(0))).save(path)
    assert main(["verify", str(path), "--arch", TOY_ARCH]) == 2
    captured = capsys.readouterr()
    assert "checkpoint tensor 'layer.2.attn.wq.dense' is not used" in captured.err
    assert "tensors OK" not in captured.out


def test_verify_detects_corruption(tmp_path, teacher_store, capsys):
    out = tmp_path / "compressed.kts"
    main(["compress", str(teacher_store), TOY_SHAPES, "--arch", TOY_ARCH,
          "--out", str(out)])
    store = NamedTensorStore.load(out)
    data = bytearray(out.read_bytes())
    # plant a NaN in the payload of the first .b factor tensor
    target = next(n for n in store.names() if n.endswith(".b"))
    off = 4 + 2
    for name in store.names():
        m = store[name]
        off += 2 + len(name.encode()) + 9
        if name == target:
            data[off:off + 8] = struct.pack("<d", float("nan"))
            break
        off += m.size * m.dtype.itemsize
    out.write_bytes(bytes(data))
    assert main(["verify", str(out), "--arch", TOY_ARCH]) == 3
    assert "non-finite" in capsys.readouterr().out


def test_verify_empty_store_vacuous(tmp_path, capsys):
    empty = tmp_path / "empty.kts"
    NamedTensorStore().save(empty)
    assert main(["verify", str(empty)]) == 0
    assert "vacuously" in capsys.readouterr().out


def test_verify_bad_file_is_validation_error(tmp_path):
    junk = tmp_path / "junk.kts"
    junk.write_bytes(b"not a checkpoint at all")
    assert main(["verify", str(junk)]) == 2
    assert main(["verify", str(tmp_path / "missing.kts")]) == 2


def test_directory_paths_are_validation_errors(tmp_path, teacher_store, capsys):
    for argv in (["verify", str(tmp_path)],
                 ["compress", str(tmp_path), TOY_SHAPES, "--arch", TOY_ARCH,
                  "--out", str(tmp_path / "x.kts")],
                 ["compress", str(teacher_store), TOY_SHAPES, "--arch", TOY_ARCH,
                  "--out", str(tmp_path)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{argv[0]}: ") and str(tmp_path) in err


def test_bench_runs(capsys):
    assert main(["bench", TOY_SHAPES, "--arch", TOY_ARCH, "--iters", "2",
                 "--seq-len", "4", "--dtype", "f32"]) == 0
    out = capsys.readouterr().out
    assert "dense" in out and "kron" in out and "median_ms" in out


@pytest.mark.parametrize("iters", ["0", "-2"])
def test_bench_non_positive_iters_is_validation_error(iters, capsys):
    assert main(["bench", TOY_SHAPES, "--arch", TOY_ARCH, "--iters", iters]) == 2
    assert "--iters" in capsys.readouterr().err


def test_distill_refuses_large_arch(capsys):
    assert main(["distill", config_path("kron8_shapes.json"),
                 "--arch", BERT_ARCH]) == 2
    assert "toy" in capsys.readouterr().err


def test_distill_writes_student_and_history(tmp_path, teacher_store, capsys):
    out = tmp_path / "student.kts"
    hist = tmp_path / "history.jsonl"
    assert main(["distill", TOY_SHAPES, "--arch", TOY_ARCH,
                 "--teacher", str(teacher_store), "--steps", "3", "--lr", "0.01",
                 "--out", str(out), "--history", str(hist)]) == 0
    assert "final total loss" in capsys.readouterr().out
    store = NamedTensorStore.load(out)
    assert "embedding.table" in store
    rows = [json.loads(line) for line in hist.read_text().splitlines()]
    assert [r["step"] for r in rows] == [0, 1, 2]
    assert all(np.isfinite(r["total"]) for r in rows)


def test_distill_non_finite_teacher_is_validation_error(tmp_path, capsys):
    store = model_to_store(build_dense_model(ArchSpec.load(TOY_ARCH), make_rng(0)))
    store["layer.0.ffn.w2.dense"][0, 0] = float("inf")
    path = tmp_path / "teacher.kts"
    store.save(path)
    assert main(["distill", TOY_SHAPES, "--arch", TOY_ARCH, "--teacher", str(path),
                 "--steps", "1", "--out", str(tmp_path / "student.kts")]) == 2
    err = capsys.readouterr().err
    assert "layer.0.ffn.w2" in err and "non-finite" in err
    assert not (tmp_path / "student.kts").exists()


def test_report_table(capsys):
    assert main(["report", "--arch", BERT_ARCH,
                 "--shapes", config_path("kron8_shapes.json"),
                 config_path("kron19_shapes.json")]) == 0
    out = capsys.readouterr().out
    assert "dense" in out and "kron8_shapes.json" in out
    assert "FLOPs convention" in out and "excludes bias vectors" in out


def test_invalid_plan_json_is_validation_error(tmp_path, teacher_store, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["plan", TOY_ARCH, "--shapes", str(bad)]) == 2
    full = {"attention_shape": {"m1": 16, "n1": 16, "m2": 2, "n2": 2},
            "ffn1_shape": {"m1": 8, "n1": 4, "m2": 8, "n2": 8},
            "ffn2_shape": {"m1": 4, "n1": 8, "m2": 8, "n2": 8}, "embedding_n": 4}
    for payload, message in (
            ({"attention": [16, 16]}, "missing field 'ffn1'"),
            ({"attention": [16, 16], "ffn1": [8], "embedding_n": 4}, "field 'ffn1' must be"),
            ({"attention": [16, 0], "ffn1": [8, 4], "embedding_n": 4}, "field 'attention'"),
            ([16, 16], "expected a JSON object, got list"),
            (full | {"embedding_n": "4"}, "field 'embedding_n' must be"),
            (full | {"ffn2_shape": [4, 8, 8, 8]}, "field 'ffn2_shape' must be an object"),
            (full | {"ffn1_shape": {"m1": 8, "n1": 4, "m2": 8}}, "missing field 'n2'")):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(payload))
        assert main(["plan", TOY_ARCH, "--shapes", str(plan)]) == 2
        assert message in capsys.readouterr().err
        assert main(["compress", str(teacher_store), str(plan), "--arch", TOY_ARCH,
                     "--out", str(tmp_path / "x.kts")]) == 2
        assert message in capsys.readouterr().err


def test_invalid_arch_json_is_validation_error(tmp_path, capsys):
    toy = ArchSpec.load(TOY_ARCH).to_json()
    no_layers = {k: v for k, v in toy.items() if k != "layers"}
    for payload, message in (
            (no_layers, "arch: missing field 'layers'"),
            (toy | {"hidden": "32"}, "arch: field 'hidden' must be a positive integer, got '32'"),
            (toy | {"heads": 0}, "field 'heads' must be a positive integer"),
            (toy | {"has_biases": "false"}, "field 'has_biases' must be true or false"),
            ([toy], "arch: expected a JSON object, got list")):
        arch = tmp_path / "arch.json"
        arch.write_text(json.dumps(payload))
        assert main(["plan", str(arch), "--ratio", "2"]) == 2
        assert message in capsys.readouterr().err


def _multiplied_out(store: NamedTensorStore) -> NamedTensorStore:
    """The checkpoint with every Kronecker factor pair replaced by its product."""
    out = NamedTensorStore()
    for name, m in store.items():
        if name == "embedding.table":
            out.add("embedding.dense", np.kron(m, store["embedding.row"]))
        elif name.endswith(".a"):
            out.add(f"{name[:-2]}.dense", np.kron(m, store[f"{name[:-2]}.b"]))
        elif name != "embedding.row" and not name.endswith(".b"):
            out.add(name, m)
    return out


@pytest.mark.parametrize("shapes", ["kron8_shapes.json", "kron19_shapes.json"])
def test_pipeline_at_bert_width(tmp_path, capsys, shapes):
    arch = replace(ArchSpec.load(BERT_ARCH), layers=1, vocab_size=512)
    arch_path, plan_path = tmp_path / "arch.json", tmp_path / "plan.json"
    arch_path.write_text(json.dumps(arch.to_json()))
    teacher = build_dense_model(arch, make_rng(0))
    dense_path, out = tmp_path / "dense.kts", tmp_path / "compressed.kts"
    model_to_store(teacher).save(dense_path)
    assert main(["plan", str(arch_path), "--shapes", config_path(shapes),
                 "--out", str(plan_path)]) == 0
    assert main(["compress", str(dense_path), str(plan_path), "--arch", str(arch_path),
                 "--out", str(out)]) == 0
    assert main(["verify", str(out), "--arch", str(arch_path)]) == 0
    capsys.readouterr()
    # the CLI writes exactly what the library path writes
    student, _ = init_student_from_teacher(teacher, CompressionPlan.load(plan_path))
    model_to_store(student).save(tmp_path / "library.kts")
    assert out.read_bytes() == (tmp_path / "library.kts").read_bytes()
    # factorized forward vs the forward of the multiplied-out factors (criterion 7's bound)
    compressed = NamedTensorStore.load(out)
    factorized = model_from_store(compressed, arch).freeze()
    reconstructed = model_from_store(_multiplied_out(compressed), arch).freeze()
    ids = make_rng(1).integers(0, arch.vocab_size, size=(2, 8))
    t, r = forward(factorized, ids), forward(reconstructed, ids)
    worst = max(float(np.abs(a.value - b.value).max()) for a, b in zip(
        [t.E, *t.attn_scores, *t.attn_out, *t.ffn_out, t.logits],
        [r.E, *r.attn_scores, *r.attn_out, *r.ffn_out, r.logits], strict=True))
    assert worst < 1e-10
