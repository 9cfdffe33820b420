import argparse
import json
import struct
from dataclasses import asdict, replace

import numpy as np
import pytest

from kronekit import cli
from kronekit.cli import EXIT_CODES, FLAG_FLOORS, build_parser, main
from kronekit.distill import TrainDivergedError
from kronekit.model import (FactorizationError, build_dense_model, forward,
                            init_student_from_teacher,
                            model_from_store, model_to_store)
from kronekit.planner import ArchSpec, CompressionPlan, PlanInfeasibleError
from kronekit.tensor import BadMagicError, NamedTensorStore, ShapeError, make_rng

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
    for argv in (["compress", str(teacher_store), str(plan), "--arch", TOY_ARCH,
                  "--out", str(out)],
                 ["distill", str(plan), "--arch", TOY_ARCH, "--teacher", str(teacher_store),
                  "--steps", "1", "--out", str(out)],
                 ["plan", TOY_ARCH, "--shapes", str(plan), "--out", str(out)],
                 ["report", "--arch", TOY_ARCH, "--shapes", str(plan)],
                 ["bench", str(plan), "--arch", TOY_ARCH]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "plan ffn1 shape is 128x32" in captured.err and captured.out == ""
        assert not out.exists()


def test_plan_for_another_arch_is_validation_error(tmp_path, capsys):
    toy_plan = tmp_path / "toy_plan.json"
    assert main(["plan", TOY_ARCH, "--shapes", TOY_SHAPES, "--out", str(toy_plan)]) == 0
    capsys.readouterr()
    for argv in (["plan", BERT_ARCH, "--shapes", str(toy_plan)],
                 ["report", "--arch", BERT_ARCH, "--shapes", str(toy_plan)],
                 ["bench", str(toy_plan), "--arch", BERT_ARCH]):
        assert main(argv) == 2
        assert ("plan attention shape is 32x32, the architecture's weight is 768x768"
                in capsys.readouterr().err)


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


def test_verify_empty_store_against_arch_is_validation_error(tmp_path, capsys):
    empty = tmp_path / "empty.kts"
    NamedTensorStore().save(empty)
    assert main(["verify", str(empty), "--arch", TOY_ARCH]) == 2
    assert "checkpoint is missing tensor 'embedding.dense'" in capsys.readouterr().err


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


def _kts_headers(data: bytes) -> list[tuple[int, int]]:
    """(header start, payload start) of each tensor of a KTS1 file."""
    (count,), off, out = struct.unpack_from("<H", data, 4), 6, []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, off)
        code, rows, cols = struct.unpack_from("<BII", data, off + 2 + name_len)
        out.append((off, off + 2 + name_len + 9))
        off = out[-1][1] + rows * cols * (8 if code == 0 else 4)
    return out


def test_corrupt_checkpoints_end_in_an_exit_code(tmp_path, teacher_store, capsys):
    # each byte of the file header and of the first two tensor headers set
    # to 0x00, set to 0xFF and with bit 0 flipped; one weight made huge but
    # finite; and truncations. Every run must end in 0, 2 or 3, never raise.
    data = teacher_store.read_bytes()
    headers = _kts_headers(data)
    (_, first_payload), (second, second_payload) = headers[:2]
    variants = {}
    for i in [*range(first_payload), *range(second, second_payload)]:
        for label, byte in (("0x00", 0), ("0xFF", 0xFF), ("bit0", data[i] ^ 1)):
            variants[f"byte {i} {label}"] = data[:i] + bytes([byte]) + data[i + 1:]
    for n in (0, 3, 5, 7, first_payload - 1, first_payload + 8, second + 3, len(data) - 1):
        variants[f"first {n} bytes"] = data[:n]
    w2 = NamedTensorStore.load(teacher_store).names().index("layer.0.ffn.w2.dense")
    top = headers[w2][1] + 7  # the top byte of its first little-endian float64
    huge = data[:top] + b"\x7f" + data[top + 1:]
    variants["huge weight"] = huge
    path, out = tmp_path / "corrupt.kts", tmp_path / "x.kts"
    path.write_bytes(huge)
    assert 1e300 < abs(NamedTensorStore.load(path)["layer.0.ffn.w2.dense"][0, 0]) < np.inf
    for label, variant in variants.items():
        path.write_bytes(variant)
        for argv in (["verify", str(path)], ["verify", str(path), "--arch", TOY_ARCH],
                     ["compress", str(path), TOY_SHAPES, "--arch", TOY_ARCH, "--out", str(out)]):
            assert main(argv) in (0, 2, 3), (label, argv)
    path.write_bytes(huge)
    assert main(["distill", TOY_SHAPES, "--arch", TOY_ARCH, "--teacher", str(path),
                 "--steps", "1", "--out", str(out)]) in (0, 2, 3)


def test_bench_runs(capsys):
    assert main(["bench", TOY_SHAPES, "--arch", TOY_ARCH, "--seq-len", "4",
                 "--dtype", "f32"]) == 0
    out = capsys.readouterr().out
    assert "dense" in out and "kron" in out and "median_ms" in out


@pytest.mark.parametrize("argv", [
    ["bench", TOY_SHAPES, "--arch", TOY_ARCH, "--seq-len", "-1"],
    ["bench", TOY_SHAPES, "--arch", TOY_ARCH, "--seq-len", "0"],
    ["plan", TOY_ARCH, "--ratio", "4", "--seq-len", "0"],
    ["report", "--arch", TOY_ARCH, "--seq-len", "-3"],
    ["distill", TOY_SHAPES, "--arch", TOY_ARCH, "--steps", "-1"],
    ["distill", TOY_SHAPES, "--arch", TOY_ARCH, "--steps", "0"],
    ["distill", TOY_SHAPES, "--arch", TOY_ARCH, "--teacher-steps", "-1"],
    ["distill", TOY_SHAPES, "--arch", TOY_ARCH, "--seed", "-1"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}")
def test_numeric_flag_out_of_range_is_validation_error(argv, tmp_path, teacher_store, capsys):
    out = tmp_path / "student.kts"
    if argv[0] == "distill":
        argv = [*argv, "--teacher", str(teacher_store), "--out", str(out)]
    assert main(argv) == 2
    flag = next(a for a in argv
                if a in ("--seq-len", "--steps", "--teacher-steps", "--seed"))
    assert f"{argv[0]}: {flag} must be a finite number above" in capsys.readouterr().err
    assert not out.exists()


def test_flag_floors_name_parser_options():
    # main() reads each floor with getattr(args, name, None), so a key that
    # is no option's dest would check nothing
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for p in subparsers.choices.values() for a in p._actions}
    assert set(FLAG_FLOORS) <= dests


@pytest.mark.parametrize("exc, code", [
    (PlanInfeasibleError(9.0, 4.0), 4),
    (TrainDivergedError(3, None), 3),
    (ShapeError("bad shape"), 2),
    (BadMagicError("not a KTS file"), 2),
    (FileNotFoundError("no such file"), 2),
    (json.JSONDecodeError("bad json", "{", 1), 2),
    (KeyError("layer.0.attn.wq.dense"), 2),
    (FactorizationError("factor initialization failed"), 2),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
def test_main_maps_each_error_to_its_exit_code(monkeypatch, capsys, exc, code):
    def fail(args):
        raise exc
    monkeypatch.setattr(cli, "cmd_report", fail)
    assert main(["report", "--arch", TOY_ARCH]) == code
    assert capsys.readouterr().err == f"report: {exc}\n"


@pytest.mark.parametrize("kind", [ZeroDivisionError, ValueError, RuntimeError])
def test_main_lets_program_faults_propagate(monkeypatch, kind):
    def fail(args):
        raise kind("a program fault")
    monkeypatch.setattr(cli, "cmd_report", fail)
    with pytest.raises(kind):
        main(["report", "--arch", TOY_ARCH])


def test_exit_codes_first_match_shadows_nothing():
    # main() takes the first key the error is an instance of, so a subclass
    # listed after its base (TrainDivergedError after RuntimeError) would get
    # the base's code
    kinds = list(EXIT_CODES)
    for i, later in enumerate(kinds):
        assert not any(issubclass(later, earlier) for earlier in kinds[:i]), later
    assert not {Exception, ValueError, RuntimeError} & set(kinds)


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


def test_compress_huge_finite_weight_factors(tmp_path, capsys):
    # a dominant singular value above about 1.3e154 overflowed sigma ** 2
    store = model_to_store(build_dense_model(ArchSpec.load(TOY_ARCH), make_rng(0)))
    store["layer.0.ffn.w2.dense"][0, 0] = 1e200
    path = tmp_path / "teacher.kts"
    store.save(path)
    assert main(["compress", str(path), TOY_SHAPES, "--arch", TOY_ARCH,
                 "--out", str(tmp_path / "x.kts")]) == 0
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("layer.0.ffn.w2.dense"))
    _, relative_residual, retained_energy = row.split()
    assert 0 < float(retained_energy) <= 1
    # ||W|| overflows float64, so it must come from the NKP spectrum
    assert 0 < float(relative_residual) < np.inf


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
    toy = asdict(ArchSpec.load(TOY_ARCH))
    no_layers = {k: v for k, v in toy.items() if k != "layers"}
    for payload, message in (
            (no_layers, "arch: missing field 'layers'"),
            (toy | {"hidden": "32"}, "arch: field 'hidden' must be a positive integer, got '32'"),
            (toy | {"heads": 0}, "field 'heads' must be a positive integer"),
            (toy | {"has_biases": "false"}, "field 'has_biases' must be true or false"),
            (toy | {"has_layernorm": False}, "field 'has_layernorm' must be true, got False"),
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
    arch_path.write_text(json.dumps(asdict(arch)))
    teacher = build_dense_model(arch, make_rng(0))
    dense_path, out = tmp_path / "dense.kts", tmp_path / "compressed.kts"
    model_to_store(teacher).save(dense_path)
    assert main(["plan", str(arch_path), "--shapes", config_path(shapes),
                 "--out", str(plan_path)]) == 0
    assert main(["compress", str(dense_path), str(plan_path), "--arch", str(arch_path),
                 "--out", str(out)]) == 0
    compressed_line = capsys.readouterr().out.splitlines()[-1]
    # the measured size is what report counts for the same arch and plan
    assert main(["report", "--arch", str(arch_path), "--shapes", str(plan_path)]) == 0
    _, params, factor, _ = capsys.readouterr().out.splitlines()[2].split()
    assert compressed_line.startswith(f"entries without the task head: student {params}, ")
    assert compressed_line.endswith(f"compression factor {factor}x")
    # and the entries of the written file, less the task head, are that count too
    written = sum(m.size for name, m in NamedTensorStore.load(out).items()
                  if not name.startswith("head."))
    assert f"{written:,}" == params
    assert main(["verify", str(out), "--arch", str(arch_path)]) == 0
    capsys.readouterr()
    # the CLI writes exactly what the library path writes
    plan = CompressionPlan.from_json(json.loads(plan_path.read_text()))
    student, _ = init_student_from_teacher(teacher, plan)
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
