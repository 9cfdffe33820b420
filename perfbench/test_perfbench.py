"""Fast self-tests of the benchmark: percentile and sample-count rule,
failure counting, and the form of BENCHMARK.json.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import inputs
import run
import stats
import workload

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_nearest_rank_percentile():
    assert stats.percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
    assert stats.percentile(list(range(1, 101)), 0.9) == 90
    assert stats.percentile([5.0], 0.999) == 5.0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_tail_needs_ten_samples_beyond_it():
    assert stats.tail_share(39) is None
    assert stats.tail_share(40) == 0.75
    assert stats.tail_share(99) == 0.75
    assert stats.tail_share(100) == 0.9
    assert stats.tail_share(1000) == 0.99
    assert stats.tail_share(10_000) == 0.999


def test_failed_operations_rank_slowest():
    s = stats.summarize([1.0, 2.0, 0.5], [False, False, True])
    assert s["n"] == 3 and s["failed"] == 1
    assert s["p50"] == 2.0  # the fast failure ranks above both successes
    assert "tail" not in s
    s = stats.summarize([1.0] * 20 + [2.0] * 20, [False] * 39 + [True])
    assert s["tail_p"] == 0.75 and s["tail"] == 2.0
    assert math.isinf(stats.summarize([1.0, 1.0], [True, True])["p50"])


class _Flaky:
    """Rounds of three operations; the second raises the expected error and
    the third an unexpected one on every round."""

    round_size = 3

    def kind(self, i):
        return "k"

    def op(self, i):
        if i % 3 == 1:
            raise ArithmeticError("expected")
        if i % 3 == 2:
            raise KeyError("unexpected")


def test_run_phase_counts_failures_in_whole_rounds():
    out = workload.run_phase(_Flaky(), 0, 0.0)
    assert len(out["times_ms"]) == 3
    assert out["failed"] == [False, True, True]
    assert out["failures"] == {"ArithmeticError": 1, "KeyError": 1}
    assert workload.unexpected_failures(out["failures"], ("ArithmeticError",)) == [
        "1 operations failed with KeyError"]
    assert workload.unexpected_failures({"PowerIterationError": 2},
                                        workload.Compress.expected_failures) == []


def test_benchmark_json_form():
    spec = json.loads(BENCHMARK.read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert {n: m["unit"] for n, m in e2e.items()} == run.END_TO_END
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and m["better"] == "lower"
        assert 0 < m["bound"] <= 0.25
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and m["better"] in ("lower", "higher")
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in spec[group]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert len(BENCHMARK.read_bytes()) <= 64 * 1024


def test_trace_reports_every_per_layer_metric():
    from spans import Tracer
    metrics = Tracer().layer_metrics([], load_bytes=0)
    metrics.update({"model.minor_faults_per_op": 0.0, "trace.overhead_ms": 0.0,
                    "nkp.residual_ratio": 0.0})
    assert set(metrics) == set(run.PER_LAYER)


def test_tracer_records_spans_and_restores_the_program():
    sys.path.insert(0, str(ROOT / "src"))
    from kronekit import model as km
    from kronekit.planner import ArchSpec
    from spans import Tracer
    arch = ArchSpec.load(ROOT / "configs" / "toy.json")
    model = km.build_dense_model(arch, np.random.default_rng(0))
    ids = np.zeros((2, 4), dtype=np.int64)
    before = (km.forward, km.KronWeight.apply, km.ad.Tensor.__init__)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.run_op(0, lambda: km.forward(model, ids))
    finally:
        tracer.uninstall()
    assert (km.forward, km.KronWeight.apply, km.ad.Tensor.__init__) == before
    s = tracer.arrays()
    names = [tracer.names[i] for i in s["name"]]
    assert names[:2] == ["op", "model.forward"]
    assert names.count("model.attention_forward") == arch.layers
    assert np.all(s["self"] >= -1e-9) and np.all(s["self"] <= s["dur"] + 1e-12)
    assert abs(s["self"].sum() - s["dur"][0]) < 1e-9  # self times tile the root span
    m = tracer.layer_metrics(["forward"], load_bytes=0)
    assert m["autodiff.nodes_per_op"] > 0 and m["autodiff.layer_norm_ms"] > 0
    assert m["model.kron_apply_ms"] == 0.0  # a dense model never enters KronWeight.apply


def test_kts_writer_is_read_back_by_the_program(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from kronekit.tensor import NamedTensorStore
    tensors = {"embedding.dense": np.arange(6.0).reshape(2, 3), "head.bias": np.ones((1, 2))}
    inputs.write_kts(tmp_path / "m.kts", tensors)
    store = NamedTensorStore.load(tmp_path / "m.kts")
    assert store.names() == list(tensors)
    for name, m in inputs.read_kts(tmp_path / "m.kts").items():
        assert np.array_equal(store[name], m) and np.array_equal(m, tensors[name])


def test_dense_weights_come_from_the_fixed_draw(tmp_path):
    """The teacher's weights are the same for every --seed; the rest is not."""
    ckpts = []
    for seed in (1, 2):
        out = tmp_path / str(seed)
        out.mkdir()
        spec = inputs.make_inputs(run.WORKLOADS["distill_toy"], seed, ROOT, out)
        ckpts.append(inputs.read_kts(spec["checkpoint"]))
    a, b = ckpts
    assert a.keys() == b.keys()
    for name in a:
        fixed = name.endswith(".dense") or name in ("embedding.position", "head.bias")
        assert np.array_equal(a[name], b[name]) == fixed, name
