"""The benchmark (``perfbench/``) reads kronekit names that no other caller
pins down: the span targets, ``init_student_from_teacher(..., rng=)``,
``NkpResult.iterations`` and the like. One short traced run of each workload
kind reaches all of them, through both the untraced and the traced half."""

import importlib.util
import json
import subprocess
import sys

import pytest

from conftest import ROOT


@pytest.mark.parametrize("workload", ["infer_long_kron19", "infer_batch_kron8", "compress_kron19",
                                      "distill_toy"])
def test_benchmark_workload_runs_correctly(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0


def test_every_span_target_names_a_kronekit_function():
    # the tracer replaces each target by name, so a rename in kronekit must
    # fail here rather than only in the traced runs above
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, path in spans.TARGETS:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert attr in vars(owner), f"{module}.{path}"
