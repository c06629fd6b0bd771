"""Tests of the benchmark's tracer, checks and metric lists.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from gradgate import cli, detector, gradfeat, nn  # noqa: E402
from gradgate.config import ExperimentConfig  # noqa: E402


def bindings() -> dict:
    """Every attribute of every loaded gradgate module, plus Classifier.forward."""
    found = {(m.__name__, attr): obj for m in tracer_mod._gradgate_modules()
             for attr, obj in vars(m).items()}
    found[("gradgate.nn.Classifier", "forward")] = vars(nn.Classifier)["forward"]
    return found


def tiny_config(out: Path) -> ExperimentConfig:
    return ExperimentConfig(out_dir=str(out), master_seed=3, dataset_count=200, epochs=1,
                            iterations=2, cw_iterations=2, attack_count=10, ood_count=10,
                            detector_epochs=2).validate()


def test_installed_block_restores_every_binding():
    before = bindings()
    with tracer_mod.Tracer().installed():
        assert hasattr(importlib.import_module("gradgate.attacks").backward, tracer_mod.MARK)
        assert hasattr(importlib.import_module("gradgate.nn").conv2d, tracer_mod.MARK)
        assert hasattr(nn.Classifier.forward, tracer_mod.MARK)
        assert hasattr(cli.run_experiment, tracer_mod.MARK)
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer_mod.wrapped_bindings() == []


def test_bindings_restored_when_the_traced_code_raises():
    before = bindings()
    with pytest.raises(ZeroDivisionError):
        with tracer_mod.Tracer().installed():
            1 / 0
    assert all(bindings()[k] is v for k, v in before.items())


def test_measure_refuses_to_run_untraced_with_wrappers_installed():
    class Idle:
        def setup(self):
            return [0.0]

    with tracer_mod.Tracer().installed():
        with pytest.raises(RuntimeError, match="still installed"):
            run.measure(Idle(), 0.0)


def test_untraced_run_executes_unwrapped_functions(tmp_path):
    tracer = tracer_mod.Tracer()
    cfg = tiny_config(tmp_path / "traced")
    with tracer.installed():
        cli.run_experiment(cfg, tmp_path / "traced")
    spans = len(tracer)
    assert spans > 0

    cfg_plain = tiny_config(tmp_path / "plain")
    cli.run_experiment(cfg_plain, tmp_path / "plain")
    assert len(tracer) == spans, "an untraced call went through a tracer wrapper"
    assert tracer_mod.wrapped_bindings() == []

    name = f"report-{cfg.digest()}.kv"
    assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    m = tracer_mod.layer_metrics(tracer_mod.SpanTable(tracer))
    assert m["cli.cache_misses"] == 1 + 10 + 20 and m["cli.cache_hits"] == 0
    assert m["attacks.fgsm_grad_evals"] == 1
    for kind in ("bim", "pgd", "iterll", "cw"):
        assert m[f"attacks.{kind}_grad_evals"] == 2
    assert m["attacks.semantic_grad_evals"] == 0
    assert m["nn.train_steps"] == 2  # 100 training samples, batch 64
    assert m["gradfeat.backward_per_sample"] == 1.0
    assert m["storage.write_bytes"] > 0 and m["storage.read_bytes"] == 0
    assert set(m) | {"trace.overhead_s"} == {
        name for name, _, _ in tracer_mod.PER_LAYER if ".probe." not in name}

    warm = tracer_mod.Tracer()
    with warm.installed():
        cli.run_experiment(cfg, tmp_path / "traced")
    m = tracer_mod.layer_metrics(tracer_mod.SpanTable(warm))
    assert m["cli.cache_hits"] == 31 and m["cli.cache_misses"] == 0
    assert m["attacks.cw_s"] == 0.0


def test_self_time_subtracts_child_spans():
    t = tracer_mod.Tracer()
    for name, parent, start, end in [("cli.ensure_features", -1, 0.0, 10.0),
                                     ("gradfeat.load_features_csv", 0, 1.0, 3.0),
                                     ("gradfeat.save_features_csv", 0, 4.0, 8.0),
                                     ("autodiff.backward", 2, 5.0, 6.0)]:
        t.names.append(name)
        t.parents.append(parent)
        t.starts.append(start)
        t.ends.append(end)
        t.details.append("gradient" if parent < 0 else None)
    table = tracer_mod.SpanTable(t)
    assert table.self_time == [4.0, 2.0, 3.0, 1.0]
    assert table.count_under("autodiff.backward", "gradfeat.save_features_csv") == 1
    assert table.count_under("autodiff.backward", "gradfeat.load_features_csv") == 0
    assert tracer_mod._cache_counts(table) == (1, 1)


def test_report_check_flags_bad_rows_and_changed_bytes(tmp_path):
    pipe = workloads.Pipeline(ROOT, tmp_path, 1)
    pipe.refs = tmp_path / "refs"
    cfg = pipe.config(tmp_path)
    tags = [f"adv-{k}" for k in cfg.attack_kinds] + [f"ood-{k}" for k in cfg.ood_kinds]
    rows = [detector.MetricReport(t, m, 0.75, 0.8, 0.9, 20, 20)
            for t in tags for m in ("gradient", "activation", "msp")]
    kv = cli.report_kv_text(cfg, rows).encode()
    assert pipe.check_report(cfg, rows, kv) == []
    assert pipe.check_report(cfg, rows, kv) == []  # now against the stored reference
    assert pipe.check_report(cfg, rows, kv.replace(b"0.800000", b"0.800001", 1))
    assert pipe.check_report(cfg, rows[:-1], kv)
    assert pipe.check_report(cfg, None, kv) == []  # a report written by a child process
    assert pipe.check_report(cfg, None, kv.replace(b"auroc=0.800000", b"auroc=1.800000", 1))
    rows[0].auroc = 1.5
    assert pipe.check_report(cfg, rows, kv)


def test_batch_invariance_check_flags_a_changed_row():
    stream = workloads.ScoreStream(ROOT, Path("."), 1)
    stream.model = nn.build_classifier(nn.small_cnn(), seed=1)
    stream.label = gradfeat.make_confounding_label(10)
    images = np.random.default_rng(0).uniform(size=(4, 1, 16, 16))
    fs = gradfeat.extract_gradient_features(stream.model, images, stream.label)
    scored = detector.ScoredSamples(fs.sample_ids, fs.anomaly_labels, np.full(4, 0.5), fs.tags)
    assert stream.check_request(images, fs, scored, 2) == []
    fs.values[2, 0] *= 1.0 + 1e-6
    assert stream.check_request(images, fs, scored, 2)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracer_mod.PER_LAYER


def test_fresh_interpreter_resolves_the_same_config(tmp_path):
    _, stdout = workloads.run_child("startup", 4, tmp_path)
    assert stdout.strip() == workloads.pipeline_config(ROOT, tmp_path, 4).digest()
