from pathlib import Path

import numpy as np
import pytest

from gradgate import cli, storage
from gradgate.attacks import AttackConfig, AttackResult
from gradgate.config import ExperimentConfig, child_seed
from gradgate import gradfeat
from gradgate.data import gen_glyphs, load_dataset
from gradgate.gradfeat import load_features_csv, save_features_csv
from gradgate.nn import build_classifier, load_checkpoint, small_cnn
from gradgate.storage import fmt_float

ROOT = Path(__file__).resolve().parents[1]
CONFIG_TEMPLATE = """
[experiment]
out_dir = {out}
master_seed = 11

[dataset]
dataset_count = 400
train_fraction = 0.5
val_fraction = 0.2

[model]
epochs = 2
batch_size = 32

[attacks]
attack_kinds = fgsm,semantic
attack_count = 40
cw_iterations = 10

[ood]
ood_kinds = uniform-noise
ood_count = 40

[detector]
detector_epochs = 30
"""


@pytest.fixture
def tiny_config(tmp_path):
    out = tmp_path / "out"
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG_TEMPLATE.format(out=out))
    return path, out


class TestConfig:
    def test_defaults_round_trip_through_file(self, tiny_config):
        path, out = tiny_config
        cfg = ExperimentConfig.from_file(path)
        assert cfg.dataset_count == 400
        assert cfg.attack_kinds == ("fgsm", "semantic")
        assert cfg.epochs == 2
        assert cfg.momentum == 0.9  # untouched default

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[model]\nwarp_factor = 9\n")
        with pytest.raises(ValueError):
            ExperimentConfig.from_file(path)

    def test_digest_changes_with_content(self, tiny_config):
        path, _ = tiny_config
        a = ExperimentConfig.from_file(path)
        b = ExperimentConfig.from_file(path, overrides={"master_seed": 12})
        assert a.digest() != b.digest()

    def test_child_seed_is_stable_and_role_dependent(self):
        assert child_seed(7, "train") == child_seed(7, "train")
        assert child_seed(7, "train") != child_seed(7, "split")
        assert child_seed(7, "train") != child_seed(8, "train")

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ExperimentConfig.from_file(tmp_path / "nope.ini")

    @pytest.mark.parametrize("key,value", [
        ("dataset_count", 0), ("ood_count", -5), ("ood_count", 0), ("attack_count", -1),
        ("ood_count", 1), ("ood_count", 2), ("attack_count", 1), ("attack_count", 2),
        ("attack_kinds", ("fgsm", "fgsm")), ("ood_kinds", ("textures", "uniform-noise", "textures")),
        ("epsilon", -1.0), ("epsilon", float("nan")), ("hidden", 0),
        ("detector_patience", 0), ("detector_epochs", 0), ("cw_iterations", 0),
        ("alpha", 0.0), ("cw_c", 0.0), ("iterations", 0), ("cw_lr", float("nan")), ("cw_lr", 0.0),
        ("cw_c", float("inf")), ("train_fraction", float("nan")), ("epochs", -1),
        ("learning_rate", 0.0), ("momentum", 1.0), ("detector_batch_size", 0),
        ("detector_learning_rate", 0.0), ("detector_learning_rate", float("inf"))])
    def test_out_of_range_value_rejected(self, tiny_config, key, value):
        path, _ = tiny_config
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_file(path, overrides={key: value})

    @pytest.mark.parametrize("overrides", [
        {"confounding_kind": "bogus"},
        {"confounding_kind": "k-hot", "confounding_k": 1},
        {"confounding_kind": "k-hot", "confounding_k": 11}])
    def test_bad_confounding_label_rejected(self, tiny_config, overrides):
        path, _ = tiny_config
        with pytest.raises(ValueError, match="k-hot|confounding"):
            ExperimentConfig.from_file(path, overrides=overrides)

    def test_range_floors_accepted(self, tiny_config):
        path, _ = tiny_config
        floors = {"dataset_count": 1, "ood_count": 3, "attack_count": 0, "epsilon": 0.0,
                  "hidden": 1, "detector_patience": 1, "detector_epochs": 1,
                  "cw_iterations": 1, "iterations": 1, "detector_batch_size": 1}
        cfg = ExperimentConfig.from_file(path, overrides=floors)
        assert all(getattr(cfg, key) == value for key, value in floors.items())

    def test_default_ini_matches_built_in_defaults(self):
        # every workload of the benchmark loads this file
        cfg = ExperimentConfig.from_file(ROOT / "configs" / "default.ini")
        assert cfg.resolved_text() == ExperimentConfig().resolved_text()
        assert cfg.digest() == ExperimentConfig().digest()

    def test_confounding_k_enters_the_digest_only_under_k_hot(self, tiny_config):
        path, _ = tiny_config

        def digest(kind, k):
            return ExperimentConfig.from_file(
                path, {"confounding_kind": kind, "confounding_k": k}).digest()

        assert digest("all-ones", 2) == digest("all-ones", 3) == digest("all-ones", 0)
        assert digest("k-hot", 2) != digest("k-hot", 3)

    def test_unknown_override_key_rejected(self, tiny_config):
        path, _ = tiny_config
        with pytest.raises(ValueError, match="unknown key 'atack_count'"):
            ExperimentConfig.from_file(path, {"atack_count": 5})


class TestTrainCommand:
    def test_writes_checkpoint_and_reloads(self, tiny_config):
        path, out = tiny_config
        assert cli.main(["train-classifier", "--config", str(path)]) == 0
        cfg = ExperimentConfig.from_file(path)
        ckpt = out / f"classifier-{cfg.digest()}.ggate"
        assert ckpt.exists()
        model = load_checkpoint(ckpt)
        assert model.num_classes == 10
        assert (out / f"history-{cfg.digest()}.txt").exists()

    def test_same_config_twice_identical_digest(self, tiny_config, tmp_path):
        path, out = tiny_config
        cli.main(["train-classifier", "--config", str(path)])
        cfg = ExperimentConfig.from_file(path)
        first = (out / f"classifier-{cfg.digest()}.ggate").read_bytes()
        other_out = tmp_path / "other"
        cli.main(["train-classifier", "--config", str(path), "--out", str(other_out)])
        cfg2 = ExperimentConfig.from_file(path, overrides={"out_dir": str(other_out)})
        second = (other_out / f"classifier-{cfg2.digest()}.ggate").read_bytes()
        assert first == second

    def test_missing_idx_paths_fail(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[dataset]\ndataset_kind = idx\n")
        assert cli.main(["train-classifier", "--config", str(path)]) == 1


class TestGenAnomalies:
    def test_one_file_per_source(self, tiny_config):
        path, out = tiny_config
        assert cli.main(["gen-anomalies", "--config", str(path)]) == 0
        cfg = ExperimentConfig.from_file(path)
        assert (out / f"classifier-{cfg.digest()}.ggate").exists()
        for tag in ("clean-test", "adv-fgsm", "adv-semantic", "ood-uniform-noise"):
            assert (out / f"{tag}-{cfg.digest()}.gdata").exists()
        ood = load_dataset(out / f"ood-uniform-noise-{cfg.digest()}.gdata")
        assert np.all(ood.labels == -1)
        adv = load_dataset(out / f"adv-fgsm-{cfg.digest()}.gdata")
        assert len(adv) == 40

    def test_test_split_built_once_and_only_when_a_set_needs_it(self, tiny_config,
                                                                monkeypatch):
        path, out = tiny_config
        cli.main(["train-classifier", "--config", str(path)])
        cfg = ExperimentConfig.from_file(path)
        model = load_checkpoint(out / f"classifier-{cfg.digest()}.ggate")
        first = cli.ensure_anomalies(cfg, model, out)
        calls = []
        make_splits = cli.make_splits
        monkeypatch.setattr(cli, "make_splits", lambda c: calls.append(c) or make_splits(c))

        (out / f"ood-uniform-noise-{cfg.digest()}.gdata").unlink()
        cli.ensure_anomalies(cfg, model, out)
        assert calls == []  # an OOD set takes its shape from the model
        for tag in ("clean-test", "adv-fgsm", "adv-semantic"):
            (out / f"{tag}-{cfg.digest()}.gdata").unlink()
        again = cli.ensure_anomalies(cfg, model, out)
        assert len(calls) == 1
        assert list(again) == list(first)
        for tag, ds in again.items():
            assert ds.source_tag == tag
            assert ds.images.tobytes() == first[tag].images.tobytes()
            assert ds.labels.tobytes() == first[tag].labels.tobytes()

    def test_budget_gate_rejects_violations(self):
        bad = AttackResult("fgsm", np.full((1, 1, 2, 2), 0.5),
                           np.array([True]), np.array([0.2]), np.array([0.4]))
        with pytest.raises(cli.PipelineError):
            cli._gate_attack("fgsm", bad, AttackConfig(kind="fgsm", epsilon=0.1))

    def test_range_gate_rejects_escapes(self):
        bad = AttackResult("semantic", np.full((1, 1, 2, 2), 1.5),
                           np.array([True]), np.array([0.5]), np.array([1.0]))
        with pytest.raises(cli.PipelineError):
            cli._gate_attack("semantic", bad, AttackConfig(kind="semantic"))


class TestExtractAndDetect:
    TAGS = ("clean-test", "adv-fgsm", "adv-semantic", "ood-uniform-noise")

    @pytest.fixture
    def pipeline(self, tiny_config):
        path, out = tiny_config
        assert cli.main(["extract-features", "--config", str(path)]) == 0
        return out, ExperimentConfig.from_file(path)

    def test_gradient_mode_has_eight_columns(self, pipeline):
        out, cfg = pipeline
        for tag in self.TAGS:
            fs = load_features_csv(out / f"features-gradient-{tag}-{cfg.digest()}.csv")
            assert fs.dim == 8
            assert len(fs) == 40

    def test_activation_mode_has_layer_count_columns(self, pipeline):
        out, cfg = pipeline
        for tag in self.TAGS:
            fs = load_features_csv(out / f"features-activation-{tag}-{cfg.digest()}.csv")
            assert fs.dim == 4

    def test_feature_csv_round_trip_byte_equal(self, pipeline, tmp_path):
        out, _ = pipeline
        paths = sorted(out.glob("features-*.csv"))
        assert len(paths) == 2 * len(self.TAGS)  # both modes for every set
        for csv_path in paths:
            again = tmp_path / "again.csv"
            save_features_csv(load_features_csv(csv_path), again)
            assert csv_path.read_bytes() == again.read_bytes(), csv_path.name


class TestFeatureCache:
    def test_cached_csv_short_of_its_set_rejected(self, tmp_path):
        cfg = ExperimentConfig(out_dir=str(tmp_path)).validate()
        model = build_classifier(small_cnn(), seed=0)
        sets = {"probe": gen_glyphs(5, seed=3)}
        cli.ensure_features(cfg, model, sets, "activation", tmp_path)
        path = tmp_path / f"features-activation-probe-{cfg.digest()}.csv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
        with pytest.raises(gradfeat.FeatureError, match=f"{path.name}: 4 rows for a set of 5"):
            cli.ensure_features(cfg, model, sets, "activation", tmp_path)

    def test_write_cut_short_is_regenerated(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig(out_dir=str(tmp_path)).validate()
        model = build_classifier(small_cnn(), seed=0)
        sets = {"probe": gen_glyphs(6, seed=3)}
        calls = []

        def crash_on_20th_value(x):
            calls.append(x)
            if len(calls) == 20:
                raise KeyboardInterrupt
            return fmt_float(x)

        monkeypatch.setattr(storage, "fmt_float", crash_on_20th_value)
        with pytest.raises(KeyboardInterrupt):
            cli.ensure_features(cfg, model, sets, "gradient", tmp_path)
        assert list(tmp_path.iterdir()) == []

        monkeypatch.undo()
        features = cli.ensure_features(cfg, model, sets, "gradient", tmp_path)
        path = tmp_path / f"features-gradient-probe-{cfg.digest()}.csv"
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert load_features_csv(path).values.tobytes() == features["probe"].values.tobytes()
        assert len(features["probe"]) == 6


class TestRunExperiment:
    def test_report_has_one_row_per_source_and_method(self, tiny_config):
        path, out = tiny_config
        assert cli.main(["run-experiment", "--config", str(path)]) == 0
        cfg = ExperimentConfig.from_file(path)
        report = (out / f"report-{cfg.digest()}.kv").read_text()
        kv = dict(line.split("=", 1) for line in report.splitlines())
        for source in ("adv-fgsm", "adv-semantic", "ood-uniform-noise"):
            for method in ("gradient", "activation", "msp"):
                for metric in ("accuracy", "auroc", "aupr"):
                    assert 0.0 <= float(kv[f"row.{source}.{method}.{metric}"]) <= 1.0
        assert (out / f"report-{cfg.digest()}.txt").exists()

    def test_msp_scored_once_per_set(self, tiny_config, monkeypatch):
        path, out = tiny_config
        calls = []
        msp_scores = cli.detector.msp_scores
        monkeypatch.setattr(cli.detector, "msp_scores",
                            lambda model, images: calls.append(len(images)) or
                            msp_scores(model, images))
        cli.run_experiment(ExperimentConfig.from_file(path), out)
        assert calls == [40, 40, 40, 40]  # clean-test, adv-fgsm, adv-semantic, ood-uniform-noise

    def test_second_run_reuses_artifacts(self, tiny_config):
        path, out = tiny_config
        cli.main(["run-experiment", "--config", str(path)])
        cfg = ExperimentConfig.from_file(path)
        ckpt = out / f"classifier-{cfg.digest()}.ggate"
        stamp = ckpt.stat().st_mtime_ns
        assert cli.main(["run-experiment", "--config", str(path)]) == 0
        assert ckpt.stat().st_mtime_ns == stamp  # untouched: loaded, not retrained

    def test_two_directories_same_seed_identical_reports(self, tiny_config, tmp_path):
        path, out = tiny_config
        cli.main(["run-experiment", "--config", str(path)])
        cfg = ExperimentConfig.from_file(path)
        other = tmp_path / "replica"
        cli.main(["run-experiment", "--config", str(path), "--out", str(other)])
        cfg2 = ExperimentConfig.from_file(path, overrides={"out_dir": str(other)})
        assert cfg.digest() == cfg2.digest()  # out_dir is not part of identity
        a = (out / f"report-{cfg.digest()}.kv").read_bytes()
        b = (other / f"report-{cfg2.digest()}.kv").read_bytes()
        assert a == b

    def test_deleting_one_set_regenerates_only_that_set(self, tiny_config):
        path, out = tiny_config
        cli.main(["run-experiment", "--config", str(path)])
        cfg = ExperimentConfig.from_file(path)
        victim = out / f"ood-uniform-noise-{cfg.digest()}.gdata"
        before = {p: (p.stat().st_mtime_ns, p.read_bytes())
                  for p in [*out.glob("*.gdata"), *out.glob("*.ggate")]}
        assert len(before) == 5
        victim.unlink()
        assert cli.main(["run-experiment", "--config", str(path)]) == 0
        for p, (stamp, blob) in before.items():
            assert p.read_bytes() == blob
            assert (p.stat().st_mtime_ns == stamp) == (p != victim), p.name

    def test_stage_commands_make_the_run_experiment_artifacts(self, tiny_config, tmp_path):
        path, out = tiny_config
        for command in ("train-classifier", "gen-anomalies", "extract-features"):
            assert cli.main([command, "--config", str(path)]) == 0
        staged = {p: p.stat().st_mtime_ns for p in out.iterdir()}
        assert len(staged) == 14  # checkpoint, history, 4 sets, 2 x 4 feature CSVs
        assert cli.main(["run-experiment", "--config", str(path)]) == 0
        for p, stamp in staged.items():
            assert p.stat().st_mtime_ns == stamp, p.name
        fresh = tmp_path / "fresh"
        assert cli.main(["run-experiment", "--config", str(path), "--out", str(fresh)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in fresh.iterdir())
        for p in fresh.iterdir():
            assert (out / p.name).read_bytes() == p.read_bytes(), p.name

    def test_commands_take_no_input_paths(self, tiny_config):
        path, _ = tiny_config
        for command in ("train-classifier", "gen-anomalies", "extract-features",
                        "run-experiment", "compare-norms"):
            for flag in ("--checkpoint", "--dataset", "--datasets", "--mode"):
                with pytest.raises(SystemExit):
                    cli.main([command, "--config", str(path), flag, "x"])
        with pytest.raises(SystemExit):  # its one row is in report-<digest>.kv
            cli.main(["detect", "--config", str(path)])


class TestCompareNorms:
    def test_blocks_per_layer_per_mode(self, tiny_config):
        path, out = tiny_config
        assert cli.main(["compare-norms", "--config", str(path)]) == 0
        cfg = ExperimentConfig.from_file(path)
        lines = (out / f"norms-{cfg.digest()}.txt").read_text().splitlines()
        blocks = [l for l in lines if l.startswith("== ")]
        assert sum(l.startswith("== gradient /") for l in blocks) == 8   # per parameter set
        assert sum(l.startswith("== activation /") for l in blocks) == 4  # per layer
        for tag in ("clean-test", "adv-fgsm", "adv-semantic", "ood-uniform-noise"):
            assert sum(l.split()[0] == tag for l in lines if l) == len(blocks)

    def test_reads_the_feature_csvs_extract_features_wrote(self, tiny_config, monkeypatch):
        path, out = tiny_config
        assert cli.main(["extract-features", "--config", str(path)]) == 0
        csvs = {p: p.stat().st_mtime_ns for p in out.glob("features-*.csv")}
        assert len(csvs) == 8
        calls = []
        monkeypatch.setattr(gradfeat, "extract_features", lambda *a, **k: calls.append(a))
        assert cli.main(["compare-norms", "--config", str(path)]) == 0
        assert calls == []
        for p, stamp in csvs.items():
            assert p.stat().st_mtime_ns == stamp, p.name

    def test_k_hot_uses_the_pipeline_label(self, tiny_config, monkeypatch):
        path, out = tiny_config
        path.write_text(path.read_text() + "\n[features]\nconfounding_kind = k-hot\n"
                        "confounding_k = 3\n")
        cfg = ExperimentConfig.from_file(path)
        labels = []
        extract = gradfeat.extract_gradient_features

        def spy(model, images, label, source_tag=""):
            labels.append(label)
            return extract(model, images, label, source_tag)

        monkeypatch.setattr(gradfeat, "extract_gradient_features", spy)
        assert cli.main(["compare-norms", "--config", str(path)]) == 0
        assert len(labels) == 4  # one call per set of the run
        model, _ = cli.ensure_classifier(cfg, out)
        cli.ensure_features(cfg, model, {"probe": gen_glyphs(4, seed=1)}, "gradient", out)
        *compare, pipeline = labels
        assert pipeline.descriptor.startswith("k-hot-3-")
        for label in compare:
            assert label.descriptor == pipeline.descriptor
            assert np.array_equal(label.vector, pipeline.vector)
