import os
import struct
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from gradgate import cli, detector, nn, storage
from gradgate.attacks import AttackConfig, AttackResult
from gradgate.config import ExperimentConfig, child_seed
from gradgate import gradfeat
from gradgate.data import gen_glyphs, load_dataset, save_dataset
from gradgate.nn import build_classifier, load_checkpoint, small_cnn

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
        ("train_fraction", -0.1), ("train_fraction", 0.0), ("val_fraction", 0.0),
        ("val_fraction", -0.1),
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

    @pytest.fixture
    def idx_pair(self, tmp_path, monkeypatch):
        """A 28x28 IDX pair of two blank images, as images.idx and labels.idx
        in the working directory."""
        monkeypatch.chdir(tmp_path)
        Path("images.idx").write_bytes(struct.pack(">IIII", 0x803, 2, 28, 28) + bytes(2 * 784))
        Path("labels.idx").write_bytes(struct.pack(">II", 0x801, 2) + bytes(2))

    @pytest.mark.parametrize("overrides", [
        {"arch": "in:3:16:16|dense:10:none|classes:10"},
        {"arch": "in:256|dense:10:none|classes:10"},
        {"arch": "in:1:8:8|dense:10:none|classes:10"},
        {"arch": "in:3:28:28|dense:10:none|classes:10", "dataset_kind": "idx",
         "idx_images": "images.idx", "idx_labels": "labels.idx"},
        {"arch": "in:784|dense:10:none|classes:10", "dataset_kind": "idx",
         "idx_images": "images.idx", "idx_labels": "labels.idx"},
        {"arch": "smallcnn", "dataset_kind": "idx",
         "idx_images": "images.idx", "idx_labels": "labels.idx"}])
    def test_arch_input_shape_other_than_the_images_rejected(self, tiny_config, idx_pair,
                                                             overrides):
        path, _ = tiny_config
        with pytest.raises(ValueError, match="arch input shape"):
            ExperimentConfig.from_file(path, overrides=overrides)

    def test_idx_arch_of_one_channel_accepted(self, tiny_config, idx_pair):
        path, _ = tiny_config
        cfg = ExperimentConfig.from_file(path, overrides={
            "arch": "in:1:28:28|dense:10:none|classes:10", "dataset_kind": "idx",
            "idx_images": "images.idx", "idx_labels": "labels.idx"})
        assert cfg.arch_spec().input_shape == (1, 28, 28)

    def test_idx_image_size_other_than_the_arch_input_named(self, tiny_config, idx_pair):
        path, _ = tiny_config
        with pytest.raises(ValueError, match=r"arch input shape \(1, 16, 16\) is not "
                                             r"\(1, 28, 28\), that of one image of "
                                             r"images\.idx"):
            ExperimentConfig.from_file(path, overrides={
                "dataset_kind": "idx", "idx_images": "images.idx", "idx_labels": "labels.idx"})

    @pytest.mark.parametrize("blob", [None, b"", struct.pack(">III", 0x803, 2, 28),
                                      struct.pack(">IIII", 0x801, 2, 28, 28)])
    def test_missing_short_or_other_idx_image_file_rejected(self, tiny_config, tmp_path, blob):
        path, _ = tiny_config
        images = tmp_path / "images.idx"
        if blob is not None:
            images.write_bytes(blob)
        with pytest.raises(ValueError, match=f"^idx_images {images}: "):
            ExperimentConfig.from_file(path, overrides={
                "arch": "in:1:28:28|dense:10:none|classes:10", "dataset_kind": "idx",
                "idx_images": str(images), "idx_labels": str(tmp_path / "labels.idx")})

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

    def test_checkpoint_is_written_after_the_history(self, tiny_config, monkeypatch):
        path, out = tiny_config
        out.mkdir()
        cfg = ExperimentConfig.from_file(path)
        atomic_open = storage.atomic_open

        def history_write_fails(target, *args, **kwargs):
            if Path(target).name.startswith("history-"):
                raise OSError("no space left on device")
            return atomic_open(target, *args, **kwargs)

        monkeypatch.setattr(storage, "atomic_open", history_write_fails)
        with pytest.raises(OSError):
            cli.ensure_classifier(cfg, out)
        assert list(out.iterdir()) == []  # no checkpoint claims the run is done
        monkeypatch.undo()
        cli.ensure_classifier(cfg, out)
        assert sorted(p.name for p in out.iterdir()) == [
            f"classifier-{cfg.digest()}.ggate", f"history-{cfg.digest()}.txt"]

    def test_one_run_per_command(self, tiny_config, monkeypatch):
        path, out = tiny_config
        sweeps = []
        sweep = storage.remove_stale_temporaries
        monkeypatch.setattr(storage, "remove_stale_temporaries",
                            lambda directory: (sweeps.append(directory), sweep(directory))[1])
        for command in ("train-classifier", "run-experiment"):
            sweeps.clear()
            assert cli.main([command, "--config", str(path)]) == 0
            assert sweeps == [out], command

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
        cfg = ExperimentConfig.from_file(path)
        calls = []
        make_splits = cli.make_splits
        monkeypatch.setattr(cli, "make_splits", lambda c: calls.append(c) or make_splits(c))
        cli.run_experiment(cfg, out)
        assert len(calls) == 1  # the classifier and the clean and attack sets share it
        sets = [("set", tag) for tag in TestExtractAndDetect.TAGS]
        first = [cli.Run(cfg, out).demand(key) for key in sets]  # loaded, not made

        calls.clear()
        (out / f"ood-uniform-noise-{cfg.digest()}.gdata").unlink()
        cli.Run(cfg, out).check("classifier", "set")
        assert calls == []  # an OOD set takes its shape from the config
        for tag in ("clean-test", "adv-fgsm", "adv-semantic"):
            (out / f"{tag}-{cfg.digest()}.gdata").unlink()
        run = cli.Run(cfg, out)
        run.check("classifier", "set")
        assert len(calls) == 1
        for key, ds in zip(sets, first):
            again = run.demand(key)
            assert again.source_tag == ds.source_tag == key[1]
            assert again.images.tobytes() == ds.images.tobytes()
            assert again.labels.tobytes() == ds.labels.tobytes()

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
            fs = gradfeat.load_features(out / f"features-gradient-{tag}-{cfg.digest()}.gfeat")
            assert fs.dim == 8
            assert len(fs) == 40

    def test_activation_mode_has_layer_count_columns(self, pipeline):
        out, cfg = pipeline
        for tag in self.TAGS:
            fs = gradfeat.load_features(out / f"features-activation-{tag}-{cfg.digest()}.gfeat")
            assert fs.dim == 4

    def test_feature_file_round_trip_byte_equal(self, pipeline, tmp_path):
        out, _ = pipeline
        paths = sorted(out.glob("features-*.gfeat"))
        assert len(paths) == 2 * len(self.TAGS)  # both modes for every set
        for path in paths:
            again = tmp_path / "again.gfeat"
            gradfeat.save_features(gradfeat.load_features(path), again)
            assert path.read_bytes() == again.read_bytes(), path.name


class TestFeatureCache:
    @pytest.fixture
    def probe(self, tmp_path):
        """A run of the default config with an untrained classifier and a
        clean set of ``n`` glyphs on disk."""
        def make(n):
            run = cli.Run(ExperimentConfig(out_dir=str(tmp_path)).validate(), tmp_path)
            model = build_classifier(small_cnn(), seed=0)
            nn.save_checkpoint(model, run.path("classifier", "ggate"))
            save_dataset(gen_glyphs(n, seed=3), run.path("clean-test", "gdata"))
            return run
        return make

    def test_cached_file_short_of_its_set_rejected(self, probe):
        run = probe(5)
        key = ("features", "activation", "clean-test")
        values = run.demand(key).values
        path = run.path("features-activation-clean-test", "gfeat")
        gradfeat.save_features(gradfeat.unlabeled_features(values[:-1], "clean-test"), path)
        with pytest.raises(gradfeat.FeatureError, match=f"{path.name}: 4 rows for a set of 5"):
            cli.Run(run.cfg, run.out).header(key)

    def test_cached_file_of_another_set_rejected(self, probe):
        run = probe(5)
        key = ("features", "activation", "clean-test")
        values = run.demand(key).values
        path = run.path("features-activation-clean-test", "gfeat")
        gradfeat.save_features(gradfeat.unlabeled_features(values, "other"), path)
        with pytest.raises(gradfeat.FeatureError,
                           match=f"{path.name}: features of 'other', not of 'clean-test'"):
            cli.Run(run.cfg, run.out).header(key)

    def test_write_cut_short_is_regenerated(self, probe, monkeypatch):
        run = probe(6)
        seeded = sorted(p.name for p in run.out.iterdir())
        key = ("features", "gradient", "clean-test")
        calls = []

        def crash_on_first_dim(fmt, *values):
            calls.append(fmt)
            if len(calls) == 6:  # magic, version, metadata and record name are written
                raise KeyboardInterrupt
            return struct.pack(fmt, *values)

        for needed in (cli.CLASSIFIER, ("set", "clean-test")):
            run.demand(needed)  # read before the patch: the loaders unpack with struct
        monkeypatch.setattr(storage, "struct", types.SimpleNamespace(pack=crash_on_first_dim))
        with pytest.raises(KeyboardInterrupt):
            run.demand(key)
        assert len(calls) == 6
        assert sorted(p.name for p in run.out.iterdir()) == seeded

        monkeypatch.undo()
        features = cli.Run(run.cfg, run.out).demand(key)
        path = run.path("features-gradient-clean-test", "gfeat")
        assert sorted(p.name for p in run.out.iterdir()) == sorted([*seeded, path.name])
        assert gradfeat.load_features(path).values.tobytes() == features.values.tobytes()
        assert len(features) == 6


class TestRunExperiment:
    def test_report_has_one_row_per_source_and_method(self, tiny_config, capsys):
        path, out = tiny_config
        assert cli.main(["run-experiment", "--config", str(path)]) == 0
        cfg = ExperimentConfig.from_file(path)
        kv_path = out / f"report-{cfg.digest()}.kv"
        assert capsys.readouterr().out.splitlines()[-1] == f"report: {kv_path}"
        report = kv_path.read_text()
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

    def test_warm_run_fits_nothing_and_runs_no_forward(self, tiny_config, monkeypatch):
        path, out = tiny_config
        cfg = ExperimentConfig.from_file(path)
        cli.run_experiment(cfg, out)
        calls = []
        forward = nn.Classifier.forward
        monkeypatch.setattr(nn.Classifier, "forward",
                            lambda *a, **k: calls.append("forward") or forward(*a, **k))
        for module, name in ((cli.detector, "train_detector"), (cli.detector, "msp_scores")):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, fn=fn, name=name, **k: calls.append(name) or fn(*a, **k))
        assert len(cli.run_experiment(cfg, out)) == 9
        assert calls == []

    def test_warm_run_writes_only_the_report(self, tiny_config):
        path, out = tiny_config
        assert cli.main(["run-experiment", "--config", str(path)]) == 0
        before = {p: (p.stat().st_mtime_ns, p.read_bytes()) for p in out.iterdir()}
        assert sum(p.name.startswith("scores-") for p in before) == 9
        assert cli.main(["run-experiment", "--config", str(path)]) == 0
        assert set(out.iterdir()) == set(before)
        for p, (stamp, blob) in before.items():
            assert p.read_bytes() == blob, p.name  # the warm report equals the cold one
            if not p.name.startswith("report-"):
                assert p.stat().st_mtime_ns == stamp, p.name

    def test_deleting_one_score_file_rebuilds_only_that_file(self, tiny_config):
        path, out = tiny_config
        cli.main(["run-experiment", "--config", str(path)])
        cfg = ExperimentConfig.from_file(path)
        victim = out / f"scores-adv-semantic-gradient-{cfg.digest()}.gscore"
        before = {p: (p.stat().st_mtime_ns, p.read_bytes())
                  for p in out.iterdir() if not p.name.startswith("report-")}
        victim.unlink()
        assert cli.main(["run-experiment", "--config", str(path)]) == 0
        for p, (stamp, blob) in before.items():
            assert p.read_bytes() == blob, p.name
            assert (p.stat().st_mtime_ns == stamp) == (p != victim), p.name

    def test_score_file_short_of_its_test_part_rejected(self, tiny_config):
        path, out = tiny_config
        cfg = ExperimentConfig.from_file(path)
        cli.run_experiment(cfg, out)
        victim = out / f"scores-ood-uniform-noise-msp-{cfg.digest()}.gscore"
        ids, labels, scores = detector.load_scores(victim)
        keep = np.arange(len(scores)) != 5
        detector.save_scores(detector.ScoredSamples(ids[keep], labels[keep], scores[keep]), victim)
        with pytest.raises(detector.ScoreError,
                           match=f"{victim.name}: {len(scores) - 1} rows that are not the "
                                 f"{len(scores)}-row detection test part"):
            cli.run_experiment(cfg, out)

    def test_score_file_of_other_labels_rejected(self, tiny_config):
        path, out = tiny_config
        cfg = ExperimentConfig.from_file(path)
        cli.run_experiment(cfg, out)
        victim = out / f"scores-adv-fgsm-gradient-{cfg.digest()}.gscore"
        ids, labels, scores = detector.load_scores(victim)
        detector.save_scores(detector.ScoredSamples(ids, 1 - labels, scores), victim)
        with pytest.raises(detector.ScoreError, match=f"{victim.name}: {len(scores)} rows that "
                                                      f"are not the {len(scores)}-row"):
            cli.run_experiment(cfg, out)

    @pytest.mark.parametrize("stem", ["features-gradient-adv-fgsm", "scores-adv-fgsm-msp"])
    def test_truncated_cached_file_rejected(self, tiny_config, stem):
        path, out = tiny_config
        cfg = ExperimentConfig.from_file(path)
        cli.run_experiment(cfg, out)
        victim, = out.glob(f"{stem}-{cfg.digest()}.*")
        victim.write_bytes(victim.read_bytes()[:-8])
        with pytest.raises(storage.TruncatedError, match="file ends inside payload") as err:
            cli.run_experiment(cfg, out)
        assert victim.name in str(err.value)

    @pytest.mark.parametrize("keep,tag,error", [
        (slice(1, None), "adv-fgsm", "39 rows for a set of 40 samples"),
        (slice(None), "adv-semantic", "features of 'adv-semantic', not of 'adv-fgsm'")])
    def test_feature_file_not_of_its_set_rejected(self, tiny_config, keep, tag, error):
        path, out = tiny_config
        cfg = ExperimentConfig.from_file(path)
        cli.run_experiment(cfg, out)
        victim = out / f"features-activation-adv-fgsm-{cfg.digest()}.gfeat"
        values = gradfeat.load_features(victim).values[keep]
        gradfeat.save_features(gradfeat.unlabeled_features(values, tag), victim)
        with pytest.raises(gradfeat.FeatureError, match=f"{victim.name}: {error}"):
            cli.run_experiment(cfg, out)

    def test_full_hit_reads_headers_and_score_payloads_only(self, tiny_config, monkeypatch):
        path, out = tiny_config
        cfg = ExperimentConfig.from_file(path)
        cold = cli.run_experiment(cfg, out)
        calls, headers, payloads = [], [], []
        for owner, name in ((nn, "load_checkpoint"), (gradfeat, "load_features"),
                            (cli.data, "load_dataset"), (nn.Classifier, "forward")):
            fn = getattr(owner, name)
            monkeypatch.setattr(owner, name,
                                lambda *a, fn=fn, name=name, **k: calls.append(name) or fn(*a, **k))
        for name, seen in (("read_header", headers), ("read_container", payloads)):
            fn = getattr(storage, name)
            monkeypatch.setattr(storage, name,
                                lambda p, magic, fn=fn, seen=seen: seen.append(Path(p).name) or
                                fn(p, magic))
        assert cli.run_experiment(cfg, out) == cold
        assert calls == []
        names = sorted(p.name for p in out.iterdir())
        assert sorted(headers) == [n for n in names if n.endswith((".ggate", ".gdata", ".gfeat"))]
        assert sorted(payloads) == [n for n in names if n.endswith(".gscore")]

    def test_rerun_after_a_kill_before_a_rename_matches_an_unkilled_run(self, tiny_config,
                                                                         tmp_path, monkeypatch):
        path, out = tiny_config
        renames, replace = [], os.replace
        monkeypatch.setattr(os, "replace", lambda src, dst: renames.append(Path(dst).name) or
                            replace(src, dst))
        assert cli.main(["run-experiment", "--config", str(path)]) == 0
        monkeypatch.undo()
        want = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(renames) == len(want)
        for stem in ("adv-semantic-", "features-gradient-adv-fgsm-", "scores-adv-fgsm-msp-"):
            k = next(i for i, name in enumerate(renames, 1) if name.startswith(stem))
            killed = tmp_path / f"killed-{k}"
            args = ["run-experiment", "--config", str(path), "--out", str(killed)]
            proc = subprocess.run([sys.executable, str(ROOT / "tests" / "crash_at_rename.py"),
                                   str(k), *args], capture_output=True)
            assert proc.returncode == 137, proc.stderr
            assert [p.name for p in killed.glob("*.tmp")] != []  # the k-th file, not renamed
            assert cli.main(args) == 0
            assert {p.name: p.read_bytes() for p in killed.iterdir()} == want, renames[k - 1]

    def test_cold_run_writes_no_csv(self, tiny_config):
        path, out = tiny_config
        cli.run_experiment(ExperimentConfig.from_file(path), out)
        names = [p.name for p in out.iterdir()]
        assert sum(n.endswith(".gfeat") for n in names) == 8  # 2 modes x 4 sets
        assert sum(n.endswith(".gscore") for n in names) == 9  # 3 sources x 3 methods
        assert not list(out.glob("*.csv"))

    def test_warm_run_renders_the_config_at_most_once(self, tiny_config, monkeypatch):
        path, out = tiny_config
        cli.run_experiment(ExperimentConfig.from_file(path), out)
        calls = []
        resolved_text = ExperimentConfig.resolved_text
        monkeypatch.setattr(ExperimentConfig, "resolved_text",
                            lambda cfg: calls.append(1) or resolved_text(cfg))
        cli.run_experiment(ExperimentConfig.from_file(path), out)
        assert len(calls) <= 1

    def test_stage_commands_make_the_run_experiment_artifacts(self, tiny_config, tmp_path):
        path, out = tiny_config
        for command in ("train-classifier", "gen-anomalies", "extract-features"):
            assert cli.main([command, "--config", str(path)]) == 0
        staged = {p: p.stat().st_mtime_ns for p in out.iterdir()}
        assert len(staged) == 14  # checkpoint, history, 4 sets, 2 x 4 feature files
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

    def test_reads_the_feature_files_extract_features_wrote(self, tiny_config, monkeypatch):
        path, out = tiny_config
        assert cli.main(["extract-features", "--config", str(path)]) == 0
        files = {p: p.stat().st_mtime_ns for p in out.glob("features-*.gfeat")}
        assert len(files) == 8
        calls = []
        monkeypatch.setattr(gradfeat, "extract_features", lambda *a, **k: calls.append(a))
        assert cli.main(["compare-norms", "--config", str(path)]) == 0
        assert calls == []
        for p, stamp in files.items():
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
        (out / f"features-gradient-adv-fgsm-{cfg.digest()}.gfeat").unlink()
        cli.run_experiment(cfg, out)
        *compare, pipeline = labels
        assert pipeline.descriptor.startswith("k-hot-3-")
        for label in compare:
            assert label.descriptor == pipeline.descriptor
            assert np.array_equal(label.vector, pipeline.vector)
