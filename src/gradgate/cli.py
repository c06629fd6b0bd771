"""Command-line pipeline: train, generate anomalies, extract features,
detect, and report.

Artifacts are named by the resolved config digest, so every command is
idempotent: reruns with unchanged inputs reuse what is already on disk.
Each artifact is loaded or made on its own, so a missing file costs only
the work that makes it. Every command takes its inputs from the config
alone and runs the ``ensure_*`` chain of ``run_experiment`` up to its own
stage, so a digest only ever names what that config makes.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import attacks, data, detector, gradfeat, nn, storage
from .config import ExperimentConfig, child_seed


class PipelineError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# cached pipeline stages
# ---------------------------------------------------------------------------

def _artifact(cfg: ExperimentConfig, out: Path, stem: str, ext: str) -> Path:
    """The path of one artifact of this config: ``<stem>-<digest>.<ext>``."""
    return out / f"{stem}-{cfg.digest()}.{ext}"


def make_splits(cfg: ExperimentConfig):
    if cfg.dataset_kind == "glyphs":
        ds = data.gen_glyphs(cfg.dataset_count, seed=child_seed(cfg.master_seed, "data"))
    else:
        ds = data.load_idx(cfg.idx_images, cfg.idx_labels)
        if cfg.dataset_count < len(ds):
            ds = ds.subset(np.arange(cfg.dataset_count))
    test_fraction = 1.0 - cfg.train_fraction - cfg.val_fraction
    return data.split(ds, (cfg.train_fraction, cfg.val_fraction, test_fraction),
                      seed=child_seed(cfg.master_seed, "split"))


def ensure_classifier(cfg: ExperimentConfig, out: Path):
    """Train (or reload) the classifier for this config digest."""
    path = _artifact(cfg, out, "classifier", "ggate")
    if path.exists():
        return nn.load_checkpoint(path), path
    train, val, _ = make_splits(cfg)
    model = nn.build_classifier(cfg.arch_spec(), seed=child_seed(cfg.master_seed, "init"))
    model, history = nn.train_classifier(model, train, val, cfg.train_config())
    with storage.atomic_open(_artifact(cfg, out, "history", "txt")) as fh:
        for h in history:
            fh.write(f"epoch={h['epoch']} train_loss={h['train_loss']:.6f} "
                     f"train_accuracy={h['train_accuracy']:.4f} "
                     f"val_accuracy={h['val_accuracy']:.4f}\n")
    nn.save_checkpoint(model, path)  # last: the checkpoint's existence means "done"
    return model, path


def ensure_anomalies(cfg: ExperimentConfig, model, out: Path) -> dict:
    """Generate (or reload) the clean test set, adversarial sets, and OOD
    sets, keyed by source tag in that order. Each set is loaded or made on
    its own; adversarial outputs pass exact budget and range gates before
    anything is written."""
    tags = ["clean-test", *(f"adv-{kind}" for kind in cfg.attack_kinds),
            *(f"ood-{kind}" for kind in cfg.ood_kinds)]
    sets, test = {}, None
    for tag in tags:
        path = _artifact(cfg, out, tag, "gdata")
        if path.exists():
            sets[tag] = data.load_dataset(path)
            continue
        origin, kind = tag.split("-", 1)
        if origin != "ood" and test is None:  # built at most once, and only when needed
            _, _, test = make_splits(cfg)
            if cfg.attack_count and cfg.attack_count < len(test):
                test = test.subset(np.arange(cfg.attack_count))
        if origin == "clean":
            ds = data.Dataset(test.images, test.labels, tag, test.seed)
        elif origin == "adv":
            acfg = cfg.attack_config(kind)
            result = attacks.run_attack(model, test.images, test.labels, acfg)
            _gate_attack(kind, result, acfg)
            ds = data.Dataset(result.images, test.labels, tag, acfg.seed)
        else:
            ds = data.gen_ood(kind, cfg.ood_count, seed=child_seed(cfg.master_seed, tag),
                              shape=model.arch.input_shape)
        data.save_dataset(ds, path, extra_metadata={"config_digest": cfg.digest()})
        sets[tag] = ds
    return sets


def _gate_attack(kind: str, result: attacks.AttackResult, acfg) -> None:
    if result.images.min() < 0.0 or result.images.max() > 1.0:
        raise PipelineError(f"{kind}: adversarial pixels escaped [0, 1]")
    if kind in ("fgsm", "bim", "pgd", "iterll") and result.linf.max() > acfg.epsilon:
        raise PipelineError(f"{kind}: perturbation {result.linf.max()} exceeds "
                            f"epsilon {acfg.epsilon}")
    if not np.all(np.isfinite(result.images)):
        raise PipelineError(f"{kind}: non-finite adversarial pixels")


def ensure_features(cfg: ExperimentConfig, model, sets: dict, mode: str, out: Path) -> dict:
    """Extract (or reload) one feature file per anomaly source for a mode;
    a cached file must hold one row per sample of its set, and that set's tag."""
    label = cfg.confounding_label(model.num_classes)
    features = {}
    for tag, ds in sets.items():
        path = _artifact(cfg, out, f"features-{mode}-{tag}", "gfeat")
        if path.exists():
            fs = gradfeat.load_features(path)
            if len(fs) != len(ds):
                raise gradfeat.FeatureError(
                    f"{path}: {len(fs)} rows for a set of {len(ds)} samples")
            if fs.tags != [tag] * len(ds):
                raise gradfeat.FeatureError(f"{path}: features of {fs.tags[0]!r}, not of {tag!r}")
        else:
            fs = gradfeat.extract_features(model, ds.images, mode, label, tag)
            gradfeat.save_features(fs, path)
        features[tag] = fs
    return features


def detect_and_report(cfg: ExperimentConfig, normal, anomalous, seed: int):
    """Split, train the detector, and score the held-out test part."""
    train, val, test = detector.assemble_detection_sets(normal, anomalous, seed)
    det = detector.train_detector(
        train, val, hidden=cfg.hidden, seed=seed,
        learning_rate=cfg.detector_learning_rate, batch_size=cfg.detector_batch_size,
        max_epochs=cfg.detector_epochs, patience=cfg.detector_patience)
    return detector.score(det, test)


def msp_report(clean_scores, anom_scores, anom_tag: str, seed: int):
    """Baseline scores on the same 40/40/20 test partition the detectors use."""
    _, _, test = detector.assemble_detection_sets(
        gradfeat.unlabeled_features(clean_scores[:, None], "clean-test"),
        gradfeat.unlabeled_features(anom_scores[:, None], anom_tag), seed)
    return detector.ScoredSamples(test.sample_ids, test.anomaly_labels,
                                  test.values[:, 0], list(test.tags))


def _test_part(sets: dict, tag: str, seed: int):
    """The rows of the 40/40/20 test part that every method at ``tag``
    scores, in order. The split reads only the sizes and tags of the two
    sets, so zero-width features give the same rows as any method's."""
    _, _, test = detector.assemble_detection_sets(
        *(gradfeat.unlabeled_features(np.zeros((len(sets[t]), 0)), t)
          for t in ("clean-test", tag)), seed)
    return test


def ensure_scores(path: Path, part, make) -> detector.ScoredSamples:
    """Load (or make with ``make()`` and save) one report row's scores; a
    cached score file must hold exactly the ids and labels of ``part``, in
    order, and takes its tags from ``part``."""
    if not path.exists():
        scored = make()
        detector.save_scores(scored, path)
        return scored
    ids, labels, scores = detector.load_scores(path)
    if not (np.array_equal(ids, part.sample_ids) and np.array_equal(labels, part.anomaly_labels)):
        raise detector.ScoreError(
            f"{path}: {len(scores)} rows that are not the {len(part)}-row detection test part")
    return detector.ScoredSamples(part.sample_ids, part.anomaly_labels, scores, part.tags)


def run_experiment(cfg: ExperimentConfig, out: Path) -> list:
    """Full pipeline; returns MetricReport rows, one per source and method.
    A row whose score file exists is read from it, so a rerun fits no
    detector and runs no MSP forward."""
    out.mkdir(parents=True, exist_ok=True)
    model, _ = ensure_classifier(cfg, out)
    sets = ensure_anomalies(cfg, model, out)
    feature_sets = {mode: ensure_features(cfg, model, sets, mode, out)
                    for mode in gradfeat.FEATURE_MODES}
    # each set's MSP forward runs once, and only when a row that needs it misses
    msp = functools.cache(lambda tag: detector.msp_scores(model, sets[tag].images))

    rows = []
    for tag in list(sets)[1:]:  # every source after clean-test
        seed = child_seed(cfg.master_seed, f"detect:{tag}")
        part = _test_part(sets, tag, seed)
        makers = {mode: functools.partial(detect_and_report, cfg, feature_sets[mode]["clean-test"],
                                          feature_sets[mode][tag], seed)
                  for mode in gradfeat.FEATURE_MODES}
        makers["msp"] = lambda: msp_report(msp("clean-test"), msp(tag), tag, seed)
        for method, make in makers.items():
            scored = ensure_scores(_artifact(cfg, out, f"scores-{tag}-{method}", "gscore"),
                                   part, make)
            rows.append(_report_row(tag, method, scored, detector.evaluate(scored)))
    write_report(cfg, rows, out)
    return rows


def _report_row(tag: str, method: str, scored, metrics: dict) -> detector.MetricReport:
    return detector.MetricReport(tag, method, metrics["accuracy"], metrics["auroc"],
                                 metrics["aupr"], int((scored.labels == 0).sum()),
                                 int((scored.labels == 1).sum()))


def report_kv_text(cfg: ExperimentConfig, rows) -> str:
    lines = [f"config_digest={cfg.digest()}"]
    for r in rows:
        prefix = f"row.{r.source_tag}.{r.method}"
        lines.append(f"{prefix}.accuracy={r.accuracy:.6f}")
        lines.append(f"{prefix}.auroc={r.auroc:.6f}")
        lines.append(f"{prefix}.aupr={r.aupr:.6f}")
        lines.append(f"{prefix}.n_normal={r.n_normal}")
        lines.append(f"{prefix}.n_anomalous={r.n_anomalous}")
    return "\n".join(lines) + "\n"


def report_table_text(cfg: ExperimentConfig, rows) -> str:
    header = f"{'source':<22}{'method':<12}{'accuracy':>10}{'auroc':>10}{'aupr':>10}{'n_norm':>8}{'n_anom':>8}"
    lines = [f"config digest: {cfg.digest()}", header, "-" * len(header)]
    for r in rows:
        lines.append(f"{r.source_tag:<22}{r.method:<12}{r.accuracy:>10.4f}"
                     f"{r.auroc:>10.4f}{r.aupr:>10.4f}{r.n_normal:>8}{r.n_anomalous:>8}")
    return "\n".join(lines) + "\n"


def write_report(cfg: ExperimentConfig, rows, out: Path) -> None:
    """Write ``report-<digest>.kv`` and ``report-<digest>.txt``."""
    for suffix, render in (("kv", report_kv_text), ("txt", report_table_text)):
        with storage.atomic_open(_artifact(cfg, out, "report", suffix)) as fh:
            fh.write(render(cfg, rows))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _setup(args):
    """Load the config with the command-line overrides and create its output
    directory; returns (config, output directory)."""
    cfg = ExperimentConfig.from_file(args.config,
                                     {"out_dir": args.out, "master_seed": args.seed})
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out


def cmd_train_classifier(args) -> int:
    cfg, out = _setup(args)
    model, path = ensure_classifier(cfg, out)
    print(f"checkpoint: {path}")
    print(f"val_accuracy: {model.val_accuracy}")
    return 0


def _sets(cfg: ExperimentConfig, out: Path):
    """The classifier and every set of the run, each loaded or made."""
    model, _ = ensure_classifier(cfg, out)
    return model, ensure_anomalies(cfg, model, out)


def cmd_gen_anomalies(args) -> int:
    cfg, out = _setup(args)
    _, sets = _sets(cfg, out)
    for tag, ds in sets.items():
        print(f"{tag}: {len(ds)} samples")
    return 0


def cmd_extract_features(args) -> int:
    cfg, out = _setup(args)
    model, sets = _sets(cfg, out)
    for mode in gradfeat.FEATURE_MODES:
        for tag, fs in ensure_features(cfg, model, sets, mode, out).items():
            print(f"{mode} {tag}: {fs.dim} columns, {len(fs)} rows")
    return 0


def cmd_run_experiment(args) -> int:
    cfg, out = _setup(args)
    rows = run_experiment(cfg, out)
    print(report_table_text(cfg, rows))
    print(f"report: {_artifact(cfg, out, 'report', 'kv')}")
    return 0


def cmd_compare_norms(args) -> int:
    cfg, out = _setup(args)
    model, sets = _sets(cfg, out)
    lines = []
    for mode in gradfeat.FEATURE_MODES:
        merged = gradfeat.concat_features(ensure_features(cfg, model, sets, mode, out).values())
        summary = gradfeat.norm_summary(merged.values, merged.tags)
        for j, name in enumerate(gradfeat.feature_names(model, mode)):
            lines.append(f"== {mode} / {name} ==")
            lines.append(f"{'source':<22}{'min':>12}{'q1':>12}{'median':>12}{'q3':>12}{'max':>12}")
            for tag, stats in summary.items():
                mn, q1, med, q3, mx = stats[j]
                lines.append(f"{tag:<22}{mn:>12.4g}{q1:>12.4g}{med:>12.4g}{q3:>12.4g}{mx:>12.4g}")
            lines.append("")
    text = "\n".join(lines)
    with storage.atomic_open(_artifact(cfg, out, "norms", "txt")) as fh:
        fh.write(text + "\n")
    print(text)
    return 0


_COMMANDS = {
    "train-classifier": (cmd_train_classifier, "train and checkpoint the classifier"),
    "gen-anomalies": (cmd_gen_anomalies, "generate the clean, adversarial and OOD sets"),
    "extract-features": (cmd_extract_features, "extract both feature modes for every set"),
    "run-experiment": (cmd_run_experiment, "run the full pipeline and report"),
    "compare-norms": (cmd_compare_norms, "per-layer quartile table for every set"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gradgate",
        description="Gradient-feature anomaly detection pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the INI config file")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.set_defaults(handler=handler)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except Exception as exc:  # surface a one-line error and a failing exit code
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
