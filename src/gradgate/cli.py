"""Command-line pipeline: train, generate anomalies, extract features,
detect, and report.

Every artifact of a run is a node of one graph, keyed ``(kind, *args)``.
:data:`ARTIFACTS` declares each kind: its file, its inputs, and how to make,
save, load and check it. Files are named by the resolved config digest, so
every command is idempotent. A :class:`Run` checks a node whose file exists
on its header alone, and reads its payload only when a maker or the report
demands it; a missing file costs only the work that makes it. Every command
checks the graph of ``run_experiment`` up to its own stage, so a digest only
ever names what that config makes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import attacks, data, detector, gradfeat, nn, storage
from .config import ExperimentConfig, child_seed


class PipelineError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# the artifact graph
# ---------------------------------------------------------------------------

def make_splits(cfg: ExperimentConfig) -> list:
    """[train, val, test], the test part cut to ``attack_count`` samples."""
    if cfg.dataset_kind == "glyphs":
        ds = data.gen_glyphs(cfg.dataset_count, seed=child_seed(cfg.master_seed, "data"))
    else:
        ds = data.load_idx(cfg.idx_images, cfg.idx_labels)
        if cfg.dataset_count < len(ds):
            ds = ds.subset(np.arange(cfg.dataset_count))
    test_fraction = 1.0 - cfg.train_fraction - cfg.val_fraction
    train, val, test = data.split(ds, (cfg.train_fraction, cfg.val_fraction, test_fraction),
                                  seed=child_seed(cfg.master_seed, "split"))
    if cfg.attack_count and cfg.attack_count < len(test):
        test = test.subset(np.arange(cfg.attack_count))
    return [train, val, test]


def _train(run, split):
    """Train the classifier and write its history. The split's train and
    val parts are dropped, since nothing else reads them."""
    cfg = run.cfg
    model = nn.build_classifier(cfg.arch_spec(), seed=child_seed(cfg.master_seed, "init"))
    model, history = nn.train_classifier(
        model, split[0], split[1], epochs=cfg.epochs, batch_size=cfg.batch_size,
        learning_rate=cfg.learning_rate, momentum=cfg.momentum, weight_decay=cfg.weight_decay,
        seed=child_seed(cfg.master_seed, "train"))
    split[:2] = None, None
    with storage.atomic_open(run.path("history", "txt")) as fh:
        for h in history:
            fh.write(f"epoch={h['epoch']} train_loss={h['train_loss']:.6f} "
                     f"train_accuracy={h['train_accuracy']:.4f} "
                     f"val_accuracy={h['val_accuracy']:.4f}\n")
    return model  # saved after the history: the checkpoint's existence means "done"


def _make_set(run, tag: str, *inputs):
    """The clean test set, an adversarial set or an OOD set. Adversarial
    outputs pass exact budget and range gates before anything is written."""
    cfg, (origin, kind) = run.cfg, tag.split("-", 1)
    if origin == "ood":
        return data.gen_ood(kind, cfg.ood_count, seed=child_seed(cfg.master_seed, tag),
                            shape=cfg.arch_spec().input_shape)
    test = inputs[-1][2]
    if origin == "clean":
        return data.Dataset(test.images, test.labels, tag, test.seed)
    seed = child_seed(cfg.master_seed, f"attack:{kind}")
    result = attacks.run_attack(
        inputs[0], test.images, test.labels, kind, epsilon=cfg.epsilon, alpha=cfg.alpha,
        iterations=cfg.iterations, cw_c=cfg.cw_c, cw_iterations=cfg.cw_iterations,
        cw_lr=cfg.cw_lr, seed=seed)
    _gate_attack(kind, result, cfg.epsilon)
    return data.Dataset(result.images, test.labels, tag, seed)


def _gate_attack(kind: str, result: attacks.AttackResult, epsilon: float) -> None:
    if result.images.min() < 0.0 or result.images.max() > 1.0:
        raise PipelineError(f"{kind}: adversarial pixels escaped [0, 1]")
    if kind in ("fgsm", "bim", "pgd", "iterll") and result.linf.max() > epsilon:
        raise PipelineError(f"{kind}: perturbation {result.linf.max()} exceeds "
                            f"epsilon {epsilon}")
    if not np.all(np.isfinite(result.images)):
        raise PipelineError(f"{kind}: non-finite adversarial pixels")


def _check_features(run, header: storage.Header, mode: str, tag: str) -> None:
    """A feature file holds one row per sample of its set, and that set's tag."""
    rows, want, got = header.rows("values"), run.rows(tag), header.metadata.get("source_tag")
    if rows != want:
        raise gradfeat.FeatureError(f"{header.path}: {rows} rows for a set of {want} samples")
    if got != tag:
        raise gradfeat.FeatureError(f"{header.path}: features of {got!r}, not of {tag!r}")


def detect_and_report(run, tag: str, method: str, normal, anomalous):
    """Split both sides 40/40/20 and score the held-out test part: by a
    detector trained on the rest, or, for MSP, by its one column."""
    seed = run.detection_seeds[tag]
    train, val, test = detector.assemble_detection_sets(normal, anomalous, seed)
    if method == "msp":
        return detector.ScoredSamples(test.sample_ids, test.anomaly_labels, test.values[:, 0])
    cfg = run.cfg
    det = detector.train_detector(
        train, val, hidden=cfg.hidden, seed=seed,
        learning_rate=cfg.detector_learning_rate, batch_size=cfg.detector_batch_size,
        max_epochs=cfg.detector_epochs, patience=cfg.detector_patience)
    return detector.score(det, test)


def _load_scores(run, path: Path, tag: str, method: str) -> detector.ScoredSamples:
    """A score file must hold exactly the ids and labels of its row's test
    part, in order."""
    part_ids, part_labels = run.demand(("part", tag))
    ids, labels, scores = detector.load_scores(path)
    if not (np.array_equal(ids, part_ids) and np.array_equal(labels, part_labels)):
        raise detector.ScoreError(
            f"{path}: {len(scores)} rows that are not the {len(part_ids)}-row detection test part")
    return detector.ScoredSamples(part_ids, part_labels, scores)


class Kind(NamedTuple):
    """``make(run, *args, *values)`` gets the values of the keys
    ``inputs(run, *args)``. A kind with ``file(*args) -> (stem, ext)`` is
    written by ``save`` and read by ``load``; ``check(run, header, *args)``
    raises on a whole file that is not this node's, and a file kind without
    one is checked by loading it. Other kinds live in memory only."""

    inputs: Callable
    make: Callable
    file: Callable = None
    magic: bytes = b""
    save: Callable = None
    load: Callable = None
    check: Callable = None


SPLIT, CLASSIFIER = ("split",), ("classifier",)
METHODS = (*gradfeat.FEATURE_MODES, "msp")

# Stage functions are looked up in their modules at call time, so a binding
# replaced from outside (a tracer, a test spy) is the one that runs.
ARTIFACTS = {
    "split": Kind(inputs=lambda run: [], make=lambda run: make_splits(run.cfg)),
    "classifier": Kind(
        inputs=lambda run: [SPLIT], make=_train,
        file=lambda: ("classifier", "ggate"), magic=nn.CHECKPOINT_MAGIC,
        save=lambda run, model, path: nn.save_checkpoint(model, path),
        load=lambda run, path: nn.load_checkpoint(path), check=lambda run, header: None),
    "set": Kind(
        inputs=lambda run, tag: {"clean": [SPLIT], "adv": [CLASSIFIER, SPLIT],
                                 "ood": []}[tag.split("-")[0]],
        make=_make_set, file=lambda tag: (tag, "gdata"), magic=data.DATASET_MAGIC,
        save=lambda run, ds, path: data.save_dataset(
            ds, path, extra_metadata={"config_digest": run.digest}),
        load=lambda run, path, tag: data.load_dataset(path),
        check=lambda run, header, tag: header.rows("images")),
    "features": Kind(
        inputs=lambda run, mode, tag: [CLASSIFIER, ("set", tag)],
        make=lambda run, mode, tag, model, ds: gradfeat.extract_features(
            model, ds.images, mode, run.cfg.confounding_label(model.num_classes), tag),
        file=lambda mode, tag: (f"features-{mode}-{tag}", "gfeat"), magic=gradfeat.FEATURE_MAGIC,
        save=lambda run, fs, path: gradfeat.save_features(fs, path),
        load=lambda run, path, mode, tag: gradfeat.load_features(path), check=_check_features),
    # MSP scores as a one-column feature set, so every method splits alike
    "msp": Kind(inputs=lambda run, tag: [CLASSIFIER, ("set", tag)],
                make=lambda run, tag, model, ds: gradfeat.unlabeled_features(
                    detector.msp_scores(model, ds.images)[:, None], tag)),
    # the ids and labels every method at a tag scores; they follow from the sets' sizes
    "part": Kind(inputs=lambda run, tag: [], make=lambda run, tag: detector.detection_test_part(
        [run.rows(t) for t in ("clean-test", tag)], run.detection_seeds[tag])),
    "scores": Kind(
        inputs=lambda run, tag, method: [("msp", t) if method == "msp" else ("features", method, t)
                                         for t in ("clean-test", tag)],
        make=lambda *args: detect_and_report(*args),
        file=lambda tag, method: (f"scores-{tag}-{method}", "gscore"),
        save=lambda run, scored, path: detector.save_scores(scored, path), load=_load_scores),
}


def artifact_path(out: Path, digest: str, stem: str, ext: str) -> Path:
    """``<stem>-<config digest>.<ext>`` in ``out``: the name of every file a run writes."""
    return out / f"{stem}-{digest}.{ext}"


class Run:
    """The artifact graph of one config in one output directory: each node
    is loaded or made at most once, and its value kept."""

    def __init__(self, cfg: ExperimentConfig, out: Path):
        out.mkdir(parents=True, exist_ok=True)
        storage.remove_stale_temporaries(out)
        self.cfg, self.out, self.digest = cfg, out, cfg.digest()
        self.tags = tags = ["clean-test", *(f"adv-{kind}" for kind in cfg.attack_kinds),
                            *(f"ood-{kind}" for kind in cfg.ood_kinds)]
        # the seed of each anomalous set's detection split, detectors and test "part"
        self.detection_seeds = {t: child_seed(cfg.master_seed, f"detect:{t}") for t in tags[1:]}
        # every file node by kind, in the order a cold run makes them
        self.keys = {"classifier": [CLASSIFIER], "set": [("set", t) for t in tags],
                     "features": [("features", m, t) for m in gradfeat.FEATURE_MODES
                                  for t in tags],
                     "scores": [("scores", t, m) for t in tags[1:] for m in METHODS]}
        self.values, self.headers = {}, {}

    def path(self, stem: str, ext: str) -> Path:
        return artifact_path(self.out, self.digest, stem, ext)

    def check(self, *kinds: str) -> None:
        """Check every node of ``kinds`` in order: see :meth:`header`."""
        for kind in kinds:
            for key in self.keys[kind]:
                self.header(key)

    def header(self, key):
        """Check that the file of ``key`` is whole and this node's, reading
        its header only, or make the node when its file is missing. Returns
        the header, or None when only the value is known."""
        if key not in self.headers and key not in self.values:
            kind, path = self._kind(key)
            if kind.check and path.exists():
                header = storage.read_header(path, kind.magic)
                kind.check(self, header, *key[1:])
                self.headers[key] = header
            else:
                self.demand(key)
        return self.headers.get(key)

    def demand(self, key):
        """The value of ``key``: loaded from its checked file, or made from
        its inputs and saved."""
        if key not in self.values:
            kind, path = self._kind(key)
            if path and path.exists():
                if kind.check:
                    self.header(key)
                value = kind.load(self, path, *key[1:])
            else:
                value = kind.make(self, *key[1:], *map(self.demand, kind.inputs(self, *key[1:])))
                if path:
                    kind.save(self, value, path)
            self.values[key] = value
        return self.values[key]

    def rows(self, tag: str) -> int:
        """The sample count of set ``tag``, from its header if it has one."""
        header = self.header(("set", tag))
        return header.rows("images") if header else len(self.values[("set", tag)])

    def _kind(self, key) -> tuple:
        kind = ARTIFACTS[key[0]]
        return kind, kind.file and self.path(*kind.file(*key[1:]))


def ensure_classifier(cfg: ExperimentConfig, out: Path):
    """Train (or reload) the classifier for this config digest."""
    run = Run(cfg, out)
    return run.demand(CLASSIFIER), run.path("classifier", "ggate")


def run_experiment(cfg: ExperimentConfig, out: Path) -> list:
    """Full pipeline; returns MetricReport rows, one per source and method.
    Every artifact is checked, or made when missing, so a full hit reads
    only the score files' payloads."""
    run = Run(cfg, out)
    run.check("classifier", "set", "features")
    rows = []
    for key in run.keys["scores"]:
        scored = run.demand(key)
        m = detector.evaluate(scored)
        rows.append(detector.MetricReport(*key[1:], m["accuracy"], m["auroc"], m["aupr"],
                                          int((scored.labels == 0).sum()),
                                          int((scored.labels == 1).sum())))
    write_report(cfg, rows, out)
    return rows


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
        with storage.atomic_open(artifact_path(out, cfg.digest(), "report", suffix)) as fh:
            fh.write(render(cfg, rows))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _config(args) -> tuple:
    """The config file with the command-line overrides, and its output directory."""
    cfg = ExperimentConfig.from_file(args.config,
                                     {"out_dir": args.out, "master_seed": args.seed})
    return cfg, Path(cfg.out_dir)


def _run(args, *kinds: str) -> Run:
    """The run of :func:`_config`, with every node of ``kinds`` checked."""
    run = Run(*_config(args))
    run.check(*kinds)
    return run


def cmd_train_classifier(args) -> int:
    model, path = ensure_classifier(*_config(args))
    print(f"checkpoint: {path}")
    print(f"val_accuracy: {model.val_accuracy}")
    return 0


def cmd_gen_anomalies(args) -> int:
    run = _run(args, "classifier", "set")
    for tag in run.tags:
        print(f"{tag}: {run.rows(tag)} samples")
    return 0


def cmd_extract_features(args) -> int:
    run = _run(args, "classifier", "set", "features")
    for key in run.keys["features"]:
        fs = run.demand(key)
        print(f"{key[1]} {key[2]}: {fs.dim} columns, {len(fs)} rows")
    return 0


def cmd_run_experiment(args) -> int:
    cfg, out = _config(args)
    rows = run_experiment(cfg, out)
    print(report_table_text(cfg, rows))
    print(f"report: {artifact_path(out, cfg.digest(), 'report', 'kv')}")
    return 0


def cmd_compare_norms(args) -> int:
    run = _run(args, "classifier", "set")
    model, lines = run.demand(CLASSIFIER), []
    for mode in gradfeat.FEATURE_MODES:
        summaries = [gradfeat.norm_summary(run.demand(("features", mode, tag)).values)
                     for tag in run.tags]
        for j, name in enumerate(gradfeat.feature_names(model, mode)):
            lines.append(f"== {mode} / {name} ==")
            lines.append(f"{'source':<22}{'min':>12}{'q1':>12}{'median':>12}{'q3':>12}{'max':>12}")
            for tag, stats in zip(run.tags, summaries):
                mn, q1, med, q3, mx = stats[:, j]
                lines.append(f"{tag:<22}{mn:>12.4g}{q1:>12.4g}{med:>12.4g}{q3:>12.4g}{mx:>12.4g}")
            lines.append("")
    text = "\n".join(lines)
    with storage.atomic_open(run.path("norms", "txt")) as fh:
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
