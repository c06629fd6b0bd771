"""The benchmark's workloads and the correctness checks of their outputs.

Each workload sets up, then repeats a measured unit of work: one
``cli.run_experiment`` call on the pipeline workloads, one block of
``BLOCK_REQUESTS`` scoring requests on ``score-stream``. A unit returns its
wall time, per-request latencies, the samples it handled and one check per
operation; checks run after the unit, outside any timed region and outside
the tracer. Set-up steps whose memory would hide the units' run in a fresh
interpreter (``perfbench/child.py``).
"""

from __future__ import annotations

import hashlib
import math
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gradgate import attacks, cli, data, detector, gradfeat
from gradgate.config import ExperimentConfig, child_seed

# Only these two sizes differ from configs/default.ini: the whole test
# split (990) and 600 OOD samples per kind make one cold call take minutes.
ATTACK_COUNT = 100
OOD_COUNT = 100
PIPELINE_STARTUPS = 5
CHILD_TIMEOUT_S = 170

BLOCK_REQUESTS = 100
MAX_BATCH = 256
POOL_PER_SOURCE = 256
FIT_PER_SOURCE = 192
STREAM_SOURCES = ("clean", "fgsm", "uniform-noise", "textures")
INVARIANCE_RTOL = 1e-9
FGSM_CHUNK = 16


def pipeline_config(root: Path, out: Path, seed: int) -> ExperimentConfig:
    return ExperimentConfig.from_file(
        root / "configs" / "default.ini",
        {"out_dir": str(out), "master_seed": seed,
         "attack_count": ATTACK_COUNT, "ood_count": OOD_COUNT})


def stream_config(root: Path, out: Path, seed: int) -> ExperimentConfig:
    return ExperimentConfig.from_file(root / "configs" / "default.ini",
                                      {"out_dir": str(out), "master_seed": seed})


def run_child(step: str, seed: int, out: Path) -> tuple:
    """Run one step of perfbench/child.py in a fresh interpreter and wait
    for it; returns its wall time, from launch to exit, and its stdout."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("child.py")),
                           step, str(seed), str(out)],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up step {step!r} exited with {proc.returncode}:\n{proc.stderr}")
    return wall, proc.stdout


def source_digest(root: Path) -> str:
    """sha256 over the package sources, the key of the report references."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


@dataclass
class Unit:
    wall_s: float
    latencies_ms: list
    samples: int
    checks: list = field(default_factory=list)   # one callable per operation


def _in_unit_interval(values) -> bool:
    v = np.asarray(values, dtype=np.float64)
    return bool(np.all(np.isfinite(v)) and np.all((v >= 0.0) & (v <= 1.0)))


class Pipeline:
    """``cli.run_experiment`` on the default config with a seeded master seed."""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.work, self.seed = root, work, seed
        self.refs = root / ".perfbench_work" / "refs"
        self.src_digest = source_digest(root)
        self.units = 0
        self.rows = None

    def sizes(self) -> dict:
        cfg = self.config(self.work)
        return {"dataset_count": cfg.dataset_count, "attack_count": cfg.attack_count,
                "ood_count": cfg.ood_count, "cw_iterations": cfg.cw_iterations,
                "epochs": cfg.epochs, "attack_kinds": len(cfg.attack_kinds),
                "ood_kinds": len(cfg.ood_kinds), "samples_per_call": self.samples(cfg)}

    def config(self, out: Path) -> ExperimentConfig:
        return pipeline_config(self.root, out, self.seed)

    @staticmethod
    def samples(cfg: ExperimentConfig) -> int:
        """Images in the sets one call reports on: clean test, attacks, OOD."""
        return (1 + len(cfg.attack_kinds)) * cfg.attack_count + len(cfg.ood_kinds) * cfg.ood_count

    def fresh_dir(self, name: str) -> Path:
        out = self.work / name
        if out.exists():
            shutil.rmtree(out)
        out.mkdir(parents=True)
        return out

    def call(self, cfg: ExperimentConfig, out: Path) -> Unit:
        t0 = time.perf_counter()
        rows = cli.run_experiment(cfg, out)
        wall = time.perf_counter() - t0
        self.rows = rows
        kv = (out / f"report-{cfg.digest()}.kv").read_bytes()
        return Unit(wall, [wall * 1e3], self.samples(cfg),
                    [lambda: self.check_report(cfg, rows, kv)])

    def check_report(self, cfg: ExperimentConfig, rows, kv: bytes) -> list:
        """27 rows with finite metrics in [0, 1], in the returned rows (when
        the call ran in this process) and in the .kv report, and the same
        bytes as any earlier report of this source tree and config."""
        problems = []
        expected = 3 * (len(cfg.attack_kinds) + len(cfg.ood_kinds))
        if rows is not None and len(rows) != expected:
            problems.append(f"{len(rows)} report rows, expected {expected}")
        for r in rows or []:
            if not _in_unit_interval([r.accuracy, r.auroc, r.aupr]):
                problems.append(f"row {r.source_tag}/{r.method} has a metric outside [0, 1]")
        values = {}
        for line in kv.decode().splitlines():
            key, _, value = line.partition("=")
            if key.endswith((".accuracy", ".auroc", ".aupr")):
                values[key] = float(value)
        if sum(k.endswith(".auroc") for k in values) != expected:
            problems.append("the .kv report does not hold one AUROC per row")
        if not _in_unit_interval(list(values.values())):
            problems.append("the .kv report has a metric outside [0, 1]")
        ref = self.refs / f"{self.src_digest[:16]}-{cfg.digest()}.kv"
        if ref.exists():
            if ref.read_bytes() != kv:
                problems.append(f"report differs from the earlier report {ref.name}")
        elif not problems:
            self.refs.mkdir(parents=True, exist_ok=True)
            tmp = ref.with_suffix(f".tmp{time.time_ns()}")
            tmp.write_bytes(kv)
            tmp.replace(ref)
        return problems

    def auroc_min(self) -> float:
        return min(r.auroc for r in self.rows if r.method == "gradient")


class PipelineCold(Pipeline):
    """Every unit is a call into an empty directory, so every artifact is made.
    Set-up is the start-up such a call needs, timed in fresh interpreters."""

    def setup(self) -> list:
        times, digests = [], []
        for _ in range(PIPELINE_STARTUPS):
            wall, stdout = run_child("startup", self.seed, self.work / "cold-0")
            times.append(wall)
            digests.append(stdout.strip())
        digest = self.config(self.work).digest()
        self.setup_checks = [
            lambda d=d: [] if d == digest else
            [f"a fresh interpreter resolved config digest {d!r}, this one {digest!r}"]
            for d in digests]
        return times

    def unit(self) -> Unit:
        self.units += 1
        out = self.fresh_dir(f"cold-{self.units}")
        return self.call(self.config(out), out)


class PipelineWarm(Pipeline):
    """Set-up fills a directory with a cold call in a fresh interpreter; every
    unit is a call on that directory, so every artifact is a cache hit."""

    def setup(self) -> list:
        self.out = self.fresh_dir("warm")
        wall, _ = run_child("fill", self.seed, self.out)
        self.cfg = self.config(self.out)
        self.cold_kv = (self.out / f"report-{self.cfg.digest()}.kv").read_bytes()
        self.setup_checks = [lambda: self.check_report(self.cfg, None, self.cold_kv)]
        return [wall]

    def unit(self) -> Unit:
        unit = self.call(self.cfg, self.out)
        kv = (self.out / f"report-{self.cfg.digest()}.kv").read_bytes()
        report_check = unit.checks[0]
        unit.checks = [lambda: report_check() + (
            [] if kv == self.cold_kv else ["warm report differs from the cold report"])]
        return unit


class ScoreStream:
    """A closed loop of one client: each request scores a batch of new inputs
    with gradient features and a detector fitted during set-up."""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.work, self.seed = root, work, seed
        self.blocks = 0
        self.scores, self.tags = [], []

    def sizes(self) -> dict:
        return {"dataset_count": self.cfg.dataset_count, "epochs": self.cfg.epochs,
                "blocks": self.blocks, "block_requests": BLOCK_REQUESTS,
                "max_batch": MAX_BATCH, "pool_per_source": POOL_PER_SOURCE,
                "fit_per_source": FIT_PER_SOURCE, "sources": list(STREAM_SOURCES)}

    def _inputs(self, model, cfg, per_source: int, role: str):
        """``per_source`` images of each stream source, generated from the seed.
        fgsm runs in chunks: at a batch of 256 its peak memory would be the
        workload's, and ``peak_rss_mb`` should be the stream's."""
        glyphs = data.gen_glyphs(2 * per_source, seed=child_seed(self.seed, f"{role}:glyphs"))
        fgsm = [attacks.fgsm(model, glyphs.images[i:i + FGSM_CHUNK],
                             glyphs.labels[i:i + FGSM_CHUNK], cfg.epsilon).images
                for i in range(per_source, 2 * per_source, FGSM_CHUNK)]
        sets = [glyphs.images[:per_source], np.concatenate(fgsm)]
        for kind in ("uniform-noise", "textures"):
            sets.append(data.gen_ood(kind, per_source, seed=child_seed(self.seed, f"{role}:{kind}"),
                                     shape=glyphs.images.shape[1:]).images)
        tags = np.repeat(np.array(STREAM_SOURCES), per_source)
        return np.concatenate(sets), tags

    def setup(self) -> list:
        t0 = time.perf_counter()
        out = self.work / "stream"
        out.mkdir(parents=True, exist_ok=True)
        run_child("train", self.seed, out)
        self.cfg = cfg = stream_config(self.root, out, self.seed)
        self.model, _ = cli.ensure_classifier(cfg, out)  # loads what the child trained
        self.label = gradfeat.make_confounding_label(
            self.model.num_classes, cfg.confounding_kind, k=cfg.confounding_k,
            seed=child_seed(cfg.master_seed, "label"))
        images, tags = self._inputs(self.model, cfg, FIT_PER_SOURCE, "perfbench:fit")
        per_source = [gradfeat.extract_gradient_features(self.model, images[tags == s],
                                                         self.label, s)
                      for s in STREAM_SOURCES]
        fit_seed = child_seed(self.seed, "perfbench:detect")
        train, val, _ = detector.assemble_detection_sets(
            per_source[0], gradfeat.concat_features(per_source[1:]), fit_seed)
        self.detector = detector.train_detector(
            train, val, hidden=cfg.hidden, seed=fit_seed,
            learning_rate=cfg.detector_learning_rate, batch_size=cfg.detector_batch_size,
            max_epochs=cfg.detector_epochs, patience=cfg.detector_patience)
        self.pool, self.pool_tags = self._inputs(self.model, cfg, POOL_PER_SOURCE,
                                                 "perfbench:pool")
        return [time.perf_counter() - t0]

    def block_requests(self, block: int):
        """Batch sizes drawn log-uniformly from [1, MAX_BATCH], one per
        stratum of equal log width, in seeded order; samples drawn uniformly
        from the pool. Strata keep the size mix, and so the latency
        percentiles, nearly the same for every seed."""
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, block]))
        edges = np.linspace(0.0, math.log(MAX_BATCH + 1), BLOCK_REQUESTS + 1)
        sizes = np.clip(np.floor(np.exp(rng.uniform(edges[:-1], edges[1:]))), 1, MAX_BATCH)
        requests = []
        for size in rng.permutation(sizes.astype(int)):
            idx = rng.integers(0, len(self.pool), size=size)
            requests.append((self.pool[idx], self.pool_tags[idx], int(rng.integers(size))))
        return requests

    def unit(self) -> Unit:
        requests = self.block_requests(self.blocks)
        self.blocks += 1
        latencies, checks, samples = [], [], 0
        for images, tags, probe in requests:
            t0 = time.perf_counter()
            try:
                fs = gradfeat.extract_gradient_features(self.model, images, self.label, "stream")
                scored = detector.score(self.detector, fs)
            except Exception:
                error = traceback.format_exc()
                checks.append(lambda error=error: [error])
                continue
            latencies.append((time.perf_counter() - t0) * 1e3)
            samples += len(images)
            self.scores.append(scored.scores)
            self.tags.append(tags)
            checks.append(lambda images=images, fs=fs, scored=scored, probe=probe:
                          self.check_request(images, fs, scored, probe))
        return Unit(sum(latencies) / 1e3, latencies, samples, checks)

    def check_request(self, images, fs, scored, probe: int) -> list:
        """Finite non-negative features and scores in [0, 1], one per input;
        the probed sample's features equal its features extracted alone."""
        problems = []
        n = len(images)
        if fs.values.shape != (n, len(self.model.params)) or len(scored.scores) != n:
            problems.append(f"request of {n} returned {fs.values.shape} features, "
                            f"{len(scored.scores)} scores")
        elif not (np.all(np.isfinite(fs.values)) and np.all(fs.values >= 0.0)):
            problems.append("non-finite or negative gradient feature")
        elif not _in_unit_interval(scored.scores):
            problems.append("detector score outside [0, 1]")
        else:
            alone = gradfeat.extract_gradient_features(self.model, images[probe:probe + 1],
                                                       self.label, "stream").values[0]
            if np.any(np.abs(fs.values[probe] - alone) > INVARIANCE_RTOL * np.abs(alone)):
                problems.append(f"sample {probe} of a batch of {n}: features differ from "
                                f"the same sample extracted alone")
        return problems

    def auroc_min(self) -> float:
        """Lowest AUROC of one anomalous source against clean inputs, over
        every score the stream returned."""
        scores = np.concatenate(self.scores)
        tags = np.concatenate(self.tags)
        aurocs = []
        for source in STREAM_SOURCES[1:]:
            keep = (tags == "clean") | (tags == source)
            aurocs.append(detector.auroc((tags[keep] == source).astype(int), scores[keep]))
        return min(aurocs)


WORKLOADS = {"pipeline-cold": PipelineCold, "pipeline-warm": PipelineWarm,
             "score-stream": ScoreStream}
