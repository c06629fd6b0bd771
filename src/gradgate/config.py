"""Experiment configuration: flat key=value sections, content digests, and
master-seed derivation.

Every pipeline artifact is named by the digest of the resolved
configuration, which makes reruns idempotent and provenance auditable.
Sub-seeds derive from the master seed and a role string through sha256, so
adding a stage never perturbs the seeds of existing stages.
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import math
from dataclasses import dataclass, fields

from .attacks import ATTACK_KINDS
from .data import GLYPH_SIZE, OOD_KINDS, DataError, idx_image_header
from .gradfeat import ConfoundingLabel, make_confounding_label
from .nn import ArchSpec, mlp, small_cnn


def child_seed(master_seed: int, role: str) -> int:
    """Stable 63-bit sub-seed for one pipeline role."""
    digest = hashlib.sha256(f"{master_seed}:{role}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass(frozen=True)
class ExperimentConfig:
    # experiment
    out_dir: str = "runs"
    master_seed: int = 7

    # dataset
    dataset_kind: str = "glyphs"          # glyphs | idx
    dataset_count: int = 3000
    train_fraction: float = 0.5
    val_fraction: float = 0.17
    idx_images: str = ""
    idx_labels: str = ""

    # model
    arch: str = "smallcnn"                # alias or full arch string
    epochs: int = 8
    batch_size: int = 64
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4

    # attacks
    attack_kinds: tuple = ATTACK_KINDS
    epsilon: float = 0.1
    alpha: float = 0.01
    iterations: int = 10
    cw_c: float = 1.0
    cw_iterations: int = 200
    cw_lr: float = 0.1
    attack_count: int = 0                 # 0 = whole test split

    # ood
    ood_kinds: tuple = OOD_KINDS
    ood_count: int = 600

    # features
    confounding_kind: str = "all-ones"
    confounding_k: int = 2

    # detector
    hidden: int = 64
    detector_epochs: int = 200
    detector_patience: int = 10
    detector_learning_rate: float = 0.05
    detector_batch_size: int = 32

    _SECTIONS = {
        "experiment": ("out_dir", "master_seed"),
        "dataset": ("dataset_kind", "dataset_count", "train_fraction", "val_fraction",
                    "idx_images", "idx_labels"),
        "model": ("arch", "epochs", "batch_size", "learning_rate", "momentum",
                  "weight_decay"),
        "attacks": ("attack_kinds", "epsilon", "alpha", "iterations", "cw_c",
                    "cw_iterations", "cw_lr", "attack_count"),
        "ood": ("ood_kinds", "ood_count"),
        "features": ("confounding_kind", "confounding_k"),
        "detector": ("hidden", "detector_epochs", "detector_patience",
                     "detector_learning_rate", "detector_batch_size"),
    }

    def validate(self) -> "ExperimentConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.dataset_kind not in ("glyphs", "idx"):
            raise ValueError(f"unknown dataset kind {self.dataset_kind!r}")
        if self.dataset_kind == "idx" and not (self.idx_images and self.idx_labels):
            raise ValueError("idx dataset needs idx_images and idx_labels paths")
        for key in ("train_fraction", "val_fraction", "learning_rate", "alpha", "cw_c", "cw_lr",
                    "detector_learning_rate"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be > 0, got {getattr(self, key)}")
        if not self.train_fraction + self.val_fraction < 1:
            raise ValueError("train and val fractions must leave room for a test split")
        for key, known in (("attack_kinds", ATTACK_KINDS), ("ood_kinds", OOD_KINDS)):
            kinds = getattr(self, key)
            for kind in kinds:
                if kind not in known:
                    raise ValueError(f"{key} lists an unknown kind {kind!r}")
            if len(set(kinds)) != len(kinds):
                raise ValueError(f"{key} lists a kind twice: {','.join(kinds)}")
        for key, low in _MINIMUMS.items():
            value = getattr(self, key)
            if not value >= low:
                raise ValueError(f"{key} must be >= {low}, got {value}")
        if not self.momentum < 1:
            raise ValueError(f"momentum must be < 1, got {self.momentum}")
        if 0 < self.attack_count < 3:  # it also sizes the clean set, which must fill the split
            raise ValueError(f"attack_count must be 0 or >= 3, got {self.attack_count}")
        # these raise on a malformed arch string, an unknown label kind, or a
        # k-hot k outside [2, num_classes]
        arch = self.arch_spec()
        self.confounding_label(arch.num_classes)
        image, source = (1, GLYPH_SIZE, GLYPH_SIZE), "one glyph"
        if self.dataset_kind == "idx":
            try:
                image = (1,) + idx_image_header(self.idx_images)[1:]
            except (OSError, DataError) as exc:
                raise ValueError(f"idx_images {self.idx_images}: {exc}") from None
            source = f"one image of {self.idx_images}"
        if arch.input_shape != image:
            raise ValueError(f"arch input shape {arch.input_shape} is not {image}, that of {source}")
        return self

    # -- structured views -------------------------------------------------

    def arch_spec(self) -> ArchSpec:
        if self.arch == "smallcnn":
            return small_cnn()
        if self.arch == "mlp":
            return mlp()
        return ArchSpec.from_string(self.arch)

    def confounding_label(self, num_classes: int) -> ConfoundingLabel:
        """The confounding label every command of a run scores with."""
        return make_confounding_label(num_classes, self.confounding_kind,
                                      k=self.confounding_k,
                                      seed=child_seed(self.master_seed, "label"))

    # -- serialization ----------------------------------------------------

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "ExperimentConfig":
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise FileNotFoundError(f"config file {path} not found")
        known = {f.name: f for f in fields(cls) if not f.name.startswith("_")}
        kwargs = {}
        for section in parser.sections():
            if section not in cls._SECTIONS:
                raise ValueError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in cls._SECTIONS[section]:
                    raise ValueError(f"unknown key {key!r} in section [{section}]")
                kwargs[key] = _coerce(known[key].default, raw)
        for key, value in (overrides or {}).items():
            if key not in known:
                raise ValueError(f"unknown key {key!r} in overrides")
            if value is not None:
                kwargs[key] = value
        return cls(**kwargs).validate()

    def resolved_text(self) -> str:
        """Canonical key=value rendering used for digests and provenance.

        out_dir is excluded: where artifacts live must not change their
        identity, so reruns in another directory still hit the same names.
        confounding_k is excluded unless the label is k-hot, the only kind
        that reads it, so editing it elsewhere reruns nothing.
        """
        lines = []
        for section, keys in self._SECTIONS.items():
            lines.append(f"[{section}]")
            for key in keys:
                if key == "out_dir" or (key == "confounding_k"
                                        and self.confounding_kind != "k-hot"):
                    continue
                value = getattr(self, key)
                if isinstance(value, tuple):
                    value = ",".join(value)
                lines.append(f"{key} = {value}")
            lines.append("")
        return "\n".join(lines)

    @functools.cache
    def digest(self) -> str:
        return hashlib.sha256(self.resolved_text().encode()).hexdigest()[:12]


# Lowest valid value of each numeric key with a floor; validate() checks the
# keys that must be > 0 and the other bounds.
_MINIMUMS = {
    "dataset_count": 1,
    "epochs": 0,
    "batch_size": 1,
    "momentum": 0.0,
    "weight_decay": 0.0,
    "epsilon": 0.0,
    "iterations": 1,
    "cw_iterations": 1,
    "ood_count": 3,          # fills every part of the 40/40/20 detection split
    "attack_count": 0,       # 0 = whole test split; see validate()
    "hidden": 1,
    "detector_epochs": 1,
    "detector_patience": 1,
    "detector_batch_size": 1,
}


def _coerce(default, raw: str):
    raw = raw.strip()
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    if isinstance(default, tuple):
        return tuple(part.strip() for part in raw.split(",") if part.strip())
    return raw
