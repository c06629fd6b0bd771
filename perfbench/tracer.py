"""Span tracer for the gradgate layers, installed from outside the package.

``Tracer.installed()`` replaces every binding of a traced function by a
wrapper that records one span per call: name, parent span, start, end and an
optional detail value (a mode, a sample count, a byte count, a success
rate). Traced functions are the public module-level functions of each layer
module, the autodiff ops in ``AUTODIFF_OPS`` wherever a module imported
them (``gradgate.attacks.backward``, ``gradgate.nn.conv2d``, ...), and
``Classifier.forward``. Leaving the block puts every original binding back,
so code run outside it executes the package unchanged.

``layer_metrics`` turns the recorded spans into the per-layer metrics listed
in ``PER_LAYER``. A span's self time is its duration minus the durations of
its child spans (calls are nested and single-threaded, so children never
overlap).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
import types

LAYERS = ("cli", "nn", "attacks", "autodiff", "gradfeat", "detector", "data", "storage")
AUTODIFF_OPS = ("conv2d", "maxpool2d", "matmul", "relu", "backward")
# called once per float written; a span each would swamp the trace
UNTRACED = {"storage.fmt_float"}
MARK = "_perfbench_span"

ATTACKS = {"fgsm": "fgsm", "bim": "bim", "pgd": "pgd", "iterll": "iterll",
           "cw": "cw_l2", "semantic": "semantic"}
PROBE_OPS = ("conv2d_l0", "conv2d_l1", "maxpool2d", "dense", "relu",
             "softmax_cross_entropy", "bce_with_logits")
PROBE_BATCHES = (990, 1)


def _per_layer_spec():
    spec = []
    for op in AUTODIFF_OPS:
        spec += [(f"autodiff.{op}_calls", "count", "lower"),
                 (f"autodiff.{op}_self_s", "s", "lower")]
    for op in PROBE_OPS:
        for b in PROBE_BATCHES:
            spec += [(f"autodiff.probe.{op}.b{b}.fwd_ms", "ms", "lower"),
                     (f"autodiff.probe.{op}.b{b}.bwd_ms", "ms", "lower")]
    spec += [("autodiff.probe.conv2d_l1.b990.gflops", "GFLOP/s", "higher"),
             ("autodiff.probe.smallcnn.b990.fwd_ms", "ms", "lower"),
             ("autodiff.probe.smallcnn.b990.bwd_ms", "ms", "lower")]
    for kind in ATTACKS:
        spec += [(f"attacks.{kind}_s", "s", "lower"),
                 (f"attacks.{kind}_grad_evals", "count", "lower"),
                 (f"attacks.{kind}_success_rate", "ratio", "higher")]
    spec += [("nn.train_s", "s", "lower"), ("nn.train_steps", "count", "lower"),
             ("nn.forward_calls", "count", "lower"), ("nn.forward_self_s", "s", "lower"),
             ("nn.checkpoint_io_s", "s", "lower"),
             ("gradfeat.gradient_s", "s", "lower"),
             ("gradfeat.gradient_samples_per_s", "1/s", "higher"),
             ("gradfeat.backward_per_sample", "ratio", "lower"),
             ("gradfeat.activation_s", "s", "lower"),
             ("gradfeat.csv_write_s", "s", "lower"), ("gradfeat.csv_read_s", "s", "lower"),
             ("detector.train_s", "s", "lower"), ("detector.train_steps", "count", "lower"),
             ("detector.msp_s", "s", "lower"), ("detector.msp_samples", "count", "lower"),
             ("detector.score_s", "s", "lower"), ("detector.evaluate_s", "s", "lower"),
             ("data.generate_s", "s", "lower"), ("data.dataset_io_s", "s", "lower"),
             ("storage.write_s", "s", "lower"), ("storage.write_bytes", "B", "lower"),
             ("storage.read_s", "s", "lower"), ("storage.read_bytes", "B", "lower"),
             ("cli.ensure_classifier_s", "s", "lower"), ("cli.ensure_anomalies_s", "s", "lower"),
             ("cli.ensure_features_gradient_s", "s", "lower"),
             ("cli.ensure_features_activation_s", "s", "lower"),
             ("cli.detect_s", "s", "lower"), ("cli.msp_report_s", "s", "lower"),
             ("cli.cache_hits", "count", "higher"), ("cli.cache_misses", "count", "lower"),
             ("trace.overhead_s", "s", "lower")]
    return spec


PER_LAYER = _per_layer_spec()


def _file_size(args, result):
    return os.path.getsize(args["path"])


def _len_images(args, result):
    return len(args["images"])


def _success_rate(args, result):
    return float(result.success.mean()) if len(result.success) else 0.0


# detail value recorded on a span, from the bound arguments and the result
DETAILS = {
    "cli.ensure_features": lambda args, result: args["mode"],
    "gradfeat.extract_gradient_features": _len_images,
    "detector.msp_scores": _len_images,
    "storage.write_container": _file_size,
    "storage.read_container": _file_size,
    **{f"attacks.{fn}": _success_rate for fn in ATTACKS.values()},
}


def _gradgate_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "gradgate" or name.startswith("gradgate.")) and m is not None]


def wrapped_bindings() -> list:
    """Every binding in the gradgate package that currently holds a tracer
    wrapper; empty whenever no tracer is installed."""
    nn = importlib.import_module("gradgate.nn")
    found = [f"{m.__name__}.{name}" for m in _gradgate_modules()
             for name, obj in vars(m).items() if hasattr(obj, MARK)]
    if hasattr(vars(nn.Classifier)["forward"], MARK):
        found.append("gradgate.nn.Classifier.forward")
    return found


class Tracer:
    """Records spans while installed; spans stay in memory until written."""

    def __init__(self):
        self.names: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self.details: list = []
        self._stack: list = []
        self._saved: list = []

    def __len__(self) -> int:
        return len(self.names)

    def _wrap(self, name: str, fn):
        detail = DETAILS.get(name)
        signature = inspect.signature(fn) if detail else None
        names, parents, starts, ends, details = (
            self.names, self.parents, self.starts, self.ends, self.details)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            details.append(None)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if detail is not None:
                details[idx] = detail(signature.bind(*args, **kwargs).arguments, result)
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def _originals(self) -> dict:
        """Map each traced function object to its span name."""
        traced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"gradgate.{layer}")
            for attr, obj in vars(module).items():
                if (not isinstance(obj, types.FunctionType) or attr.startswith("_")
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                if (layer == "autodiff" and attr not in AUTODIFF_OPS) or name in UNTRACED:
                    continue
                traced[obj] = name
        return traced

    def install(self) -> None:
        if self._saved or wrapped_bindings():
            raise RuntimeError("a tracer is already installed")
        traced = self._originals()
        wrappers = {fn: self._wrap(name, fn) for fn, name in traced.items()}
        for module in _gradgate_modules():
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        classifier = importlib.import_module("gradgate.nn").Classifier
        forward = vars(classifier)["forward"]
        self._saved.append((classifier, "forward", forward))
        classifier.forward = self._wrap("nn.forward", forward)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, obj = self._saved.pop()
            setattr(owner, attr, obj)

    @contextlib.contextmanager
    def installed(self):
        try:  # a failed install restores what it had replaced
            self.install()
            yield self
        finally:
            self.uninstall()

    def write(self, path) -> None:
        """One line per span: index, parent, name, start, end, detail."""
        with open(path, "w") as fh:
            fh.write("index,parent,name,start_s,end_s,detail\n")
            for i, name in enumerate(self.names):
                detail = "" if self.details[i] is None else self.details[i]
                fh.write(f"{i},{self.parents[i]},{name},{self.starts[i]!r},"
                         f"{self.ends[i]!r},{detail}\n")


class SpanTable:
    """Aggregates over a finished trace: inclusive time, self time, counts,
    and the nearest enclosing span of a chosen set of names."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.parents = tracer.parents
        self.details = tracer.details
        self.dur = [e - s for s, e in zip(tracer.starts, tracer.ends)]
        child = [0.0] * len(self.dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def spans(self, name: str) -> list:
        return [i for i, n in enumerate(self.names) if n == name]

    def count(self, name: str) -> int:
        return len(self.spans(name))

    def total(self, *names: str) -> float:
        wanted = set(names)
        return sum(d for n, d in zip(self.names, self.dur) if n in wanted)

    def self_total(self, name: str) -> float:
        return sum(s for n, s in zip(self.names, self.self_time) if n == name)

    def enclosing(self, names) -> list:
        """For each span, the nearest span (itself included) whose name is in
        ``names``, or -1. Parents precede children, so one pass suffices."""
        wanted = set(names)
        owner = [-1] * len(self.names)
        for i, (n, p) in enumerate(zip(self.names, self.parents)):
            owner[i] = i if n in wanted else (owner[p] if p >= 0 else -1)
        return owner

    def count_under(self, name: str, ancestor: str) -> int:
        owner = self.enclosing([ancestor])
        return sum(1 for i, n in enumerate(self.names) if n == name and owner[i] >= 0)


def layer_metrics(table: SpanTable) -> dict:
    """Per-layer metric values derived from one traced unit of work."""
    m = {}
    for op in AUTODIFF_OPS:
        m[f"autodiff.{op}_calls"] = table.count(f"autodiff.{op}")
        m[f"autodiff.{op}_self_s"] = table.self_total(f"autodiff.{op}")

    for kind, fn in ATTACKS.items():
        name = f"attacks.{fn}"
        rates = [table.details[i] for i in table.spans(name)]
        m[f"attacks.{kind}_s"] = table.total(name)
        m[f"attacks.{kind}_grad_evals"] = table.count_under("autodiff.backward", name)
        m[f"attacks.{kind}_success_rate"] = sum(rates) / len(rates) if rates else 0.0

    m["nn.train_s"] = table.total("nn.train_classifier")
    m["nn.train_steps"] = table.count_under("autodiff.backward", "nn.train_classifier")
    m["nn.forward_calls"] = table.count("nn.forward")
    m["nn.forward_self_s"] = table.self_total("nn.forward")
    m["nn.checkpoint_io_s"] = table.total("nn.save_checkpoint", "nn.load_checkpoint")

    extract = "gradfeat.extract_gradient_features"
    samples = sum(table.details[i] for i in table.spans(extract))
    gradient_s = table.total(extract)
    m["gradfeat.gradient_s"] = gradient_s
    m["gradfeat.gradient_samples_per_s"] = samples / gradient_s if gradient_s else 0.0
    m["gradfeat.backward_per_sample"] = (
        table.count_under("autodiff.backward", extract) / samples if samples else 0.0)
    m["gradfeat.activation_s"] = table.total("gradfeat.extract_activation_features")
    m["gradfeat.csv_write_s"] = table.total("gradfeat.save_features_csv")
    m["gradfeat.csv_read_s"] = table.total("gradfeat.load_features_csv")

    m["detector.train_s"] = table.total("detector.train_detector")
    m["detector.train_steps"] = table.count_under("autodiff.backward", "detector.train_detector")
    m["detector.msp_s"] = table.total("detector.msp_scores")
    m["detector.msp_samples"] = sum(table.details[i] for i in table.spans("detector.msp_scores"))
    m["detector.score_s"] = table.total("detector.score")
    m["detector.evaluate_s"] = table.total("detector.evaluate")

    m["data.generate_s"] = table.total("data.gen_glyphs", "data.gen_ood")
    m["data.dataset_io_s"] = table.total("data.save_dataset", "data.load_dataset")
    for op, fn in (("write", "write_container"), ("read", "read_container")):
        name = f"storage.{fn}"
        m[f"storage.{op}_s"] = table.total(name)
        m[f"storage.{op}_bytes"] = sum(table.details[i] for i in table.spans(name))

    m["cli.ensure_classifier_s"] = table.total("cli.ensure_classifier")
    m["cli.ensure_anomalies_s"] = table.total("cli.ensure_anomalies")
    for mode in ("gradient", "activation"):
        m[f"cli.ensure_features_{mode}_s"] = sum(
            table.dur[i] for i in table.spans("cli.ensure_features") if table.details[i] == mode)
    m["cli.detect_s"] = table.total("cli.detect_and_report")
    m["cli.msp_report_s"] = table.total("cli.msp_report")
    m["cli.cache_hits"], m["cli.cache_misses"] = _cache_counts(table)
    return m


# Inside each ensure_* stage, one call of the first function marks an
# artifact read from the cache and one call of the second an artifact made.
_CACHE_SIGNS = {
    "cli.ensure_classifier": ("nn.load_checkpoint", "nn.save_checkpoint"),
    "cli.ensure_anomalies": ("data.load_dataset", "data.save_dataset"),
    "cli.ensure_features": ("gradfeat.load_features_csv", "gradfeat.save_features_csv"),
}


def _cache_counts(table: SpanTable):
    owner = table.enclosing(_CACHE_SIGNS)
    hits = misses = 0
    for i, n in enumerate(table.names):
        if owner[i] < 0:
            continue
        hit, miss = _CACHE_SIGNS[table.names[owner[i]]]
        hits += n == hit
        misses += n == miss
    return hits, misses
