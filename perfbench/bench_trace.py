"""Span tracing from outside the program, and the per-layer metrics built on it.

``Tracer.install`` wraps public functions of the program's modules and
rebinds each wrapper under every name that refers to the original function
in any loaded ``misinfo_mtl`` module, because several modules import names
directly (``training`` imports ``task_step_gradients``, ``evaluation``
imports ``predict``, ``multitask`` imports ``encode``). Spans are kept in
memory; nothing here draws from a random generator, so a traced run must
produce bit-identical results to an untraced one.
"""

import importlib
import inspect
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bench_stats import tail_percentile

# (module, function) pairs that get a span; the span is named "<module>.<function>"
# except for encode_batch, which splits into forward_train / forward_eval.
TARGETS = (
    ("tokenization", "encode"),
    ("tokenization", "build_vocab"),
    ("encoder", "encode_batch"),
    ("encoder", "backward"),
    ("multitask", "task_step_gradients"),
    ("multitask", "task_loss"),
    ("multitask", "predict"),
    ("multitask", "encode_for_task"),
    ("training", "train_multitask"),
    ("training", "finetune_task"),
    ("training", "make_epoch_schedule"),
    ("training", "adam_step"),
    ("data", "load_dataset"),
    ("data", "split"),
    ("checkpoint", "save_model"),
    ("checkpoint", "load_model"),
    ("evaluation", "evaluate_model"),
    ("evaluation", "fewshot_run"),
    ("metrics", "compute_report"),
)

CLI_COMMANDS = ("train", "finetune", "eval", "fewshot")


@dataclass
class Span:
    name: str
    span_id: int
    parent: int | None
    command: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_time(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals if e > start and s < end)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(span: Span, descendants) -> float:
    """Span duration minus the part of it that descendant spans cover."""
    return span.duration - covered_time(span.start, span.end, [(d.start, d.end) for d in descendants])


class Tracer:
    """Records spans around calls into the program while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._command = 0
        self._head_only = False
        self._restore: list[tuple[object, str, object]] = []

    # --- span bookkeeping --------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(name=name, span_id=len(self.spans), parent=parent, command=self._command,
                    start=time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def command(self, cli_command: str, call):
        """Run ``call()`` as one CLI command: a root span all others nest under."""
        self._command += 1
        span = self.open(f"cli.{cli_command}")
        try:
            return call()
        finally:
            self.close(span)

    # --- wrappers ----------------------------------------------------------------

    def _wrap(self, module_name: str, fn_name: str, fn):
        sig = inspect.signature(fn)
        describe = getattr(self, f"_describe_{fn_name}", None)
        default_name = f"{module_name}.{fn_name}"
        tracer = self

        def wrapper(*args, **kwargs):
            arguments = None
            if describe is not None or fn_name == "fewshot_run":
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            span = tracer.open((describe and describe(arguments, None, None)) or default_name)
            outer_head_only = tracer._head_only
            if fn_name == "fewshot_run":
                tracer._head_only = arguments["cfg"].mode == "head-only"
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._head_only = outer_head_only
                tracer.close(span)
            if describe is not None:
                describe(arguments, result, span)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target and rebind it wherever a program module refers to it."""
        importlib.import_module("misinfo_mtl.cli")  # loads every module that may hold a reference
        modules = {name: mod for name, mod in sys.modules.items() if name.startswith("misinfo_mtl")}
        for module_name, fn_name in TARGETS:
            original = getattr(modules[f"misinfo_mtl.{module_name}"], fn_name)
            wrapper = self._wrap(module_name, fn_name, original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    # Each _describe_<fn> is called twice: before the call (span is None) to
    # choose the span name, and after it to record counts on the span.

    def _describe_encode_batch(self, args, result, span):
        if span is None:
            return "encoder.forward_train" if args["train_mode"] else "encoder.forward_eval"
        cfg = args["params"].config
        b, length = args["batch"].ids.shape
        span.attrs.update(
            rows=b, length=length, real=int(args["batch"].mask.sum()), cached=bool(args["return_cache"]),
            score_elems=b * cfg.num_heads * length * length * cfg.num_layers,
        )
        return None

    def _describe_backward(self, args, result, span):
        if span is not None:
            span.attrs["head_only"] = self._head_only
        return None

    def _describe_task_loss(self, args, result, span):
        if span is not None:
            span.attrs["train_mode"] = bool(args["train_mode"])
        return None

    def _describe_adam_step(self, args, result, span):
        if span is None:
            return None
        grads = args["grads"]
        span.attrs["elements"] = int(sum(g.size for g in grads.values()))
        emb = grads.get("encoder.token_emb")
        if emb is not None:
            span.attrs["emb_rows"] = emb.shape[0]
            span.attrs["emb_touched"] = int(np.count_nonzero(np.any(emb != 0, axis=1)))
        return None

    def _describe_load_dataset(self, args, result, span):
        if span is not None:
            span.attrs["records"] = result.size
        return None

    def _describe_save_model(self, args, result, span):
        if span is not None:
            span.attrs["bytes"] = Path(args["path"]).stat().st_size
        return None


def required_spans(has_finetune: bool, has_fewshot: bool) -> set[str]:
    """Span names a workload must record at least once, or its trace is broken."""
    names = {f"{m}.{f}" for m, f in TARGETS if f != "encode_batch"}
    names |= {"encoder.forward_train", "encoder.forward_eval", "cli.train", "cli.eval"}
    if has_finetune:
        names.add("cli.finetune")
    else:
        names.remove("training.finetune_task")
    if has_fewshot:
        names.add("cli.fewshot")
    else:
        names.remove("evaluation.fewshot_run")
    return names


def step_times_ms(spans: list[Span]) -> list[float]:
    """Training step times: a task_step_gradients call to the end of the next adam_step."""
    grads = sorted((s for s in spans if s.name == "multitask.task_step_gradients"), key=lambda s: s.start)
    adams = sorted((s for s in spans if s.name == "training.adam_step"), key=lambda s: s.start)
    steps = []
    i = 0
    for g in grads:
        while i < len(adams) and adams[i].start < g.end:
            i += 1
        if i == len(adams):
            break
        steps.append(1e3 * (adams[i].end - g.start))
        i += 1
    return steps


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every per-layer metric, computed from one traced run's spans."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def descendants(span):
        out = []
        stack = list(children.get(span.span_id, ()))
        while stack:
            d = stack.pop()
            out.append(d)
            stack.extend(children.get(d.span_id, ()))
        return out

    def named(name):
        return by_name.get(name, [])

    def total_s(name):
        return sum(s.duration for s in named(name))

    def self_s(name, keep=lambda d: True):
        return sum(self_time(s, [d for d in descendants(s) if keep(d)]) for s in named(name))

    forwards = named("encoder.forward_train") + named("encoder.forward_eval")
    attended = sum(s.attrs["rows"] * s.attrs["length"] for s in forwards)
    evals = named("encoder.forward_eval")
    adams = named("training.adam_step")
    emb_rows = sum(s.attrs.get("emb_rows", 0) for s in adams)
    steps = step_times_ms(spans)
    tail = tail_percentile(steps)

    m = {
        "tokenization.encode.calls": len(named("tokenization.encode")),
        "tokenization.encode.self_s": self_s("tokenization.encode"),
        "tokenization.build_vocab.s": total_s("tokenization.build_vocab"),
        "encoder.forward_train.calls": len(named("encoder.forward_train")),
        "encoder.forward_train.self_s": self_s("encoder.forward_train"),
        "encoder.forward_eval.calls": len(evals),
        "encoder.forward_eval.self_s": self_s("encoder.forward_eval"),
        "encoder.forward_eval.cached_share": sum(s.attrs["cached"] for s in evals) / len(evals) if evals else 0.0,
        "encoder.backward.calls": len(named("encoder.backward")),
        "encoder.backward.self_s": self_s("encoder.backward"),
        "encoder.backward.head_only_calls": sum(s.attrs["head_only"] for s in named("encoder.backward")),
        "encoder.real_position_ratio": sum(s.attrs["real"] for s in forwards) / attended if attended else 0.0,
        "encoder.attn_score_elems": sum(s.attrs["score_elems"] for s in forwards),
        "multitask.task_step_gradients.self_s": self_s(
            "multitask.task_step_gradients", keep=lambda d: d.name.startswith("encoder.")),
        "multitask.task_loss.eval_calls": sum(not s.attrs["train_mode"] for s in named("multitask.task_loss")),
        "multitask.predict.calls": len(named("multitask.predict")),
        "multitask.predict.self_s": self_s("multitask.predict"),
        "multitask.encode_for_task.self_s": self_s("multitask.encode_for_task"),
        "training.train_multitask.self_s": self_s("training.train_multitask"),
        "training.finetune_task.self_s": self_s("training.finetune_task"),
        "training.adam_step.calls": len(adams),
        "training.adam_step.self_s": self_s("training.adam_step"),
        "training.adam_step.elements": sum(s.attrs["elements"] for s in adams),
        "training.adam_step.token_emb_touched_row_ratio": (
            sum(s.attrs.get("emb_touched", 0) for s in adams) / emb_rows if emb_rows else 0.0),
        "training.step_ms.p50": statistics.median(steps) if steps else 0.0,
        "training.step_ms.tail": tail[1] if tail else 0.0,
        "training.step_ms.tail_pct": tail[0] if tail else 0.0,
        "training.step_ms.samples": len(steps),
        "training.make_epoch_schedule.s": total_s("training.make_epoch_schedule"),
        "data.load_dataset.s": total_s("data.load_dataset"),
        "data.load_dataset.records": sum(s.attrs["records"] for s in named("data.load_dataset")),
        "data.split.s": total_s("data.split"),
        "checkpoint.save_model.s": total_s("checkpoint.save_model"),
        "checkpoint.save_model.bytes": sum(s.attrs["bytes"] for s in named("checkpoint.save_model")),
        "checkpoint.load_model.s": total_s("checkpoint.load_model"),
        "evaluation.evaluate_model.calls": len(named("evaluation.evaluate_model")),
        "evaluation.evaluate_model.self_s": self_s("evaluation.evaluate_model"),
        "evaluation.fewshot_run.self_s": self_s("evaluation.fewshot_run"),
        "metrics.compute_report.s": total_s("metrics.compute_report"),
    }
    for command in CLI_COMMANDS:
        m[f"cli.{command}.self_s"] = self_s(f"cli.{command}")
    return m
