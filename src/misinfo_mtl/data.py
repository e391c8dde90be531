"""Dataset schema, canonical-file loaders, deterministic splits, synthetic tasks.

The canonical on-disk format is UTF-8 line-delimited JSON with fields ``id``,
``text``, ``task``, ``label`` and optional ``event``, ``bias_type``,
``polarity``. Source corpora ship in different shapes (sentence spans, tweet
threads, articles, headlines); converting them into this format is documented
per corpus but out of scope here. Datasets are immutable after load and all
operations are pure.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .tasks import BIAS_TYPES, BUILTIN_TASKS, POLARITIES, TaskSpec  # noqa: F401  (BUILTIN_TASKS re-exported)

# The rumor corpus carries a third label that the binary protocol drops.
DEFAULT_DROP_LABELS: dict[str, tuple[str, ...]] = {"rumor": ("unverified",)}


@dataclass(frozen=True)
class Example:
    """One labeled text instance; event/bias fields are corpus-specific extras."""

    id: str
    text: str
    task: str
    label: str
    event: str | None = None
    bias_type: str | None = None
    polarity: str | None = None

    def to_record(self) -> dict:
        rec = {"id": self.id, "text": self.text, "task": self.task, "label": self.label}
        for name in ("event", "bias_type", "polarity"):
            value = getattr(self, name)
            if value is not None:
                rec[name] = value
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "Example":
        """Build from a decoded record; required fields are strings, optional ones strings or null."""
        if not isinstance(rec, dict):
            raise ValueError(f"record must be a JSON object, got {type(rec).__name__}")
        for req in ("id", "text", "task", "label"):
            if req not in rec:
                raise ValueError(f"record is missing required field {req!r}")
        known = {"id", "text", "task", "label", "event", "bias_type", "polarity"}
        unknown = set(rec) - known
        if unknown:
            raise ValueError(f"record has unknown fields {sorted(unknown)}")
        for name, value in rec.items():
            optional = name in ("event", "bias_type", "polarity")
            if not isinstance(value, str) and not (optional and value is None):
                raise ValueError(f"field {name!r} must be a string, got {type(value).__name__}")
        return cls(**rec)


@dataclass(frozen=True)
class FilterRules:
    """Declarative row filters applied before validation."""

    drop_labels: tuple[str, ...] = ()


@dataclass(frozen=True)
class Dataset:
    """A task spec plus its validated examples."""

    spec: TaskSpec
    examples: tuple[Example, ...]

    @property
    def size(self) -> int:
        return len(self.examples)

    def class_counts(self) -> dict[str, int]:
        counts = {label: 0 for label in self.spec.labels}
        for ex in self.examples:
            counts[ex.label] += 1
        return counts

    def positive_count(self) -> int | None:
        if self.spec.positive_label is None:
            return None
        return self.class_counts()[self.spec.positive_label]


def _validate_example(ex: Example, spec: TaskSpec, line_no: int) -> None:
    if ex.task != spec.name:
        raise ValueError(f"line {line_no}: record task {ex.task!r} does not match {spec.name!r}")
    if ex.label not in spec.labels:
        raise ValueError(
            f"line {line_no}: unknown label {ex.label!r} for task {spec.name!r} "
            f"(expected one of {list(spec.labels)})"
        )
    if ex.bias_type is not None and ex.bias_type not in BIAS_TYPES:
        raise ValueError(f"line {line_no}: bias_type must be one of {BIAS_TYPES}")
    if ex.polarity is not None and ex.polarity not in POLARITIES:
        raise ValueError(f"line {line_no}: polarity must be one of {POLARITIES}")
    if (ex.bias_type is not None or ex.polarity is not None) and spec.positive_label is not None:
        if ex.label != spec.positive_label:
            raise ValueError(
                f"line {line_no}: bias_type/polarity are only valid on "
                f"{spec.positive_label!r} examples"
            )


def make_dataset(examples, spec: TaskSpec) -> Dataset:
    """Validate a list of examples against a task spec."""
    seen_ids = set()
    for i, ex in enumerate(examples, start=1):
        if ex.id in seen_ids:
            raise ValueError(f"duplicate example id {ex.id!r}")
        seen_ids.add(ex.id)
        _validate_example(ex, spec, i)
    return Dataset(spec=spec, examples=tuple(examples))


def load_dataset(path: str | Path, spec: TaskSpec, filter_rules: FilterRules | None = None) -> Dataset:
    """Load and validate one canonical line-delimited file for a task.

    ``filter_rules.drop_labels`` removes rows (e.g. the rumor corpus's
    ``unverified`` label) before label validation; any other unknown label is
    an error naming the offending line.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    drop = set(filter_rules.drop_labels) if filter_rules else set()
    examples: list[Example] = []
    seen_ids: set[str] = set()
    # Undecodable bytes become lone surrogates, refused per line below.
    with path.open(encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"line {line_no}: not valid UTF-8") from None
            try:
                ex = Example.from_record(json.loads(line))
            except (json.JSONDecodeError, RecursionError) as exc:
                raise ValueError(f"line {line_no}: invalid record ({exc})") from None
            except ValueError as exc:
                raise ValueError(f"line {line_no}: {exc}") from None
            if ex.label in drop:
                continue
            if ex.id in seen_ids:
                raise ValueError(f"line {line_no}: duplicate id {ex.id!r}")
            seen_ids.add(ex.id)
            _validate_example(ex, spec, line_no)
            examples.append(ex)
    if not examples:
        raise ValueError(f"no examples in {path}")
    return Dataset(spec=spec, examples=tuple(examples))


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write the canonical line-delimited form (stable field order)."""
    with atomic_open(path) as fh:
        for ex in dataset.examples:
            fh.write(json.dumps(ex.to_record(), sort_keys=True) + "\n")


def derive_field_task(dataset: Dataset, field_name: str, spec: TaskSpec) -> Dataset:
    """Auxiliary task from an annotation field (e.g. bias type or polarity).

    Keeps only the examples that carry the field and relabels them with its
    value; used for the bias-subset auxiliary objectives.
    """
    if field_name not in ("bias_type", "polarity"):
        raise ValueError(f"cannot derive a task from field {field_name!r}")
    derived = []
    for ex in dataset.examples:
        value = getattr(ex, field_name)
        if value is None:
            continue
        derived.append(Example(id=ex.id, text=ex.text, task=spec.name, label=value, event=ex.event))
    if not derived:
        raise ValueError(f"no examples carry field {field_name!r}")
    return make_dataset(derived, spec)


# --- splitting ----------------------------------------------------------------


@dataclass(frozen=True)
class SplitDataset:
    """Stratified train/validation/test partition of one dataset."""

    train: Dataset
    validation: Dataset
    test: Dataset
    seed: int
    ratios: tuple[float, float, float]


def _largest_remainder(n: int, ratios) -> list[int]:
    exact = [n * r for r in ratios]
    counts = [math.floor(e) for e in exact]
    remainder = n - sum(counts)
    order = sorted(range(len(ratios)), key=lambda i: (-(exact[i] - counts[i]), i))
    for i in order[:remainder]:
        counts[i] += 1
    return counts


def _stratified_deal(dataset: Dataset, seed: int, bucket_counts) -> list[Dataset]:
    """Deal each class's examples into parts, ``bucket_counts(class size)[i]`` to part i, in part order.

    ``len(bucket_counts(0))`` is the number of parts. Classes go in label
    order, and each non-empty one draws one permutation of its examples (in
    dataset order) from one generator seeded with ``seed``.
    """
    rng = np.random.default_rng(seed)
    by_class: dict[str, list[Example]] = {label: [] for label in dataset.spec.labels}
    for ex in dataset.examples:
        by_class[ex.label].append(ex)
    buckets: list[list[Example]] = [[] for _ in bucket_counts(0)]
    for examples in by_class.values():
        if not examples:
            continue
        order = rng.permutation(len(examples))
        pos = 0
        for bucket, count in zip(buckets, bucket_counts(len(examples))):
            bucket.extend(examples[j] for j in order[pos : pos + count])
            pos += count
    return [make_dataset(b, dataset.spec) for b in buckets]


def split(dataset: Dataset, ratios=(0.8, 0.1, 0.1), seed: int = 0) -> SplitDataset:
    """Seed-deterministic stratified split; per-class counts track the ratios within 1.

    All three ratios must be positive (a validation split is required), and no
    class may have fewer than 3 examples.
    """
    if dataset.size < 10:
        raise ValueError(f"dataset too small to split ({dataset.size} < 10)")
    if len(ratios) != 3 or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("ratios must be three values summing to 1")
    if any(r <= 0 for r in ratios):
        raise ValueError("all ratios must be > 0 (validation and test splits are required)")
    for label, n in dataset.class_counts().items():
        if 0 < n < 3:
            raise ValueError(f"class {label!r} has {n} examples; need >= 3 to stratify")
    train, validation, test = _stratified_deal(dataset, seed, lambda n: _largest_remainder(n, ratios))
    return SplitDataset(train=train, validation=validation, test=test, seed=seed, ratios=tuple(ratios))


def carve_validation(dataset: Dataset, fraction: float = 0.1, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Two-way stratified carve: (rest, held-out validation)."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")

    def held_rest(n: int) -> list[int]:
        held = max(1, math.floor(n * fraction)) if n > 1 else 0
        return [held, n - held]

    held, rest = _stratified_deal(dataset, seed, held_rest)
    if not rest.size or not held.size:
        raise ValueError("carve produced an empty part; dataset too small")
    return rest, held


# --- leave-one-event-out folds --------------------------------------------------


@dataclass(frozen=True)
class EventFold:
    event: str
    train: Dataset
    test: Dataset


def leave_one_event_folds(dataset: Dataset) -> list[EventFold]:
    """One fold per distinct event: test on the event, train on all others."""
    for i, ex in enumerate(dataset.examples, start=1):
        if ex.event is None:
            raise ValueError(f"example {ex.id!r} (record {i}) has no event tag")
    events = sorted({ex.event for ex in dataset.examples})
    if len(events) < 2:
        raise ValueError(f"need >= 2 events for leave-one-event-out, got {len(events)}")
    folds = []
    for event in events:
        test = [ex for ex in dataset.examples if ex.event == event]
        train = [ex for ex in dataset.examples if ex.event != event]
        folds.append(
            EventFold(
                event=event,
                train=make_dataset(train, dataset.spec),
                test=make_dataset(test, dataset.spec),
            )
        )
    return folds


# --- synthetic task suite --------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSuiteConfig:
    """Shape of a generated task suite sharing one latent 'sensational' lexicon.

    Positives plant task-specific marker tokens and, with probability
    ``p_shared``, tokens from the shared lexicon; negatives are filler only.
    Tokens come from a single budget of ``vocab_size`` word types, so marker
    sets are disjoint by construction.
    """

    task_names: tuple[str, ...] = ("alpha", "beta")
    examples_per_task: int = 200
    vocab_size: int = 60
    markers_per_task: int = 3
    shared_lexicon_size: int = 6
    p_shared: float = 0.0
    min_tokens: int = 6
    max_tokens: int = 10
    num_events: int = 0

    def __post_init__(self):
        if len(self.task_names) < 2:
            raise ValueError("synthetic suite needs >= 2 tasks")
        if len(set(self.task_names)) != len(self.task_names):
            raise ValueError("duplicate task names")
        if self.examples_per_task < 4:
            raise ValueError("examples_per_task must be >= 4")
        if not 0.0 <= self.p_shared <= 1.0:
            raise ValueError("p_shared must be in [0, 1]")
        if not 1 <= self.min_tokens <= self.max_tokens:
            raise ValueError("need 1 <= min_tokens <= max_tokens")
        reserved = self.shared_lexicon_size + len(self.task_names) * self.markers_per_task
        if self.vocab_size < reserved + 2:
            raise ValueError(
                f"vocab too small for disjoint marker sets: need > {reserved + 1}, got {self.vocab_size}"
            )


def generate_synthetic_suite(seed: int, config: SyntheticSuiteConfig) -> dict[str, Dataset]:
    """Deterministically generate one balanced binary dataset per task.

    The marker insertion is the only label-dependent step, so the label is
    conditionally independent of the text given the planted tokens.
    """
    words = [f"tok{i:03d}" for i in range(config.vocab_size)]
    shared = words[: config.shared_lexicon_size]
    markers: dict[str, list[str]] = {}
    offset = config.shared_lexicon_size
    for name in config.task_names:
        markers[name] = words[offset : offset + config.markers_per_task]
        offset += config.markers_per_task
    filler = words[offset:]

    rng = np.random.default_rng(seed)
    datasets: dict[str, Dataset] = {}
    spec_by_task = {
        name: TaskSpec(name, ("negative", "positive"), "sentence", "positive")
        for name in config.task_names
    }
    for name in config.task_names:
        n = config.examples_per_task
        n_pos = n // 2
        labels = ["positive"] * n_pos + ["negative"] * (n - n_pos)
        events = None
        if config.num_events > 0:
            events = [f"event{i % config.num_events:02d}" for i in range(n)]
        examples = []
        for i in range(n):
            length = int(rng.integers(config.min_tokens, config.max_tokens + 1))
            tokens = [filler[j] for j in rng.integers(0, len(filler), size=length)]
            if labels[i] == "positive":
                tokens += [markers[name][j] for j in rng.integers(0, len(markers[name]), size=2)]
                if rng.random() < config.p_shared:
                    tokens += [shared[j] for j in rng.integers(0, len(shared), size=2)]
            order = rng.permutation(len(tokens))
            text = " ".join(tokens[j] for j in order)
            examples.append(
                Example(
                    id=f"{name}-{i:05d}",
                    text=text,
                    task=name,
                    label=labels[i],
                    event=events[i] if events else None,
                )
            )
        order = rng.permutation(n)
        datasets[name] = make_dataset([examples[i] for i in order], spec_by_task[name])
    return datasets


def format_dataset_summary(datasets: list[Dataset]) -> str:
    """Class-count table: task, granularity, labels, size, positive-class size."""
    header = f"{'Task':<20} {'Granularity':<12} {'Labels':<36} {'Size':>8} {'Positive':>9}"
    lines = [header, "-" * len(header)]
    for ds in datasets:
        labels = "/".join(ds.spec.labels)
        pos = ds.positive_count()
        lines.append(
            f"{ds.spec.name:<20} {ds.spec.granularity:<12} {labels:<36} "
            f"{ds.size:>8} {pos if pos is not None else '-':>9}"
        )
        for label, count in ds.class_counts().items():
            lines.append(f"{'':<20}   {label:<45} {count:>8}")
    return "\n".join(lines)
