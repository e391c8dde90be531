"""Task definitions: a task's label set and granularity, and the built-in tasks.

Both the data layer (which validates records against a task) and the model
layer (which registers one head per task) read these; neither imports the other
for them.
"""

from dataclasses import dataclass

GRANULARITIES = ("sentence", "article", "tweet", "headline")
BIAS_TYPES = ("lexical", "informational")
POLARITIES = ("positive", "negative", "neutral")


@dataclass(frozen=True)
class TaskSpec:
    """A task's name, ordered label set, granularity and (optional) positive class."""

    name: str
    labels: tuple[str, ...]
    granularity: str
    positive_label: str | None = None

    def __post_init__(self):
        if len(self.labels) < 2:
            raise ValueError(f"task {self.name!r} needs >= 2 labels")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"task {self.name!r} has duplicate labels")
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"granularity must be one of {GRANULARITIES}, got {self.granularity!r}")
        if self.positive_label is not None and self.positive_label not in self.labels:
            raise ValueError(f"positive label {self.positive_label!r} not in label set")

    @property
    def num_classes(self) -> int:
        return len(self.labels)

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown label {label!r} for task {self.name!r}") from None


# Canonical task definitions: the four jointly trained tasks, the two
# bias-subset auxiliary tasks derived from the news-bias corpus, and the
# unseen corpora used only for few-shot evaluation (schema + loader support).
BUILTIN_TASKS: dict[str, TaskSpec] = {
    "newsbias": TaskSpec("newsbias", ("no-bias", "contains-bias"), "sentence", "contains-bias"),
    "newsbias_type": TaskSpec("newsbias_type", BIAS_TYPES, "sentence"),
    "newsbias_polarity": TaskSpec("newsbias_polarity", POLARITIES, "sentence"),
    "fakenews": TaskSpec("fakenews", ("true", "fake"), "article", "fake"),
    "rumor": TaskSpec("rumor", ("true", "false"), "tweet", "false"),
    "clickbait": TaskSpec("clickbait", ("not-clickbait", "is-clickbait"), "headline", "is-clickbait"),
    "propaganda": TaskSpec("propaganda", ("not-propaganda", "propaganda"), "sentence", "propaganda"),
    "politifact": TaskSpec("politifact", ("true", "fake"), "article", "fake"),
    "buzzfeed": TaskSpec("buzzfeed", ("true", "fake"), "headline", "fake"),
    "covid_checkworthy": TaskSpec("covid_checkworthy", ("not-checkworthy", "checkworthy"), "tweet", "checkworthy"),
    "covid_false_claim": TaskSpec("covid_false_claim", ("not-false", "false-claim"), "tweet", "false-claim"),
}
