import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from misinfo_mtl.data import (
    Dataset,
    Example,
    SyntheticSuiteConfig,
    carve_validation,
    derive_field_task,
    format_dataset_summary,
    generate_synthetic_suite,
    leave_one_event_folds,
    load_dataset,
    make_dataset,
    save_dataset,
    split,
)
from misinfo_mtl.tasks import BUILTIN_TASKS, TaskSpec


def _write_jsonl(path, records):
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _rumor_records(n_true=4, n_false=3, n_unverified=2):
    records = []
    for i in range(n_true):
        records.append({"id": f"t{i}", "text": f"claim {i}", "task": "rumor", "label": "true", "event": "ev1"})
    for i in range(n_false):
        records.append({"id": f"f{i}", "text": f"hoax {i}", "task": "rumor", "label": "false", "event": "ev2"})
    for i in range(n_unverified):
        records.append({"id": f"u{i}", "text": f"maybe {i}", "task": "rumor", "label": "unverified"})
    return records


def test_loader_drops_unverified(tmp_path):
    path = tmp_path / "rumor.jsonl"
    _write_jsonl(path, _rumor_records())
    ds = load_dataset(path, BUILTIN_TASKS["rumor"], drop_labels=("unverified",))
    assert ds.size == 7
    assert ds.class_counts() == {"true": 4, "false": 3}
    assert all(ex.label != "unverified" for ex in ds.examples)


def test_loader_unknown_label_names_line(tmp_path):
    path = tmp_path / "rumor.jsonl"
    records = _rumor_records(n_unverified=0)
    records.insert(2, {"id": "bad", "text": "x", "task": "rumor", "label": "sideways"})
    _write_jsonl(path, records)
    with pytest.raises(ValueError, match="line 3.*sideways"):
        load_dataset(path, BUILTIN_TASKS["rumor"])


def test_loader_duplicate_id(tmp_path):
    path = tmp_path / "rumor.jsonl"
    records = _rumor_records(n_unverified=0)
    records.append(dict(records[0]))
    _write_jsonl(path, records)
    with pytest.raises(ValueError, match="duplicate id"):
        load_dataset(path, BUILTIN_TASKS["rumor"])


def test_make_dataset_refuses_a_duplicate_id_by_record_number_before_its_other_checks():
    spec = TaskSpec("toy", ("neg", "pos"), "tweet", "pos")
    examples = [Example(id=f"e{i}", text=f"text {i}", task="toy", label="pos") for i in range(3)]
    with pytest.raises(ValueError, match=r"^record 4: duplicate id 'e1'$"):
        make_dataset([*examples, Example(id="e1", text="again", task="toy", label="sideways")], spec)


def test_loader_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ValueError, match="no examples"):
        load_dataset(path, BUILTIN_TASKS["rumor"])


def test_loader_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "nope.jsonl", BUILTIN_TASKS["rumor"])


def test_loader_task_field_must_match(tmp_path):
    path = tmp_path / "rumor.jsonl"
    _write_jsonl(path, [{"id": "a", "text": "x", "task": "clickbait", "label": "true"}])
    with pytest.raises(ValueError, match="does not match"):
        load_dataset(path, BUILTIN_TASKS["rumor"])


def test_loader_rejects_unknown_fields(tmp_path):
    path = tmp_path / "rumor.jsonl"
    _write_jsonl(path, [{"id": "a", "text": "x", "task": "rumor", "label": "true", "oops": 1}])
    with pytest.raises(ValueError, match="unknown fields"):
        load_dataset(path, BUILTIN_TASKS["rumor"])


@pytest.mark.parametrize("field, value", [
    ("id", 1), ("text", 5), ("task", None), ("label", ["true"]), ("event", 3), ("polarity", {}),
])
def test_loader_rejects_non_string_fields(tmp_path, field, value):
    path = tmp_path / "rumor.jsonl"
    records = _rumor_records(n_unverified=0)
    records[1][field] = value
    _write_jsonl(path, records)
    with pytest.raises(ValueError, match=f"line 2: field '{field}' must be a string"):
        load_dataset(path, BUILTIN_TASKS["rumor"])


def test_loader_accepts_null_optional_fields(tmp_path):
    path = tmp_path / "rumor.jsonl"
    records = _rumor_records(n_unverified=0)
    records[0]["event"] = None
    _write_jsonl(path, records)
    assert load_dataset(path, BUILTIN_TASKS["rumor"]).examples[0].event is None


def test_loader_rejects_non_object_record(tmp_path):
    path = tmp_path / "rumor.jsonl"
    path.write_text('["t0", "claim", "rumor", "true"]\n')
    with pytest.raises(ValueError, match="line 1: record must be a JSON object"):
        load_dataset(path, BUILTIN_TASKS["rumor"])


def test_bias_fields_only_on_positcharacters(tmp_path):
    path = tmp_path / "newsbias.jsonl"
    _write_jsonl(path, [
        {"id": "a", "text": "x", "task": "newsbias", "label": "no-bias", "bias_type": "lexical"},
    ])
    with pytest.raises(ValueError, match="only valid"):
        load_dataset(path, BUILTIN_TASKS["newsbias"])


def test_loader_round_trip(tmp_path):
    path = tmp_path / "rumor.jsonl"
    _write_jsonl(path, _rumor_records(n_unverified=0))
    ds = load_dataset(path, BUILTIN_TASKS["rumor"])
    out = tmp_path / "copy.jsonl"
    save_dataset(ds, out)
    again = load_dataset(out, BUILTIN_TASKS["rumor"])
    assert [ex.to_record() for ex in again.examples] == [ex.to_record() for ex in ds.examples]


def test_derive_auxiliary_tasks():
    spec = BUILTIN_TASKS["newsbias"]
    examples = []
    for i in range(6):
        examples.append(Example(id=f"p{i}", text=f"spin {i}", task="newsbias", label="contains-bias",
                                bias_type="lexical" if i % 2 else "informational",
                                polarity=("positive", "negative", "neutral")[i % 3]))
    for i in range(4):
        examples.append(Example(id=f"n{i}", text=f"plain {i}", task="newsbias", label="no-bias"))
    ds = make_dataset(examples, spec)
    aux = derive_field_task(ds, "bias_type", BUILTIN_TASKS["newsbias_type"])
    assert aux.size == 6
    assert aux.class_counts() == {"lexical": 3, "informational": 3}
    pol = derive_field_task(ds, "polarity", BUILTIN_TASKS["newsbias_polarity"])
    assert pol.class_counts() == {"positive": 2, "negative": 2, "neutral": 2}
    with pytest.raises(ValueError, match="cannot derive"):
        derive_field_task(ds, "event", BUILTIN_TASKS["newsbias_type"])


def _balanced_dataset(n=100):
    spec = TaskSpec("toy", ("neg", "pos"), "tweet", "pos")
    examples = [
        Example(id=f"e{i}", text=f"text {i}", task="toy", label="pos" if i < n // 2 else "neg")
        for i in range(n)
    ]
    return make_dataset(examples, spec)


def test_split_100_examples_80_10_10():
    ds = _balanced_dataset(100)
    parts = split(ds, seed=0)
    assert (parts.train.size, parts.validation.size, parts.test.size) == (80, 10, 10)
    for part in (parts.train, parts.validation, parts.test):
        counts = part.class_counts()
        assert counts["pos"] == counts["neg"]
    assert parts.train.class_counts() == {"neg": 40, "pos": 40}
    assert parts.validation.class_counts() == {"neg": 5, "pos": 5}


def test_split_is_partition_and_deterministic():
    ds = _balanced_dataset(50)
    p1 = split(ds, seed=3)
    p2 = split(ds, seed=3)
    ids = lambda part: [ex.id for ex in part.examples]
    assert ids(p1.train) == ids(p2.train)
    assert ids(p1.validation) == ids(p2.validation)
    all_ids = set(ids(p1.train)) | set(ids(p1.validation)) | set(ids(p1.test))
    assert all_ids == {ex.id for ex in ds.examples}
    assert len(ids(p1.train)) + len(ids(p1.validation)) + len(ids(p1.test)) == 50
    p3 = split(ds, seed=4)
    assert ids(p1.train) != ids(p3.train)


def test_split_stratification_within_one():
    ds = _balanced_dataset(94)  # 47 per class; 47*0.8 = 37.6
    parts = split(ds, seed=1)
    for part, ratio in ((parts.train, 0.8), (parts.validation, 0.1), (parts.test, 0.1)):
        for count in part.class_counts().values():
            assert abs(count - 47 * ratio) < 1.0


def test_split_guards():
    ds = _balanced_dataset(100)
    with pytest.raises(ValueError, match="required"):
        split(ds, ratios=(1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="sum"):
        split(ds, ratios=(0.5, 0.2, 0.2))
    with pytest.raises(ValueError, match="sum"):
        split(ds, ratios=(float("nan"), 0.5, 0.5))
    with pytest.raises(ValueError, match="seed must be >= 0"):
        split(ds, seed=-1)
    small = _balanced_dataset(8)
    with pytest.raises(ValueError, match="too small"):
        split(small)
    spec = TaskSpec("toy", ("neg", "pos"), "tweet")
    skewed = make_dataset(
        [Example(id=f"e{i}", text="t", task="toy", label="pos" if i < 2 else "neg") for i in range(12)],
        spec,
    )
    with pytest.raises(ValueError, match="stratify"):
        split(skewed)


def test_carve_validation_two_way():
    ds = _balanced_dataset(40)
    rest, held = carve_validation(ds, fraction=0.1, seed=0)
    assert rest.size + held.size == 40
    assert held.size == 4  # 2 per class
    assert {ex.id for ex in rest.examples}.isdisjoint(ex.id for ex in held.examples)


def _event_dataset(num_events=9, per_event=6):
    spec = TaskSpec("rumor", ("true", "false"), "tweet", "false")
    examples = []
    for e in range(num_events):
        for i in range(per_event):
            examples.append(
                Example(id=f"ev{e}-{i}", text=f"claim {e} {i}", task="rumor",
                        label="true" if i % 2 else "false", event=f"event{e:02d}")
            )
    return make_dataset(examples, spec)


def test_leave_one_event_out_nine_events():
    ds = _event_dataset(9)
    folds = leave_one_event_folds(ds)
    assert len(folds) == 9
    assert [f.event for f in folds] == sorted(f.event for f in folds)
    for fold in folds:
        train_ids = {ex.id for ex in fold.train.examples}
        test_ids = {ex.id for ex in fold.test.examples}
        assert train_ids.isdisjoint(test_ids)
        assert len(train_ids | test_ids) == ds.size
        assert {ex.event for ex in fold.test.examples} == {fold.event}
        assert fold.event not in {ex.event for ex in fold.train.examples}


def test_leave_one_event_out_guards():
    ds = _event_dataset(1)
    with pytest.raises(ValueError, match=">= 2 events"):
        leave_one_event_folds(ds)
    spec = TaskSpec("rumor", ("true", "false"), "tweet")
    missing = make_dataset(
        [Example(id="a", text="t", task="rumor", label="true")], spec
    )
    with pytest.raises(ValueError, match="no event tag"):
        leave_one_event_folds(missing)


# --- synthetic suite ---------------------------------------------------------


def test_synthetic_balanced_exact_counts():
    suite = generate_synthetic_suite(0, SyntheticSuiteConfig(examples_per_task=200))
    for ds in suite.values():
        assert ds.size == 200
        assert ds.class_counts() == {"negative": 100, "positive": 100}


def test_synthetic_deterministic():
    cfg = SyntheticSuiteConfig(p_shared=0.5)
    s1 = generate_synthetic_suite(9, cfg)
    s2 = generate_synthetic_suite(9, cfg)
    for task in s1:
        assert [ex.to_record() for ex in s1[task].examples] == [ex.to_record() for ex in s2[task].examples]
    s3 = generate_synthetic_suite(10, cfg)
    assert any(
        [ex.to_record() for ex in s1[t].examples] != [ex.to_record() for ex in s3[t].examples]
        for t in s1
    )


def test_synthetic_marker_insertion_is_only_label_dependence():
    cfg = SyntheticSuiteConfig(task_names=("alpha", "beta"), p_shared=0.0, examples_per_task=100)
    suite = generate_synthetic_suite(1, cfg)
    shared = {f"tok{i:03d}" for i in range(cfg.shared_lexicon_size)}
    marker_sets = {
        "alpha": {f"tok{i:03d}" for i in range(6, 9)},
        "beta": {f"tok{i:03d}" for i in range(9, 12)},
    }
    for task, ds in suite.items():
        others = set().union(*(m for t, m in marker_sets.items() if t != task))
        for ex in ds.examples:
            tokens = set(ex.text.split())
            if ex.label == "negative":
                assert not tokens & marker_sets[task]
                assert not tokens & shared
            else:
                assert tokens & marker_sets[task]
                assert not tokens & shared  # p_shared = 0
            assert not tokens & others  # marker sets are task-disjoint


def test_synthetic_p_shared_plants_shared_tokens():
    cfg = SyntheticSuiteConfig(task_names=("alpha", "beta"), p_shared=1.0, examples_per_task=60)
    suite = generate_synthetic_suite(2, cfg)
    shared = {f"tok{i:03d}" for i in range(cfg.shared_lexicon_size)}
    for ds in suite.values():
        for ex in ds.examples:
            has_shared = bool(set(ex.text.split()) & shared)
            assert has_shared == (ex.label == "positive")


def test_synthetic_event_tags():
    cfg = SyntheticSuiteConfig(num_events=9, examples_per_task=90)
    suite = generate_synthetic_suite(3, cfg)
    for ds in suite.values():
        events = {ex.event for ex in ds.examples}
        assert events == {f"event{i:02d}" for i in range(9)}


def test_synthetic_vocab_budget_guard():
    with pytest.raises(ValueError, match="vocab too small"):
        SyntheticSuiteConfig(task_names=("a", "b", "c", "d"), vocab_size=12,
                             markers_per_task=3, shared_lexicon_size=6)


def test_summary_table_mentions_counts():
    ds = _balanced_dataset(20)
    table = format_dataset_summary([ds])
    assert "toy" in table and "20" in table and "10" in table


def test_validator_reports_full_scale_headline_counts(tmp_path):
    # A file with the published clickbait corpus proportions: 19538 rows, 4761 positive.
    path = tmp_path / "clickbait.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for i in range(19538):
            label = "is-clickbait" if i < 4761 else "not-clickbait"
            fh.write(json.dumps({"id": f"c{i}", "text": f"headline {i}",
                                 "task": "clickbait", "label": label}) + "\n")
    ds = load_dataset(path, BUILTIN_TASKS["clickbait"])
    assert ds.size == 19538
    assert ds.positive_count() == 4761
    table = format_dataset_summary([ds])
    assert "19538" in table and "4761" in table


@pytest.mark.parametrize("line, message", [
    (b'{"id": "x", "text": "caf\xe9", "task": "t", "label": "neg"}', "line 2: not valid UTF-8"),
    (b"[" * 100_000 + b"]" * 100_000, "line 2: invalid record"),
])
def test_loader_refuses_undecodable_and_too_deep_lines(tmp_path, line, message):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'{"id": "a", "text": "fine", "task": "t", "label": "pos"}\n' + line + b"\n")
    with pytest.raises(ValueError, match=message):
        load_dataset(path, TaskSpec("t", ("neg", "pos"), "tweet", "pos"))


# --- fuzzed line-delimited input --------------------------------------------------

_FUZZ_SPEC = TaskSpec("t", ("neg", "pos"), "tweet", "pos")
_FIELD_VALUES = st.one_of(
    st.sampled_from(["t", "neg", "pos", "skip", "other", "lexical", "positive", "a", ""]),
    st.none(), st.integers(), st.floats(), st.booleans(), st.lists(st.integers(), max_size=2),
)
_RECORDS = st.dictionaries(
    st.sampled_from(["id", "text", "task", "label", "event", "bias_type", "polarity", "extra"]),
    _FIELD_VALUES, max_size=8,
).map(lambda rec: json.dumps(rec).encode())
_VALID = st.builds(
    lambda i, label, event: json.dumps({"id": f"r{i}", "text": "some words", "task": "t", "label": label,
                                        **({"event": event} if event else {})}).encode(),
    st.integers(0, 5), st.sampled_from(["neg", "pos", "skip"]), st.sampled_from([None, "e1"]),
)
_LINES = st.one_of(
    _VALID, _RECORDS,
    st.text(max_size=30).map(lambda s: s.encode("utf-8", "surrogatepass")),
    st.binary(max_size=30),
    st.integers(1, 5000).map(lambda n: b"[" * n + b"]" * n),
    st.just(b""), st.just(b"   "),
).map(lambda line: line.replace(b"\r", b"").replace(b"\n", b""))


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_LINES, max_size=8))
def test_fuzzed_lines_load_or_raise_value_error_naming_the_line(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "fuzz.jsonl"

    def load(upto):
        path.write_bytes(b"".join(line + b"\n" for line in lines[:upto]))
        return load_dataset(path, _FUZZ_SPEC, ("skip",))

    try:
        dataset = load(len(lines))
    except ValueError as exc:
        found = re.match(rf"{re.escape(str(path))}: line (\d+): ", str(exc))
        if found is None:
            assert str(exc) == f"{path}: no examples"
            return
        line_no = int(found.group(1))
        assert 1 <= line_no <= len(lines)
        # every line before the named one is fine on its own
        try:
            load(line_no - 1)
        except ValueError as exc:
            assert str(exc) == f"{path}: no examples"
    else:
        assert dataset.size >= 1
        assert all(ex.task == "t" and ex.label in ("neg", "pos") for ex in dataset.examples)
