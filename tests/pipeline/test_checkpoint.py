"""Unit tests for the checkpoint store."""

import json
import os
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import METRICS
from repro.pipeline import (
    CheckpointCorruptError,
    CheckpointCorruptWarning,
    CheckpointStore,
)


class TestInMemory:
    def test_commit_and_read_back(self):
        cp = CheckpointStore()
        cp.commit("q", 0, {0: 10, 1: 5}, {"wm": 99.0})
        assert cp.last_batch_id("q") == 0
        assert cp.offsets("q") == {0: 10, 1: 5}
        assert cp.state("q") == {"wm": 99.0}

    def test_unknown_query(self):
        cp = CheckpointStore()
        assert cp.last_batch_id("q") is None
        assert cp.offsets("q") == {}
        assert cp.state("q") == {}

    def test_contiguity_enforced(self):
        cp = CheckpointStore()
        cp.commit("q", 0, {0: 1})
        with pytest.raises(ValueError):
            cp.commit("q", 2, {0: 2})  # skipped batch 1
        with pytest.raises(ValueError):
            cp.commit("q", 0, {0: 2})  # duplicate
        cp.commit("q", 1, {0: 2})

    def test_first_commit_must_be_zero(self):
        cp = CheckpointStore()
        with pytest.raises(ValueError):
            cp.commit("q", 5, {0: 1})

    def test_reset_forgets_progress(self):
        cp = CheckpointStore()
        cp.commit("q", 0, {0: 1})
        cp.reset("q")
        assert cp.last_batch_id("q") is None
        cp.commit("q", 0, {0: 1})  # can start over

    def test_queries_listed(self):
        cp = CheckpointStore()
        cp.commit("b", 0, {})
        cp.commit("a", 0, {})
        assert cp.queries() == ["a", "b"]


class TestDurable:
    def test_survives_restart(self, tmp_path):
        path = str(tmp_path / "cp")
        cp1 = CheckpointStore(path)
        cp1.commit("q", 0, {0: 42}, {"x": 1})
        # Simulated crash: new store instance reads the same directory.
        cp2 = CheckpointStore(path)
        assert cp2.last_batch_id("q") == 0
        assert cp2.offsets("q") == {0: 42}
        assert cp2.state("q") == {"x": 1}

    def test_contiguity_across_restart(self, tmp_path):
        path = str(tmp_path / "cp")
        CheckpointStore(path).commit("q", 0, {0: 1})
        cp2 = CheckpointStore(path)
        with pytest.raises(ValueError):
            cp2.commit("q", 0, {0: 1})
        cp2.commit("q", 1, {0: 2})

    def test_empty_dir_fresh_state(self, tmp_path):
        cp = CheckpointStore(str(tmp_path / "new"))
        assert cp.queries() == []


class TestCorruptQuarantine:
    """Regression: a torn ``checkpoints.json`` used to brick restart
    with an unhandled ``JSONDecodeError``.  Now it is quarantined and
    the query replays from scratch."""

    @staticmethod
    def _tear(path: str) -> str:
        """Truncate the checkpoint file mid-payload, like a torn write."""
        file = os.path.join(path, "checkpoints.json")
        with open(file, "r", encoding="utf-8") as fh:
            whole = fh.read()
        with open(file, "w", encoding="utf-8") as fh:
            fh.write(whole[: len(whole) // 2])
        return file

    def test_truncated_json_quarantined(self, tmp_path):
        path = str(tmp_path / "cp")
        CheckpointStore(path).commit("q", 0, {0: 42}, {"wm": 9.0})
        file = self._tear(path)

        before = METRICS.counter("checkpoint.corrupt_quarantined")
        with pytest.warns(CheckpointCorruptWarning):
            cp = CheckpointStore(path)

        # Fresh state, not a crash.
        assert cp.queries() == []
        assert cp.last_batch_id("q") is None
        # Forensic evidence preserved, live file gone.
        assert not os.path.exists(file)
        quarantined = file + ".corrupt-0"
        assert os.path.exists(quarantined)
        assert cp.last_corruption is not None
        assert isinstance(cp.last_corruption, CheckpointCorruptError)
        assert cp.last_corruption.quarantined_to == quarantined
        assert METRICS.counter("checkpoint.corrupt_quarantined") - before == 1
        # The query can start over from batch 0.
        cp.commit("q", 0, {0: 0})

    def test_non_dict_payload_quarantined(self, tmp_path):
        path = str(tmp_path / "cp")
        os.makedirs(path)
        file = os.path.join(path, "checkpoints.json")
        with open(file, "w", encoding="utf-8") as fh:
            fh.write("[1, 2, 3]")  # valid JSON, wrong shape
        with pytest.warns(CheckpointCorruptWarning):
            cp = CheckpointStore(path)
        assert cp.queries() == []
        assert os.path.exists(file + ".corrupt-0")
        assert "expected a JSON object" in cp.last_corruption.reason

    def test_repeated_corruption_numbers_files(self, tmp_path):
        path = str(tmp_path / "cp")
        CheckpointStore(path).commit("q", 0, {0: 1})
        self._tear(path)
        with pytest.warns(CheckpointCorruptWarning):
            CheckpointStore(path).commit("q", 0, {0: 1})
        self._tear(path)
        with pytest.warns(CheckpointCorruptWarning):
            cp = CheckpointStore(path)
        file = os.path.join(path, "checkpoints.json")
        assert os.path.exists(file + ".corrupt-0")
        assert os.path.exists(file + ".corrupt-1")
        assert cp.last_corruption.quarantined_to == file + ".corrupt-1"

    def test_clean_load_leaves_no_corruption_record(self, tmp_path):
        path = str(tmp_path / "cp")
        CheckpointStore(path).commit("q", 0, {0: 1})
        cp = CheckpointStore(path)
        assert cp.last_corruption is None
        assert cp.last_batch_id("q") == 0

    @pytest.mark.parametrize(
        "payload",
        [
            {"q": 5},
            {"q": {"batch_id": "x", "offsets": {"a": 1}, "state": {}}},
            {"q": {"batch_id": 0, "offsets": {"a": 1}, "state": {}}},
            {"q": {"batch_id": 0, "offsets": {"0": "1"}, "state": {}}},
            {"q": {"batch_id": True, "offsets": {}, "state": {}}},
            {"q": {"batch_id": 0, "offsets": [], "state": {}}},
            {"q": {"batch_id": 0, "offsets": {}, "state": []}},
            {"q": {"batch_id": 0, "offsets": {}}},
        ],
    )
    def test_malformed_entry_quarantined(self, tmp_path, payload):
        # Valid JSON whose entries have the wrong shape used to load and
        # fail later, untyped, in last_batch_id or offsets.
        path = str(tmp_path / "cp")
        os.makedirs(path)
        file = os.path.join(path, "checkpoints.json")
        ok = {"batch_id": 3, "offsets": {"0": 7}, "state": {"wm": 1.0}}
        with open(file, "w", encoding="utf-8") as fh:
            json.dump({"good": ok, **payload}, fh)
        with pytest.warns(CheckpointCorruptWarning):
            cp = CheckpointStore(path)
        assert cp.queries() == []
        assert os.path.exists(file + ".corrupt-0")
        assert "malformed entry for query 'q'" in cp.last_corruption.reason


def _written(tmp_path_factory, text: str) -> str:
    path = str(tmp_path_factory.mktemp("cp"))
    with open(os.path.join(path, "checkpoints.json"), "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _clean_file(tmp_path_factory) -> str:
    path = str(tmp_path_factory.mktemp("clean"))
    cp = CheckpointStore(path)
    cp.commit("a", 0, {0: 10, 3: 5}, {"wm": 9.5})
    cp.commit("a", 1, {0: 12, 3: 6}, {"wm": 10.5})
    cp.commit("b", 0, {1: 2})
    with open(os.path.join(path, "checkpoints.json"), encoding="utf-8") as fh:
        return fh.read()


def _assert_loaded_or_quarantined(cp: CheckpointStore) -> None:
    """A store either starts empty from a quarantined file or answers
    every accessor with the types commit wrote."""
    if cp.last_corruption is not None:
        assert cp.queries() == []
        return
    for q in cp.queries():
        assert isinstance(cp.last_batch_id(q), int)
        assert all(
            isinstance(k, int) and isinstance(v, int)
            for k, v in cp.offsets(q).items()
        )
        assert isinstance(cp.state(q), dict)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@settings(deadline=None)
@given(data=st.data())
def test_every_prefix_loads_whole_or_quarantined(tmp_path_factory, data):
    text = _clean_file(tmp_path_factory)
    cut = data.draw(st.integers(0, len(text)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CheckpointCorruptWarning)
        cp = CheckpointStore(_written(tmp_path_factory, text[:cut]))
    assert (cp.last_corruption is None) == (cut == len(text))
    _assert_loaded_or_quarantined(cp)
    if cut == len(text):
        assert cp.offsets("a") == {0: 12, 3: 6} and cp.last_batch_id("b") == 0


@settings(deadline=None)
@given(
    query=st.sampled_from(["a", "b", "new"]),
    field=st.sampled_from([None, "batch_id", "offsets", "state"]),
    value=json_values,
)
def test_any_mangled_entry_loads_typed_or_quarantined(
    tmp_path_factory, query, field, value
):
    loaded = json.loads(_clean_file(tmp_path_factory))
    if field is None:
        loaded[query] = value
    else:
        loaded.setdefault(query, {"batch_id": 0, "offsets": {}, "state": {}})
        loaded[query][field] = value
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CheckpointCorruptWarning)
        cp = CheckpointStore(_written(tmp_path_factory, json.dumps(loaded)))
    _assert_loaded_or_quarantined(cp)
