"""Request fingerprints and payload digests: the determinism contract."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.serve import Request, ResultEnvelope, payload_digest


class TestRequest:
    def test_kwarg_order_does_not_change_fingerprint(self):
        a = Request.make("t", "job_overview", job_id="j1", detail=2)
        b = Request.make("t", "job_overview", detail=2, job_id="j1")
        assert a == b
        assert a.fingerprint() == b.fingerprint()

    def test_tenant_excluded_from_fingerprint(self):
        # Tenancy is an admission concern; two tenants asking the same
        # question share one cache entry.
        a = Request.make("alice", "job_overview", job_id="j1")
        b = Request.make("bob", "job_overview", job_id="j1")
        assert a.fingerprint() == b.fingerprint()

    def test_params_and_endpoint_distinguish(self):
        base = Request.make("t", "e", x=1)
        assert base.fingerprint() != Request.make("t", "e", x=2).fingerprint()
        assert base.fingerprint() != Request.make("t", "f", x=1).fingerprint()

    def test_value_types_distinguish(self):
        # "1" vs 1 must not collide (type-tagged canonical form).
        a = Request.make("t", "e", x=1)
        b = Request.make("t", "e", x="1")
        assert a.fingerprint() != b.fingerprint()

    def test_kwargs_roundtrip(self):
        request = Request.make("t", "e", t0=0.0, t1=60.0)
        assert request.kwargs() == {"t0": 0.0, "t1": 60.0}

    def test_non_scalar_params_rejected(self):
        with pytest.raises(ValueError):
            Request.make("t", "e", bad=[1, 2])
        with pytest.raises(ValueError):
            Request.make("t", "e", bad={"k": 1})


class TestResultEnvelope:
    def test_ok_covers_fresh_and_cached(self):
        request = Request.make("t", "e")
        assert ResultEnvelope(request, "ok", payload=1).ok
        assert ResultEnvelope(request, "cached", payload=1).ok
        assert not ResultEnvelope(request, "rejected", error="quota").ok
        assert not ResultEnvelope(request, "error", error="boom").ok


class _DuckTable:
    """Minimal column-table duck type (column_names + __getitem__)."""

    def __init__(self, cols):
        self._cols = dict(cols)

    @property
    def column_names(self):
        return list(self._cols)

    def __getitem__(self, name):
        return self._cols[name]


class TestPayloadDigest:
    def test_scalars_and_containers(self):
        assert payload_digest(None) == payload_digest(None)
        assert payload_digest(1) != payload_digest(1.0)
        assert payload_digest(True) != payload_digest(1)
        assert payload_digest([1, 2]) == payload_digest((1, 2))
        assert payload_digest({"a": 1, "b": 2}) == payload_digest(
            {"b": 2, "a": 1}
        )
        assert payload_digest({"a": 1}) != payload_digest({"a": 2})

    def test_arrays_by_content(self):
        a = np.arange(5, dtype=np.float64)
        assert payload_digest(a) == payload_digest(a.copy())
        assert payload_digest(a) != payload_digest(a.astype(np.float32))
        assert payload_digest(a) != payload_digest(a[::-1].copy())

    def test_object_arrays_digest_values_not_pointers(self):
        # Two distinct str objects with equal values must digest equal
        # (.tobytes() on object arrays hashes pointers).
        a = np.array(["job-" + "1", "job-2"], dtype=object)
        b = np.array(["job" + "-1", "job-2"], dtype=object)
        assert payload_digest(a) == payload_digest(b)

    def test_duck_table_column_order_matters(self):
        t1 = _DuckTable({"x": np.arange(3), "y": np.ones(3)})
        t2 = _DuckTable({"x": np.arange(3), "y": np.ones(3)})
        t3 = _DuckTable({"y": np.ones(3), "x": np.arange(3)})
        assert payload_digest(t1) == payload_digest(t2)
        assert payload_digest(t1) != payload_digest(t3)

    def test_nested_payload(self):
        payload = {
            "job_id": "j1",
            "power": np.linspace(0, 1, 4),
            "events": {"codes": np.array([1, 2])},
            "findings": ((("code", "E1"),),),
        }
        assert payload_digest(payload) == payload_digest(dict(payload))

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            payload_digest(object())


# -- pinned digests ------------------------------------------------------------
#
# ``serve_mixed``'s pinned output digest hashes every envelope's
# ``payload_digest``, so the digest's byte stream is a contract: a
# faster implementation must produce the same hex for every payload.
# The literals below were taken from the straightforward implementation
# that ``_reference_digest`` keeps as the spec.


def _reference_array(h, arr):
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    if arr.dtype == object:
        h.update(repr(arr.tolist()).encode())
    else:
        h.update(arr.tobytes())


def _reference_into(h, obj):
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, bool):
        h.update(b"B1" if obj else b"B0")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"I" + repr(int(obj)).encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"F" + repr(float(obj)).encode())
    elif isinstance(obj, str):
        h.update(b"S" + obj.encode("utf-8"))
    elif isinstance(obj, np.ndarray):
        h.update(b"A")
        _reference_array(h, obj)
    elif isinstance(obj, (tuple, list)):
        h.update(f"T{len(obj)}".encode())
        for item in obj:
            h.update(b"\x00")
            _reference_into(h, item)
    elif isinstance(obj, dict):
        h.update(f"D{len(obj)}".encode())
        for key in sorted(obj):
            h.update(b"\x00" + str(key).encode("utf-8") + b"\x01")
            _reference_into(h, obj[key])
    elif hasattr(obj, "column_names") and hasattr(obj, "__getitem__"):
        names = list(obj.column_names)
        h.update(f"C{len(names)}".encode())
        for name in names:
            h.update(b"\x00" + name.encode("utf-8") + b"\x01")
            _reference_array(h, np.asarray(obj[name]))
    else:
        raise ValueError(type(obj).__name__)


def _reference_digest(payload):
    import hashlib

    h = hashlib.blake2b(digest_size=16)
    _reference_into(h, payload)
    return h.hexdigest()


def _pinned_payloads():
    from repro.columnar import ColumnTable
    from repro.pipeline.ops import pivot

    # A duck table: ColumnTable itself does not hold bool columns.
    mixed = _DuckTable(
        {
            "node": np.array([3, 1, 2, 1], dtype=np.int64),
            "power": np.array([410.5, np.nan, -0.0, 1e300]),
            "up": np.array([True, False, True, True]),
            "who": np.array(["a", None, "ü", ""], dtype=object),
            "small": np.array([1, 2, 3, 4], dtype=np.int16),
        }
    )
    block = np.arange(24, dtype=np.float64).reshape(4, 6) / 7.0
    views = _DuckTable({"c0": block[:, 0], "c3": block[:, 3], "r": block[1]})
    wide = pivot(
        ColumnTable(
            {
                "t": np.array([0.0, 0.0, 15.0, 15.0, 30.0]),
                "k": np.array([1, 2, 1, 2, 2]),
                "v": np.array([1.5, 2.5, np.nan, 4.5, 5.5]),
            }
        ),
        ["t"],
        "k",
        "v",
        name_fn=lambda k: f"s{k}",
    )
    ramp = np.arange(10, dtype=np.int32)
    return {
        "mixed_table": mixed,
        "block_views": views,
        "pivot_table": wide,
        "zero_d": np.array(3.25),
        "zero_d_object": np.array("x", dtype=object),
        "empty_float": np.zeros(0),
        "empty_int_2d": np.zeros((0, 3), dtype=np.int8),
        "empty_object": np.empty(0, dtype=object),
        "reversed": ramp[::-1],
        "strided": ramp[1::3],
        "fortran": np.asfortranarray(block[:3, :2]),
        "transposed": block.T,
        "big_endian": np.arange(4, dtype=">u4"),
        "numpy_scalars": (
            np.float32(1.5),
            np.float64(-2.25),
            np.int16(-3),
            np.uint64(2**63),
            np.int64(7),
        ),
        "python_scalars": [None, True, False, 0, -12, 0.1, float("inf"), "s"],
        "nested": {
            "job_id": 7,
            "events": {
                "timestamps": np.array([1.0, 2.0]),
                "ids": np.array([5, 6], dtype=np.int32),
            },
            "findings": (("idle-gpus", "warning", "m", (("w", 1.5),)),),
            "z": ("tail", {"inner": np.array([True])}),
        },
    }


PINNED_DIGESTS = {
    "big_endian": "265f9c32e7d5fe0e26a5014eeb660355",
    "block_views": "e5c627402876a3a302170cff4c26d3ea",
    "empty_float": "525b901ac8f7b655a36b4f1c3190b71a",
    "empty_int_2d": "4d55cf2e3494e32ebddf36f64acf46f2",
    "empty_object": "e177e70ba67693421a67b2810bc3be59",
    "fortran": "4e7769a2faeb7221eea03cf03122044e",
    "mixed_table": "8151fbf3a4b0abb600f6c64f06af6891",
    "nested": "171861660227232209c5cc7c2e8b45fe",
    "numpy_scalars": "f518997d07095d1f2a86bcb4f3de8f70",
    "pivot_table": "88d20c7d903ed8ee1e13ce071433445e",
    "python_scalars": "bbbaad5936ca01f6e03ab28944f8e182",
    "reversed": "5caf332c63ae3d868c9b683f985a01d4",
    "strided": "efe0f3293bc89eeb239e6e2fcdab329b",
    "transposed": "c7f6db087d091e2ef19cf9f2068b0fc5",
    "zero_d": "f4c695b01e1592b170a5ef33208ea447",
    "zero_d_object": "5b28fd58c4a1fb9738bdf3d939ae7647",
}


class TestPinnedPayloadDigests:
    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_digest_hex_is_pinned(self, name):
        payload = _pinned_payloads()[name]
        assert payload_digest(payload) == PINNED_DIGESTS[name]
        assert _reference_digest(payload) == PINNED_DIGESTS[name]

    def test_every_payload_is_pinned(self):
        assert sorted(_pinned_payloads()) == sorted(PINNED_DIGESTS)


def _array_views():
    """Arrays of the payload dtypes in every memory layout the digest
    must treat alike: contiguous, reversed, strided, transposed, 0-d."""
    dtypes = st.sampled_from(
        [np.float64, np.float32, np.int64, np.int32, np.uint8, np.bool_]
    )
    base = hnp.arrays(
        dtypes,
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
    )

    def layout(arr, how):
        if arr.ndim == 0 or how == "plain":
            return arr
        if how == "reversed":
            return arr[::-1]
        if how == "strided":
            return arr[::2]
        return arr.T

    return st.builds(
        layout,
        base,
        st.sampled_from(["plain", "reversed", "strided", "transposed"]),
    )


def _object_columns():
    return st.lists(st.one_of(st.none(), st.text(max_size=4))).map(
        lambda xs: np.array(xs, dtype=object)
    )


def _payloads():
    leaves = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=True),
        st.text(max_size=5),
        _array_views(),
        _object_columns(),
    )
    tables = st.dictionaries(
        st.text(min_size=1, max_size=3),
        st.integers(0, 4).flatmap(
            lambda n: st.one_of(
                st.lists(st.floats(), min_size=n, max_size=n).map(np.array),
                st.lists(st.integers(-5, 5), min_size=n, max_size=n).map(
                    lambda xs: np.array(xs, dtype=np.int64)[::-1]
                ),
            )
        ),
        max_size=4,
    ).map(_DuckTable)
    return st.recursive(
        st.one_of(leaves, tables),
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.lists(inner, max_size=3).map(tuple),
            st.dictionaries(st.text(max_size=3), inner, max_size=3),
        ),
        max_leaves=8,
    )


class TestDigestMatchesSpec:
    @settings(max_examples=200, deadline=None)
    @given(_payloads())
    def test_payloads_digest_as_the_spec(self, payload):
        assert payload_digest(payload) == _reference_digest(payload)
