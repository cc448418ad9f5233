"""Utility layers: units parsing/formatting, payload sizing, traces."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import datatypes
from repro.mpi.datatypes import MAX, MIN, PROD, SUM, copy_payload, nbytes_of
from repro.sim import Engine, Trace, current_process
from repro.units import (
    GiB,
    INT_MAX,
    KiB,
    MiB,
    fmt_bytes,
    fmt_rate,
    fmt_seconds,
    parse_size,
)


class TestUnits:
    @pytest.mark.parametrize("text,expected", [
        ("8GB", 8_000_000_000),
        ("80 GB", 80_000_000_000),
        ("128MiB", 128 * MiB),
        ("1.5 KiB", 1536),
        ("7", 7),
        (" 2 TB ", 2_000_000_000_000),
        ("0B", 0),
    ])
    def test_parse_size(self, text, expected):
        assert parse_size(text) == expected

    def test_parse_size_accepts_numbers(self):
        assert parse_size(1024) == 1024
        assert parse_size(10.9) == 10

    @pytest.mark.parametrize("bad", ["", "GB", "-3MB", "8 gigas"])
    def test_parse_size_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_size(bad)

    def test_parse_size_rejects_negative_number(self):
        with pytest.raises(ValueError):
            parse_size(-1)

    def test_int_max_is_c_int(self):
        assert INT_MAX == 2**31 - 1

    @pytest.mark.parametrize("t,expected", [
        (2.1e-6, "2.10 us"),
        (0.5e-3, "500.00 us"),
        (46.751, "46.75 s"),
        (125.0, "2.08 min"),
        (3.2e-8, "32.00 ns"),
    ])
    def test_fmt_seconds(self, t, expected):
        assert fmt_seconds(t) == expected

    def test_fmt_bytes_and_rate(self):
        assert fmt_bytes(80e9) == "80.0 GB"
        assert fmt_bytes(500) == "500 B"
        assert fmt_rate(6.8e9) == "6.8 GB/s"

    @given(n=st.integers(0, 10**14))
    @settings(max_examples=50, deadline=None)
    def test_fmt_bytes_total_order_preserved_roughly(self, n):
        # formatting never crashes and units pick sensible magnitudes
        text = fmt_bytes(n)
        assert any(text.endswith(u) for u in (" B", " KB", " MB", " GB", " TB"))


class _Int(int):
    """An ``int`` subclass: sized like an int, but not by the type scan."""


_SCALARS = st.one_of(st.integers(-2**70, 2**70), st.floats())
_ANY_KEYS = st.one_of(_SCALARS, st.booleans(), st.text(max_size=4),
                      st.builds(_Int, st.integers()))
_ANY_VALUES = st.recursive(
    st.one_of(_ANY_KEYS, st.none()),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(_SCALARS, children, max_size=3)),
    max_leaves=8)


def _loop_dict_nbytes(d: dict) -> int:
    """The per-entry price the dict sizer's type scan stands in for."""
    total = 8
    for k, v in d.items():
        total += nbytes_of(k) + nbytes_of(v) + 8
    return total


class TestNbytesOf:
    def test_numpy_exact(self):
        assert nbytes_of(np.zeros(100, np.float32)) == 400
        assert nbytes_of(np.float64(1.0)) == 8

    def test_bytes_and_str(self):
        assert nbytes_of(b"abc") == 3
        assert nbytes_of("héllo") == len("héllo".encode())

    def test_scalars(self):
        assert nbytes_of(3) == 8
        assert nbytes_of(2.5) == 8
        assert nbytes_of(True) == 1
        assert nbytes_of(None) == 1

    def test_containers_recursive(self):
        flat = nbytes_of([1, 2, 3])
        nested = nbytes_of([[1, 2, 3], [1, 2, 3]])
        assert nested > 2 * flat - 16
        assert nbytes_of({"k": 1}) > nbytes_of("k") + 8

    @given(data=st.recursive(
        st.one_of(st.integers(), st.floats(allow_nan=False), st.text()),
        lambda children: st.lists(children, max_size=4), max_leaves=20))
    @settings(max_examples=40, deadline=None)
    def test_always_positive(self, data):
        assert nbytes_of(data) >= 0

    @given(d=st.one_of(
        st.dictionaries(_SCALARS, _SCALARS, max_size=20),
        st.dictionaries(_ANY_KEYS, _ANY_VALUES, max_size=8)))
    @settings(max_examples=200, deadline=None)
    def test_dict_type_scan_equals_the_entry_loop(self, d):
        assert datatypes._dict_nbytes(d) == _loop_dict_nbytes(d)

    @pytest.mark.parametrize("d,scanned", [
        ({}, True),
        ({1: 2, -2**70: 0.5, 3.5: float("nan")}, True),
        ({1: True}, False),               # bool is 1 byte, not 8
        ({True: 1}, False),
        ({_Int(1): 2}, False),            # an int subclass
        ({1: _Int(2)}, False),
        ({"k": 1}, False),
        ({1: [2, 3]}, False),
        ({1: {2: 3.0}}, False),
    ])
    def test_only_exact_ints_and_floats_skip_the_entry_loop(
            self, d, scanned, monkeypatch):
        calls = []

        def counting(obj):
            calls.append(obj)
            return nbytes_of(obj)

        monkeypatch.setattr(datatypes, "nbytes_of", counting)
        assert datatypes._dict_nbytes(d) == _loop_dict_nbytes(d)
        assert (not calls) == scanned

    def test_copy_payload_protects_arrays(self):
        a = np.ones(3)
        b = copy_payload(a)
        a[:] = 0
        assert b.sum() == 3.0

    def test_copy_payload_passthrough_for_immutables(self):
        t = (1, 2)
        assert copy_payload(t) is t

    @pytest.mark.parametrize("wrap,pick", [
        (lambda a: [a, 1], lambda c: c[0]),
        (lambda a: (1, a), lambda c: c[1]),
        (lambda a: {"k": a, "n": 1}, lambda c: c["k"]),
    ])
    def test_copy_payload_protects_buffers_one_container_level_down(
            self, wrap, pick):
        for buf in (np.ones(3), bytearray(b"abc")):
            sent = wrap(buf)
            got = copy_payload(sent)
            assert type(got) is type(sent) and len(got) == len(sent)
            assert pick(got) is not buf and pick(got)[0] == buf[0]
            buf[0] = 0
            assert pick(got)[0] != 0

    def test_copy_payload_shares_frozen_arrays_inside_containers(self):
        frozen = np.ones(3)
        frozen.setflags(write=False)
        sent = [frozen, 1]
        assert copy_payload(sent) is sent
        assert copy_payload(frozen) is not frozen  # top level: always ours


class TestReduceOps:
    def test_scalar_ops(self):
        assert SUM(2, 3) == 5
        assert PROD(2, 3) == 6
        assert MIN(2, 3) == 2
        assert MAX(2, 3) == 3

    def test_array_ops_elementwise(self):
        a, b = np.array([1.0, 5.0]), np.array([4.0, 2.0])
        np.testing.assert_array_equal(MIN(a, b), [1.0, 2.0])
        np.testing.assert_array_equal(MAX(a, b), [4.0, 5.0])
        np.testing.assert_array_equal(SUM(a, b), [5.0, 7.0])


class TestTrace:
    def test_disabled_trace_records_nothing(self):
        t = Trace(enabled=False)
        t.record(1.0, "p", "x.y", a=1)
        assert len(t) == 0

    def test_add_counts_only_when_enabled_and_is_no_event(self):
        off = Trace(enabled=False)
        off.add("x.y", "p")
        assert not off.counters
        on = Trace()
        on.add("x.y", "p")
        on.add("x.y", "p", n=2)
        assert on.counters == {("x.y", "p"): 3}
        assert on.events == [] and len(on) == 0

    def test_parks_are_counted_for_threads_only(self):
        eng = Engine(trace=Trace())

        def threaded():
            p = current_process()
            for _ in range(4):
                p.compute(1.0)
                p.checkpoint()

        def threadless():
            p = current_process()
            for _ in range(4):
                p.compute(1.0)
                yield from p.checkpoint_steps()

        eng.spawn(threaded, name="thread")
        eng.spawn(threadless, name="steps")
        eng.run()
        assert eng.trace.counters["sim.park", "thread"] > 0
        assert eng.trace.counters["sim.park", "steps"] == 0
        assert not eng.trace.filter(kind="sim.park")

    def test_filter_by_kind_prefix_and_proc(self):
        t = Trace()
        t.record(1.0, "p0", "net.transmit", nbytes=5)
        t.record(2.0, "p1", "net.loopback")
        t.record(3.0, "p0", "disk.read")
        assert t.count("net") == 2
        assert len(t.filter(kind="net.transmit")) == 1
        assert len(t.filter(proc="p0")) == 2
        assert len(t.filter(pred=lambda e: e.time > 1.5)) == 2

    def test_trace_threads_through_engine_runs(self):
        from repro.cluster import Cluster
        from tests.conftest import TESTING_MACHINE

        trace = Trace()
        cl = Cluster(TESTING_MACHINE, trace=trace)

        def worker():
            p = current_process()
            cl.network.transmit(p, "ipoib", 0, 1, 1 * MiB)

        cl.spawn(worker, node_id=0, name="w")
        cl.run()
        (ev,) = trace.filter(kind="net.transmit")
        assert ev.detail["nbytes"] == 1 * MiB
        assert ev.proc == "w"
