"""Unit + property tests for simulated filesystems and record splitting."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.errors import (
    BlockUnavailableError,
    FileExistsInSim,
    FileNotFoundInSim,
    FileSystemError,
    SimProcessError,
)
from repro.fs import HDFS, BytesContent, LineContent, LocalFS, NFSFileSystem
from repro.fs.base import SimFile
from repro.fs.records import iter_all_records, read_split_records
from repro.sim import current_process
from repro.sim.trace import Trace
from repro.units import MB, KiB, MiB
from tests.conftest import TESTING_MACHINE, counting_trace, forced_trace


def make_cluster(nodes=2):
    return Cluster(TESTING_MACHINE.with_nodes(nodes), trace=forced_trace())


def run_in_proc(cl, fn, node_id=0):
    """Run fn(proc) inside a simulated process, return (result, time)."""
    out = {}

    def body():
        p = current_process()
        out["res"] = fn(p)
        out["t"] = p.clock

    cl.spawn(body, node_id=node_id, name="t")
    cl.run()
    return out["res"], out["t"]


class _SmallChunks(LineContent):
    """Renders three records at a time, so short lists cross chunk edges."""

    _RENDER_LINES = 3


class TestContent:
    def test_bytes_content_roundtrip(self):
        c = BytesContent(b"hello world")
        assert c.size == 11
        assert c.read(0, 5) == b"hello"
        assert c.read(6, 100) == b"world"
        assert c.read_all() == b"hello world"

    def test_line_content_builds_records(self):
        c = LineContent(lambda i: f"row-{i}", 3)
        assert c.read_all() == b"row-0\nrow-1\nrow-2\n"
        assert list(c.lines()) == ["row-0", "row-1", "row-2"]

    def test_line_content_empty(self):
        c = LineContent(lambda i: "x", 0)
        assert c.size == 0
        assert list(c.lines()) == []

    def test_line_with_newline_rejected(self):
        with pytest.raises(ValueError):
            LineContent(lambda i: "a\nb", 1)
        # ...also past the first render chunk, naming the record
        with pytest.raises(ValueError, match="line 5 "):
            _SmallChunks(lambda i: "a\nb" if i == 5 else "ok", 8)

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            LineContent(lambda i: "x", -1)
        c = LineContent(lambda i: "x", 2)
        for offset, length in ((-1, 1), (0, -1)):
            with pytest.raises(ValueError):
                c.read(offset, length)

    @settings(max_examples=200, deadline=None)
    @given(
        lines=st.lists(st.text(st.characters(blacklist_characters="\n",
                                             blacklist_categories=("Cs",)),
                               max_size=8), max_size=10),
        offset=st.integers(0, 120),
        length=st.integers(0, 120),
    )
    def test_line_content_is_its_rendered_bytes(self, lines, offset, length):
        """Any range — past the end included — reads as a slice of the
        reference rendering, and the records round-trip."""
        c = _SmallChunks(lambda i: lines[i], len(lines))
        reference = "".join(line + "\n" for line in lines).encode()
        assert c.n_lines == len(lines)
        assert c.size == len(reference)
        assert c.read_all() == reference
        assert c.read(offset, length) == reference[offset:offset + length]
        assert list(c.lines()) == lines


class TestSimFile:
    def test_logical_size_scales(self):
        f = SimFile("x", BytesContent(b"ab" * 50), scale=1000)
        assert f.physical_size == 100
        assert f.logical_size == 100_000

    def test_physical_range_floors_at_boundaries(self):
        f = SimFile("x", BytesContent(bytes(100)), scale=10)
        assert f.physical_range(0, 1000) == (0, 100)
        assert f.physical_range(250, 250) == (25, 50)
        assert f.physical_range(255, 10) == (25, 26)

    def test_scale_one_is_identity(self):
        f = SimFile("x", BytesContent(b"abcdef"))
        assert f.physical_range(2, 3) == (2, 5)

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            SimFile("x", BytesContent(b""), scale=0)

    @given(
        scale=st.integers(1, 97),
        psize=st.integers(1, 300),
        cuts=st.lists(st.integers(0, 30_000), max_size=6),
    )
    @settings(max_examples=120, deadline=None)
    def test_logical_tiling_maps_to_physical_tiling(self, scale, psize, cuts):
        """Disjoint logical tiles cover every physical byte exactly once."""
        f = SimFile("x", BytesContent(bytes(psize)), scale=scale)
        lsize = f.logical_size
        points = sorted({0, lsize, *[c % (lsize + 1) for c in cuts]})
        covered = []
        for a, b in zip(points, points[1:]):
            s, e = f.physical_range(a, b - a)
            covered.append((s, e))
        # contiguity: each tile starts where the previous ended
        assert covered[0][0] == 0
        assert covered[-1][1] == psize
        for (s1, e1), (s2, e2) in zip(covered, covered[1:]):
            assert e1 == s2


class TestLocalFS:
    def test_create_and_read_back(self):
        cl = make_cluster()
        fs = LocalFS(cl)
        fs.create("data.txt", BytesContent(b"abcdefgh"), node_id=0)

        res, t = run_in_proc(cl, lambda p: fs.read(p, "data.txt", 2, 4))
        assert res == b"cdef"
        assert t > 0

    def test_file_is_node_local(self):
        cl = make_cluster()
        fs = LocalFS(cl)
        fs.create("only0.txt", BytesContent(b"x"), node_id=0)

        def body():
            fs.read(current_process(), "only0.txt", 0, 1)

        cl.spawn(body, node_id=1, name="reader1")
        with pytest.raises(SimProcessError) as ei:
            cl.run()
        assert isinstance(ei.value.__cause__, FileNotFoundInSim)

    def test_create_replicated_visible_everywhere(self):
        cl = make_cluster()
        fs = LocalFS(cl)
        fs.create_replicated("all.txt", BytesContent(b"zz"))
        assert fs.nodes_with("all.txt") == [0, 1]

    def test_duplicate_create_rejected(self):
        cl = make_cluster()
        fs = LocalFS(cl)
        fs.create("a", BytesContent(b""), node_id=0)
        with pytest.raises(FileExistsInSim):
            fs.create("a", BytesContent(b""), node_id=0)

    def test_create_replicated_is_all_or_nothing(self):
        cl = make_cluster(3)
        fs = LocalFS(cl)
        old = fs.create("a", BytesContent(b"old"), node_id=2)
        with pytest.raises(FileExistsInSim):
            fs.create_replicated("a", BytesContent(b"new"))
        assert fs.nodes_with("a") == [2]
        assert fs.lookup("a") is old

    def test_read_time_charges_logical_bytes(self):
        cl = make_cluster()
        fs = LocalFS(cl)
        fs.create("s.bin", BytesContent(bytes(1 * MiB)), node_id=0, scale=10)

        _, t_scaled = run_in_proc(cl, lambda p: fs.read(p, "s.bin", 0, 10 * MiB))

        cl2 = make_cluster()
        fs2 = LocalFS(cl2)
        fs2.create("u.bin", BytesContent(bytes(1 * MiB)), node_id=0, scale=1)
        _, t_unscaled = run_in_proc(cl2, lambda p: fs2.read(p, "u.bin", 0, 1 * MiB))

        # Per-request latency is charged once per read; the bandwidth term
        # scales with the logical size.
        lat = cl.spec.node.ssd_latency
        assert t_scaled - lat == pytest.approx(10 * (t_unscaled - lat), rel=1e-6)

    def test_write_charges_time(self):
        cl = make_cluster()
        fs = LocalFS(cl)
        _, t = run_in_proc(cl, lambda p: fs.write(p, "out.bin", 100 * MiB))
        assert t >= (100 * MiB) / cl.spec.node.ssd_write_bw

    def test_delete(self):
        cl = make_cluster()
        fs = LocalFS(cl)
        fs.create("gone", BytesContent(b""), node_id=1)
        fs.delete("gone")
        assert not fs.exists("gone")
        with pytest.raises(FileNotFoundInSim):
            fs.delete("gone")


class TestNFS:
    def test_visible_from_all_nodes(self):
        cl = make_cluster()
        fs = NFSFileSystem(cl)
        fs.create("shared.txt", BytesContent(b"hello"))
        got = {}

        def reader(node):
            got[node] = fs.read(current_process(), "shared.txt", 0, 5)

        cl.spawn(reader, 0, node_id=0, name="r0")
        cl.spawn(reader, 1, node_id=1, name="r1")
        cl.run()
        assert got == {0: b"hello", 1: b"hello"}

    def test_concurrent_readers_contend(self):
        cl = make_cluster()
        fs = NFSFileSystem(cl)
        fs.create("big", BytesContent(bytes(1 * MiB)), scale=100)
        done = []

        def reader():
            p = current_process()
            fs.read(p, "big", 0, 100 * MiB)
            done.append(p.clock)

        cl.spawn(reader, node_id=0, name="r0")
        cl.spawn(reader, node_id=1, name="r1")
        cl.run()
        solo = (100 * MiB) / cl.spec.nfs_bandwidth
        assert max(done) > 1.9 * solo


class TestHDFS:
    def test_blocks_cover_file(self):
        cl = make_cluster(4)
        h = HDFS(cl, block_size=10 * MB, replication=2)
        h.create("f", BytesContent(bytes(1000)), scale=35_000)  # 35 MB logical
        blocks = h.blocks("f")
        assert [(b.start, b.end) for b in blocks] == [
            (0, 10 * MB),
            (10 * MB, 20 * MB),
            (20 * MB, 30 * MB),
            (30 * MB, 35 * MB),
        ]
        for b in blocks:
            assert len(b.replicas) == 2
            assert len(set(b.replicas)) == 2

    def test_replication_clamped_to_cluster(self):
        cl = make_cluster(2)
        h = HDFS(cl, replication=3)
        h.create("f", BytesContent(b"x"))
        assert len(h.blocks("f")[0].replicas) == 2

    def test_read_returns_exact_bytes_across_blocks(self):
        cl = make_cluster(3)
        h = HDFS(cl, block_size=7)  # tiny blocks to force multi-block reads
        payload = bytes(range(50))
        h.create("f", BytesContent(payload))
        res, _ = run_in_proc(cl, lambda p: h.read(p, "f", 3, 30))
        assert res == payload[3:33]

    def test_local_replica_faster_than_remote(self):
        def read_time(reader_node):
            cl = make_cluster(4)
            h = HDFS(cl, block_size=64 * MB, replication=1)
            h.create("f", BytesContent(bytes(1 * MiB)), scale=60)
            # single block, replica on node (0 % 4) = 0
            assert h.blocks("f")[0].replicas == [0]
            _, t = run_in_proc(cl, lambda p: h.read(p, "f", 0, 60 * MiB),
                               node_id=reader_node)
            return t

        assert read_time(0) < read_time(1)

    def test_dead_datanode_is_transparent(self):
        cl = make_cluster(3)
        h = HDFS(cl, block_size=64 * MB, replication=2)
        payload = bytes(range(100))
        h.create("f", BytesContent(payload))
        h.kill_datanode(0)  # replica set of block 0 is [0, 1]
        res, _ = run_in_proc(cl, lambda p: h.read(p, "f", 0, 100), node_id=2)
        assert res == payload  # read still succeeds via node 1

    def test_all_replicas_dead_raises(self):
        cl = make_cluster(2)
        h = HDFS(cl, replication=2)
        h.create("f", BytesContent(b"x"))
        h.kill_datanode(0)
        h.kill_datanode(1)

        def body():
            h.read(current_process(), "f", 0, 1)

        cl.spawn(body, node_id=0, name="r")
        with pytest.raises(SimProcessError) as ei:
            cl.run()
        assert isinstance(ei.value.__cause__, BlockUnavailableError)

    def test_under_replicated_fsck(self):
        cl = make_cluster(3)
        h = HDFS(cl, block_size=5, replication=2)
        h.create("f", BytesContent(bytes(12)))
        assert h.under_replicated("f") == []
        h.kill_datanode(0)
        assert len(h.under_replicated("f")) > 0
        h.restart_datanode(0)
        assert h.under_replicated("f") == []

    def test_block_locations_exclude_dead(self):
        cl = make_cluster(3)
        h = HDFS(cl, replication=2)
        h.create("f", BytesContent(b"abc"))
        h.kill_datanode(0)
        (start, end, alive), = h.block_locations("f")
        assert 0 not in alive

    def test_timed_write_creates_blocks(self):
        cl = make_cluster(3)
        h = HDFS(cl, block_size=10 * MB, replication=2)
        _, t = run_in_proc(cl, lambda p: h.write(p, "out", 25 * MB))
        assert h.exists("out")
        assert len(h.blocks("out")) == 3
        assert t > 0

    def test_higher_replication_makes_more_reads_local(self):
        """The paper's V-B2 fix: replication == node count => always local."""
        def total_remote_bytes(repl):
            cl = make_cluster(4)
            h = HDFS(cl, block_size=1 * MB, replication=repl)
            h.create("f", BytesContent(bytes(1 * MB)), scale=16)  # 16 blocks
            remote = {"n": 0.0}
            orig = cl.network.transmit_steps

            def spy(proc, fabric, src, dst, nbytes, **kw):
                remote["n"] += nbytes
                return orig(proc, fabric, src, dst, nbytes, **kw)

            cl.network.transmit_steps = spy
            run_in_proc(cl, lambda p: h.read(p, "f", 0, 16 * MB), node_id=0)
            return remote["n"]

        assert total_remote_bytes(4) == 0
        assert total_remote_bytes(1) > 0


class TestTimedWritesGrowTheFile:
    """A timed write extends its file by the logical bytes written.  The
    written range has no payload: it reads as no bytes, and reading it
    costs its length like any other range."""

    @pytest.mark.parametrize("make", [
        LocalFS, NFSFileSystem,
        lambda cl: HDFS(cl, block_size=10 * MB, replication=2)],
        ids=["local", "nfs", "hdfs"])
    def test_size_and_read_back(self, make):
        cl = make_cluster(3)
        fs = make(cl)

        def body(p):
            fs.write(p, "out", 25 * MB)
            size = fs.size("out")
            t0 = p.clock
            data = fs.read(p, "out", 0, 25 * MB)
            t_read = p.clock - t0
            fs.write(p, "out", 5 * MB)
            return size, data, t_read

        (size, data, t_read), _ = run_in_proc(cl, body)
        assert size == 25 * MB
        assert fs.size("out") == 30 * MB
        assert data == b""
        bw = (cl.spec.nfs_bandwidth if isinstance(fs, NFSFileSystem)
              else cl.spec.node.ssd_read_bw)
        assert t_read >= 25 * MB / bw
        if isinstance(fs, HDFS):
            assert fs.blocks("out")[-1].end == fs.size("out")


def _local_input(cl, content, scale=1):
    fs = LocalFS(cl)
    fs.create_replicated("in", content, scale=scale)
    return fs


def _nfs_input(cl, content, scale=1):
    fs = NFSFileSystem(cl)
    fs.create("in", content, scale=scale)
    return fs


def _hdfs_input(cl, content, scale=1):
    # replicas of block i sit on nodes i % 3 and (i + 1) % 3, so a reader
    # on node 2 mixes local and remote blocks, and writes cross the fabric
    fs = HDFS(cl, block_size=4 * KiB, replication=2)
    fs.create("in", content, scale=scale)
    return fs


FILESYSTEMS = pytest.mark.parametrize(
    "make", [_local_input, _nfs_input, _hdfs_input],
    ids=["local", "nfs", "hdfs"])


class TestTimedIOContract:
    """What every filesystem's timed surface promises alike."""

    @staticmethod
    def _run(make, blocking, monkeypatch):
        """Two readers/writers on nodes 1 and 2, through the blocking pair
        or through ``run_steps`` over the step bodies: what they read,
        their end clocks, the hb event stream and every flow's label."""
        cl = Cluster(TESTING_MACHINE.with_nodes(3), trace=Trace(hb=True))
        fs = make(cl, LineContent(lambda i: f"row-{i:05d}", 2000), scale=3)
        labels = []
        real_transfer = cl.flows.transfer_steps

        def transfer(proc, resources, nbytes, **kw):
            labels.append((proc.name, kw.get("label")))
            return real_transfer(proc, resources, nbytes, **kw)

        monkeypatch.setattr(cl.flows, "transfer_steps", transfer)
        got, clocks = {}, {}

        def body(i):
            p = current_process()
            if blocking:
                read, write = fs.read, fs.write
            else:
                def read(p, path, offset, length):
                    return p.run_steps(fs.read_steps(p, path, offset, length))

                def write(p, path, nbytes):
                    p.run_steps(fs.write_steps(p, path, nbytes))
            got[i] = [read(p, "in", 1000 * i, 9000)]
            write(p, f"out{i}", 10 * KiB)
            got[i].append(read(p, "in", 20 * KiB, 10 * MiB))
            write(p, f"out{i}", 5000)
            got[i].append(read(p, "in", 20, 0))
            clocks[i] = p.clock

        for i in (1, 2):
            cl.spawn(body, i, node_id=i, name=f"io{i}")
        cl.run()
        events = [(e.time, e.proc, e.kind, e.detail) for e in cl.trace]
        return got, clocks, events, labels

    @FILESYSTEMS
    def test_blocking_pair_is_run_steps_over_the_step_bodies(
            self, make, monkeypatch):
        blocking = self._run(make, True, monkeypatch)
        steps = self._run(make, False, monkeypatch)
        got, clocks, events, labels = blocking
        assert steps == blocking
        assert got[1][0] and got[1][1] and got[1][2] == b""
        kinds = {kind for _, _, kind, _ in events}
        assert {"disk.read", "disk.write", "mem.read", "mem.write"} <= kinds
        scheme = make.__name__.split("_")[1]
        assert all(label.startswith(f"{scheme}:") for _, label in labels)
        if scheme == "hdfs":
            assert "net.transmit" in kinds

    @FILESYSTEMS
    def test_a_negative_range_is_a_file_system_error(self, make):
        cl = Cluster(TESTING_MACHINE.with_nodes(3), trace=forced_trace())
        with pytest.raises(FileSystemError):
            make(cl, BytesContent(b"abc"), scale=0)
        for offset, length in ((-4, 8), (0, -1)):
            cl = Cluster(TESTING_MACHINE.with_nodes(3), trace=forced_trace())
            fs = make(cl, BytesContent(bytes(64)))
            cl.spawn(lambda: fs.read(current_process(), "in", offset, length),
                     node_id=1, name="r")
            with pytest.raises(SimProcessError) as ei:
                cl.run()
            assert isinstance(ei.value.__cause__, FileSystemError)
            assert isinstance(ei.value.__cause__, ValueError)


class TestRecordSplitting:
    def _fs_with_lines(self, n_lines=100, scale=1):
        cl = make_cluster()
        fs = LocalFS(cl)
        content = LineContent(lambda i: f"record-{i:04d}", n_lines)
        fs.create_replicated("lines.txt", content, scale=scale)
        return cl, fs

    def test_whole_file_single_split(self):
        cl, fs = self._fs_with_lines(10)
        size = fs.size("lines.txt")
        res, _ = run_in_proc(
            cl, lambda p: p.run_steps(
                read_split_records(fs, p, "lines.txt", 0, size))
        )
        assert list(res) == [f"record-{i:04d}" for i in range(10)]

    def test_iter_all_records_matches(self):
        _, fs = self._fs_with_lines(7)
        assert list(iter_all_records(fs, "lines.txt")) == [
            f"record-{i:04d}" for i in range(7)
        ]

    @given(
        n_splits=st.integers(1, 7),
        n_lines=st.integers(0, 60),
        jitter=st.integers(0, 12345),
    )
    @settings(max_examples=40, deadline=None)
    def test_splits_tile_records_exactly(self, n_splits, n_lines, jitter):
        """Any split of the byte range yields each record exactly once."""
        cl, fs = self._fs_with_lines(n_lines)
        size = fs.size("lines.txt")
        # deterministic pseudo-random cut points from `jitter`
        points = sorted(
            {0, size, *(((jitter * (i + 1) * 2654435761) % (size + 1))
                        for i in range(n_splits - 1))}
        )
        collected = []

        def body():
            p = current_process()
            for a, b in zip(points, points[1:]):
                collected.extend(p.run_steps(
                    read_split_records(fs, p, "lines.txt", a, b)
                ))

        cl.spawn(body, node_id=0, name="splitter")
        cl.run()
        assert collected == list(iter_all_records(fs, "lines.txt"))

    @given(data=st.binary(max_size=200),
           cuts=st.lists(st.integers(0, 200), max_size=6),
           lookahead=st.sampled_from([1, 7, 64]))
    @settings(max_examples=100, deadline=None)
    def test_splits_of_any_bytes_decode_as_the_whole_file(self, data, cuts,
                                                          lookahead):
        """Split-then-decode equals decode-then-split for any buffer, any
        cut points (mid multibyte sequence too) and any probe width."""
        cl = make_cluster()
        fs = LocalFS(cl)
        fs.create_replicated("raw.txt", BytesContent(data))
        points = sorted({0, len(data), *(c for c in cuts if c <= len(data))})
        collected = []

        def body():
            p = current_process()
            for a, b in zip(points, points[1:]):
                collected.extend(p.run_steps(read_split_records(
                    fs, p, "raw.txt", a, b, lookahead=lookahead)))

        cl.spawn(body, node_id=0, name="splitter")
        cl.run()
        whole = data.decode("utf-8", "replace").split("\n")
        if whole[-1] == "":
            whole.pop()
        assert collected == list(iter_all_records(fs, "raw.txt")) == whole

    @given(scale=st.sampled_from([1, 3, 10, 1000]), n_splits=st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_scaled_splits_tile_records_exactly(self, scale, n_splits):
        """The tiling property survives logical scaling."""
        cl, fs = self._fs_with_lines(40, scale=scale)
        size = fs.size("lines.txt")
        chunk = -(-size // n_splits)
        collected = []

        def body():
            p = current_process()
            for i in range(n_splits):
                collected.extend(p.run_steps(
                    read_split_records(
                        fs, p, "lines.txt", i * chunk, min(size, (i + 1) * chunk)
                    )
                ))

        cl.spawn(body, node_id=0, name="splitter")
        cl.run()
        assert collected == list(iter_all_records(fs, "lines.txt"))

    def test_a_split_read_parks_its_owner_at_most_once(self, monkeypatch):
        big = b"B" * 500
        cl = Cluster(TESTING_MACHINE.with_nodes(2), trace=counting_trace())
        fs = LocalFS(cl)
        fs.create_replicated("big.txt", BytesContent(b"head\n" + big + b"\n"))
        reads = []
        real_read = fs.read_steps

        def spy(proc, path, offset, length):
            reads.append(offset)
            return real_read(proc, path, offset, length)

        monkeypatch.setattr(fs, "read_steps", spy)
        done = []

        def reader():
            p = current_process()
            done.append(p.run_steps(
                read_split_records(fs, p, "big.txt", 0, 7, lookahead=64)))

        def ticker():  # the reader is never the minimum at a wait
            p = current_process()
            while not done:
                p.sleep(1e-6)

        cl.spawn(reader, node_id=0, name="reader")
        cl.spawn(ticker, node_id=1, name="ticker")
        cl.run()
        assert [list(r) for r in done] == [["head", big.decode()]]
        assert len(reads) >= 4  # the split read and its boundary probes
        assert cl.trace.counters["sim.park", "reader"] <= 1

    def test_split_mid_record_belongs_to_previous(self):
        cl, fs = self._fs_with_lines(2)  # "record-0000\nrecord-0001\n"
        res = {}

        def body():
            p = current_process()
            res["a"] = p.run_steps(read_split_records(fs, p, "lines.txt", 0, 5))
            res["b"] = p.run_steps(
                read_split_records(fs, p, "lines.txt", 5, 26))

        cl.spawn(body, node_id=0, name="s")
        cl.run()
        assert list(res["a"]) == ["record-0000"]
        assert list(res["b"]) == ["record-0001"]
