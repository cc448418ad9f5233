"""Outside-in layer ledger: host seconds and call counts per ``repro.*`` layer.

Nothing under ``src/`` knows about this file.  :func:`install` wraps the
public callables named in :data:`TARGETS` with ``setattr`` and
:func:`uninstall` puts the original objects back, so the untraced
end-to-end measurements never import it.

Attribution is *flat*.  The engine lets exactly one simulated thread run at
a time, so there is one global "last mark" timestamp and one span stack per
thread.  Every wrapper entry or exit, on whichever thread, charges the time
since the last mark to the span that was on top for the thread that ran
before it, then makes its own top current.  A process that enters
``SimProcess.block`` therefore keeps being charged to
``sim.process.switch`` until the next process *leaves* its own yield: token
hand-off, thread wake-up and the supervisor all land on that layer, and the
self times of all layers add up to the traced wall time by construction.

Spans are kept in memory as per-(layer, parent layer) aggregates
(``self_s``, ``calls``) and read out once, by :func:`snapshot`.

Limits (outside-in): a retained checkpoint and a parked one are the same
call, so they are not told apart here; byte counters are the ``nbytes`` /
``length`` arguments of the wrapped calls, i.e. *simulated* bytes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from time import perf_counter
from typing import Any, Callable, NamedTuple

#: layer charged for the main thread outside every wrapped call
ROOT_LAYER = "core.figures"
#: layer charged for a simulated thread outside its root span (waiting for
#: its first grant, or handing the token on after its function returned)
THREAD_BASE_LAYER = "sim.process.switch"
#: root span around every ``fn`` handed to ``Engine.spawn``
SPAWNED_LAYER = "apps"


class Target(NamedTuple):
    """One wrap target: ``module`` attribute path → ``layer``.

    ``counter`` counts the calls, or with ``arg`` — ``(position, keyword)``
    of an argument — sums that argument.  ``hits`` names a second counter
    for the calls whose result is not ``None`` (the useful outcomes of a
    lookup).  A span that ``owns_tail`` keeps the time between the last
    mark and its own exit instead of charging it to whoever ran last.
    """

    module: str
    attr: str
    layer: str
    counter: str | None = None
    arg: tuple[int, str] | None = None
    hits: str | None = None
    owns_tail: bool = False


def _t(module: str, attrs: str, layer: str) -> list[Target]:
    return [Target(module, a, layer) for a in attrs.split()]


#: every wrap target, in one table.  A target that no longer resolves is
#: skipped and reported (``ledger.missing_targets``); its time falls to the
#: parent layer.
TARGETS: list[Target] = [
    *_t("repro.sim.process",
        "SimProcess.checkpoint SimProcess.park_until SimProcess.block",
        "sim.process.switch"),
    # between the last process's last event and ``run`` returning lie the
    # supervisor's wake-up and the end-of-run ``gc.collect()`` (2 to 7 % of a
    # repetition): engine work, not the last process's hand-off
    Target("repro.sim.engine", "Engine.run", "sim.engine",
           counter="sim.engine.runs", owns_tail=True),
    *_t("repro.sim.resources",
        "FlowSystem.transfer FlowSystem.set_capacity FifoResource.use"
        " FifoResource.acquire", "sim.resources"),
    *_t("repro.sim.sync",
        "Mailbox.post Mailbox.recv SimBarrier.wait SimLock.acquire"
        " SimLock.release Future.set Future.wait", "sim.sync"),
    *_t("repro.sim.blocks",
        "partition_pairs sum_by_key as_pair_block RecordBlock.decode_all",
        "sim.blocks"),
    Target("repro.spark.scheduler", "TaskContext.iterator", "spark.rdd"),
    Target("repro.spark.shuffle", "ShuffleWriter.write", "spark.shuffle.write"),
    Target("repro.spark.shuffle", "ShuffleReader.read", "spark.shuffle.read"),
    Target("repro.spark.storage", "BlockManager.put", "spark.storage"),
    Target("repro.spark.storage", "BlockManager.get", "spark.storage",
           counter="spark.storage.gets", hits="spark.storage.hits"),
    *_t("repro.spark.scheduler",
        "DAGScheduler.run_job run_shuffle_map_task run_result_task",
        "spark.scheduler"),
    Target("repro.mapreduce.engine", "run_job", "mapreduce.engine"),
    Target("repro.fs.hdfs", "HDFS.read", "fs.hdfs",
           counter="fs.hdfs.read_bytes", arg=(4, "length")),
    *_t("repro.fs.hdfs", "HDFS.write HDFS.create", "fs.hdfs"),
    *_t("repro.fs.local", "LocalFS.read LocalFS.write", "fs.local"),
    *_t("repro.fs.records", "read_split_records iter_all_records",
        "fs.records"),
    Target("repro.cluster.storage", "StorageDevice.read", "cluster.storage",
           counter="cluster.storage.read_bytes", arg=(2, "nbytes")),
    Target("repro.cluster.storage", "StorageDevice.write", "cluster.storage",
           counter="cluster.storage.write_bytes", arg=(2, "nbytes")),
    Target("repro.cluster.network", "Network.transmit", "cluster.network",
           counter="cluster.network.tx_bytes", arg=(5, "nbytes")),
    Target("repro.cluster.network", "Network.msg_arrival", "cluster.network",
           counter="cluster.network.tx_bytes", arg=(5, "nbytes")),
    *_t("repro.mpi.collectives",
        "barrier bcast reduce allreduce gather scatter allgather alltoall"
        " scan exscan reduce_scatter_block", "mpi"),
    *_t("repro.mpi.p2p", "send recv sendrecv isend irecv", "mpi"),
    *_t("repro.mpi.io", "MPIFile.read_at MPIFile.read_at_all", "mpi"),
    *_t("repro.shmem.collectives",
        "barrier_all broadcast sum_to_all collect", "shmem"),
    Target("repro.openmp.runtime", "omp_run", "openmp"),
    *_t("repro.workloads.graphs",
        "GraphSpec.generate_arrays ring_edge_list_content with_ring_arrays",
        "workloads"),
    Target("repro.workloads.stackexchange", "stackexchange_content",
           "workloads"),
    Target("repro.platform.scenario", "ScenarioSpec.session",
           "platform.scenario", counter="platform.scenario.sessions"),
    Target("repro.platform.scenario", "Session.stage", "platform.scenario"),
]

#: wrapped separately: its wrapper also puts the root span around ``fn``
SPAWN = Target("repro.sim.engine", "Engine.spawn", "sim.engine",
               counter="sim.engine.spawned")


def layer_names(targets: list[Target] | None = None) -> list[str]:
    """Every layer the ledger can report, in table order."""
    names = [ROOT_LAYER, SPAWNED_LAYER, THREAD_BASE_LAYER, SPAWN.layer]
    names += [t.layer for t in (TARGETS if targets is None else targets)]
    return list(dict.fromkeys(names))


def counter_names(targets: list[Target] | None = None) -> list[str]:
    names = [SPAWN.counter]
    for t in (TARGETS if targets is None else targets):
        names += [n for n in (t.counter, t.hits) if n]
    return list(dict.fromkeys(names))


_MISSING = object()


class Ledger:
    """Installed wrappers plus the aggregates they fill."""

    def __init__(self, targets: list[Target] | None = None) -> None:
        self.targets = list(TARGETS if targets is None else targets)
        self.missing: list[str] = []
        #: (layer, parent layer) -> [self_s, calls, layer]
        self.cells: dict[tuple[str, str], list] = {}
        self.counters: dict[str, list] = {}
        self._root = self._cell(ROOT_LAYER, "")
        self._base = self._cell(THREAD_BASE_LAYER, "")
        #: [last mark, cell being charged]
        self._state: list = [0.0, self._root]
        self._tls = threading.local()
        self._main = threading.get_ident()
        #: undo log: (owner, name, value to put back or _MISSING to delete)
        self._undo: list[tuple[Any, str, Any]] = []
        self._aliased: list[tuple[Callable, Callable]] = []
        self.installed = False

    # -- aggregates ---------------------------------------------------------

    def _cell(self, layer: str, parent: str) -> list:
        cell = self.cells.get((layer, parent))
        if cell is None:
            cell = self.cells[(layer, parent)] = [0.0, 0, layer]
        return cell

    def _new_stack(self) -> list:
        main = threading.get_ident() == self._main
        stack = self._tls.stack = [self._root if main else self._base]
        return stack

    def _span(self, fn: Callable, layer: str, counter: list | None = None,
              arg: tuple[int, str] | None = None,
              hits: list | None = None, owns_tail: bool = False) -> Callable:
        """``fn`` wrapped in a span of ``layer``."""
        state = self._state
        tls = self._tls
        new_stack = self._new_stack
        by_parent: dict[str, list] = {}
        make_cell = self._cell
        pos, kw = arg if arg is not None else (0, "")

        def span(*args: Any, **kwargs: Any) -> Any:
            now = perf_counter()
            state[1][0] += now - state[0]
            state[0] = now
            try:
                stack = tls.stack
            except AttributeError:
                stack = new_stack()
            parent = stack[-1][2]
            cell = by_parent.get(parent)
            if cell is None:
                cell = by_parent[parent] = make_cell(layer, parent)
            cell[1] += 1
            stack.append(cell)
            state[1] = cell
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    if arg is None:
                        counter[0] += 1
                    else:
                        counter[0] += (args[pos] if len(args) > pos
                                       else kwargs[kw])
                    if hits is not None:
                        hits[0] += result is not None
                return result
            finally:
                now = perf_counter()
                (cell if owns_tail else state[1])[0] += now - state[0]
                state[0] = now
                stack.pop()
                state[1] = stack[-1]

        functools.update_wrapper(span, fn)
        for extra in ("cache_clear", "cache_info"):
            if hasattr(fn, extra):  # lru_cache'd generators keep their API
                setattr(span, extra, getattr(fn, extra))
        return span

    def _spawn_wrapper(self, spawn: Callable, counter: list) -> Callable:
        """``Engine.spawn`` with a root span around the spawned ``fn``."""
        span_of = self._span
        spawn = span_of(spawn, SPAWN.layer, counter)

        @functools.wraps(spawn)
        def wrapped(engine: Any, fn: Callable, *args: Any, **kwargs: Any):
            return spawn(engine, span_of(fn, SPAWNED_LAYER), *args, **kwargs)

        return wrapped

    # -- install / uninstall --------------------------------------------------

    def install(self) -> "Ledger":
        if self.installed:
            raise RuntimeError("ledger already installed")
        self.installed = True
        for target in [SPAWN, *self.targets]:
            try:
                owner = importlib.import_module(target.module)
                *path, name = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = vars(owner).get(name, _MISSING)
                resolved = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing.append(f"{target.module}:{target.attr}")
                continue
            counter, hits = (
                None if c is None else self.counters.setdefault(c, [0])
                for c in (target.counter, target.hits))
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) \
                else resolved
            if target is SPAWN:
                wrapper: Any = self._spawn_wrapper(fn, counter)
            else:
                wrapper = self._span(fn, target.layer, counter, target.arg,
                                     hits, target.owns_tail)
            if isinstance(raw, (staticmethod, classmethod)):
                wrapper = type(raw)(wrapper)
            self._undo.append((owner, name, raw))
            setattr(owner, name, wrapper)
            if not path:  # a module-level function: other modules alias it
                self._aliased.append((wrapper, resolved))
                self._rebind_aliases(resolved, wrapper)
        self._state[0] = perf_counter()
        return self

    def _rebind_aliases(self, old: Any, new: Any) -> None:
        """Point every ``from module import fn`` alias of ``old`` at ``new``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for name, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, name, new)

    def uninstall(self) -> None:
        """Put back exactly the objects :meth:`install` replaced."""
        if not self.installed:
            return
        self.mark()
        for owner, name, raw in reversed(self._undo):
            if raw is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, raw)
        for wrapper, original in self._aliased:
            # modules imported while the ledger was on took the wrapper
            self._rebind_aliases(wrapper, original)
        self._undo.clear()
        self._aliased.clear()
        self.installed = False

    def __enter__(self) -> "Ledger":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- read-out ---------------------------------------------------------------

    def mark(self) -> None:
        """Charge the time since the last mark now (main thread, idle engine)."""
        now = perf_counter()
        self._state[1][0] += now - self._state[0]
        self._state[0] = now

    def snapshot(self) -> dict:
        """Aggregates so far: per layer, per (layer, parent), counters."""
        self.mark()
        layers = {name: {"self_s": 0.0, "calls": 0}
                  for name in layer_names(self.targets)}
        edges = {}
        for (layer, parent), (self_s, calls, _l) in sorted(self.cells.items()):
            agg = layers[layer]
            agg["self_s"] += self_s
            agg["calls"] += calls
            edges[f"{layer}<-{parent}"] = {"self_s": self_s, "calls": calls}
        counters = {name: 0 for name in counter_names(self.targets)}
        counters.update({k: v[0] for k, v in self.counters.items()})
        return {"layers": layers, "edges": edges, "counters": counters,
                "missing_targets": list(self.missing)}
