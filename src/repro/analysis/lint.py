"""reprolint — an AST determinism linter tuned to this codebase.

The simulator's contract is that virtual-time outputs are a pure function
of inputs.  The ways that contract historically breaks are few and
recognisable in source form: a wall-clock read sneaking into a latency
model, an unseeded RNG, iteration order of a ``set`` leaking into a trace,
an ``id()``-keyed cache on a hashing path, an exception swallowed where a
typed ``repro.errors`` error should surface, an environment escape hatch
consulted from two places that then disagree.  Each rule below encodes one
of those failure shapes.

Rules
-----
==========  ================  ====================================================
code        name              flags
==========  ================  ====================================================
``R001``    wall-clock        ``time.time``/``perf_counter``/``datetime.now`` ...
                              in deterministic packages
``R002``    unseeded-random   ``random.random()`` module-level RNG /
                              ``numpy.random.*`` legacy global RNG
``R003``    unordered-iter    iterating a ``set``/``frozenset`` where order can
                              escape (``for``, comprehensions, ``list()`` ...)
``R004``    id-key            ``id()`` results flowing into maps/keys — memory-
                              layout dependent; ``src/`` sanctions none
``R005``    swallowed-error   bare ``except:``, and ``except Exception: pass``
                              style handlers that swallow ``repro.errors``
``R006``    env-hatch         env escape hatches read outside their one home
                              module, or unregistered ``REPRO_*`` vars
``R007``    real-sleep        ``time.sleep`` — real delay inside virtual time
``R008``    unstable-hash     builtin ``hash()`` outside ``__hash__`` — value
                              varies with ``PYTHONHASHSEED``
``R009``    fs-order          unsorted directory enumeration
                              (``os.listdir``, ``Path.iterdir``, ``glob`` ...)
``R010``    raw-thread        real ``threading``/``multiprocessing``/``asyncio``
                              concurrency outside ``repro/sim``
``R011``    raw-park          direct ``proc.block()``/``park_until()``, or a
                              ``yield`` of a raw step request
                              (``TURN``/``BLOCK``/``QUEUED``), outside
                              ``repro/sim`` — bypasses wait-metadata bookkeeping
==========  ================  ====================================================

Suppression
-----------
A finding on a line carrying ``# reprolint: disable=NAME`` (rule code or
name; comma-separated for several; ``all`` for everything) is suppressed.
Suppressions are intentionally line-scoped — a pragma documents one
reviewed decision, not a region.

Scope
-----
Determinism rules (R001–R004, R007–R011) apply inside the *deterministic
packages* — the code that runs under the virtual-time engine:
``sim``, ``cluster``, ``fs``, ``mpi``, ``openmp``, ``shmem``, ``spark``,
``mapreduce``, ``apps``, ``workloads``.  Hygiene rules (R005, R006) apply
everywhere.  Host-side layers (``core``, ``platform``, ``tools``,
``analysis``) legitimately read wall clocks and walk directories.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass

from repro import errors as _errors
from repro.sim.trace import anchored_path

__all__ = [
    "RULES",
    "DETERMINISTIC_PACKAGES",
    "ENV_REGISTRY",
    "Finding",
    "lint_source",
    "lint_paths",
    "render_text",
    "render_json",
]


#: rule code -> (name, one-line summary)
RULES: dict[str, tuple[str, str]] = {
    "R001": ("wall-clock",
             "wall-clock read in a deterministic package"),
    "R002": ("unseeded-random",
             "global/unseeded RNG in a deterministic package"),
    "R003": ("unordered-iter",
             "set iteration order can escape into results or traces"),
    "R004": ("id-key",
             "id() is memory-layout dependent"),
    "R005": ("swallowed-error",
             "exception swallowed instead of surfacing a typed error"),
    "R006": ("env-hatch",
             "environment escape hatch read outside its home module"),
    "R007": ("real-sleep",
             "real sleep inside virtual time"),
    "R008": ("unstable-hash",
             "builtin hash() varies with PYTHONHASHSEED"),
    "R009": ("fs-order",
             "directory enumeration order is platform-dependent"),
    "R010": ("raw-thread",
             "real concurrency primitive outside the simulator core"),
    "R011": ("raw-park",
             "direct process park/block outside the simulator core"),
}

_NAME_TO_CODE = {name: code for code, (name, _) in RULES.items()}

#: top-level ``repro`` subpackages whose code runs under the virtual-time
#: engine and must be bit-deterministic.
DETERMINISTIC_PACKAGES = frozenset({
    "sim", "cluster", "fs", "mpi", "openmp", "shmem",
    "spark", "mapreduce", "apps", "workloads", "sched",
})

#: every supported environment switch and the ONE module allowed to read
#: it.  Reading a switch from a second place is how two layers start
#: disagreeing about which mode they are in.
ENV_REGISTRY: dict[str, str] = {
    "REPRO_CACHE_DIR": "repro/cache/store.py",
    "REPRO_NO_CACHE": "repro/cache/store.py",
}

# Dotted call names that read the wall clock (R001).
_WALL_CLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today", "date.today",
}

# Module-level RNG entry points (R002).  Calls on a constructed
# ``random.Random(seed)`` / ``numpy.random.default_rng(seed)`` instance are
# fine — those carry their seed with them.
_GLOBAL_RNG = {
    "random.random", "random.randint", "random.randrange", "random.choice",
    "random.choices", "random.shuffle", "random.sample", "random.uniform",
    "random.gauss", "random.normalvariate", "random.expovariate",
    "random.getrandbits", "random.seed",
    "np.random.rand", "np.random.randn", "np.random.randint",
    "np.random.random", "np.random.choice", "np.random.shuffle",
    "np.random.permutation", "np.random.seed", "np.random.uniform",
    "numpy.random.rand", "numpy.random.randn", "numpy.random.randint",
    "numpy.random.random", "numpy.random.choice", "numpy.random.shuffle",
    "numpy.random.permutation", "numpy.random.seed", "numpy.random.uniform",
}

# Order-erasing sinks: feeding a set through these is fine (R003).
_ORDER_SAFE_CALLS = {
    "sorted", "len", "sum", "min", "max", "any", "all",
    "set", "frozenset",
}
# Order-exposing sinks: these preserve iteration order into a sequence.
_ORDER_EXPOSING_CALLS = {"list", "tuple", "iter", "enumerate"}

# Set-producing method names (on an expression we already believe is a set).
_SET_METHODS = {
    "union", "intersection", "difference", "symmetric_difference", "copy",
}

# Directory-enumeration calls (R009).
_FS_ENUM_CALLS = {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
_FS_ENUM_METHODS = {"iterdir", "rglob"}

# Real-concurrency modules (R010).
_RAW_CONCURRENCY = {
    "threading", "_thread", "multiprocessing", "asyncio",
    "concurrent", "concurrent.futures",
}

# The requests a ``SimProcess.run_steps`` generator yields (R011).
_STEP_REQUESTS = {"TURN", "BLOCK", "QUEUED"}

# Mapping method names that take a key argument (R004).
_KEYED_METHODS = {"get", "setdefault", "pop", "move_to_end"}

# Names of the typed error hierarchy (R005): swallowing one of these with a
# pass-only handler hides a diagnosis the codebase deliberately surfaces.
_REPRO_ERROR_NAMES = frozenset(
    name for name in dir(_errors)
    if isinstance(getattr(_errors, name), type)
    and issubclass(getattr(_errors, name), Exception)
)

_PRAGMA_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\- ]+)")


@dataclass(frozen=True)
class Finding:
    """One lint finding, stably ordered by (path, line, col, rule)."""

    rule: str          #: rule code, e.g. ``"R001"``
    name: str          #: rule name, e.g. ``"wall-clock"``
    path: str          #: path as given to the linter
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule, "name": self.name, "path": self.path,
            "line": self.line, "col": self.col, "message": self.message,
        }


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _subpackage(relpath: str) -> str:
    """``repro/sim/engine.py`` -> ``sim``; top-level modules -> ``""``."""
    parts = relpath.split("/")
    if len(parts) >= 3 and parts[0] == "repro":
        return parts[1]
    return ""


class _Linter:
    def __init__(self, source: str, relpath: str, display_path: str) -> None:
        self.source = source
        self.relpath = relpath
        self.display_path = display_path
        self.subpkg = _subpackage(relpath)
        self.deterministic = self.subpkg in DETERMINISTIC_PACKAGES
        self.findings: list[Finding] = []
        self._suppressions = self._collect_pragmas(source)
        self._parents: dict[ast.AST, ast.AST] = {}
        self._func_stack: list[str] = []
        # names assigned a set-typed value, per enclosing function (or
        # module); a shallow, scope-local inference that matches how this
        # codebase actually writes sets.
        self._set_names: list[set[str]] = [set()]

    # -- pragmas ---------------------------------------------------------------

    @staticmethod
    def _collect_pragmas(source: str) -> dict[int, set[str]]:
        out: dict[int, set[str]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            m = _PRAGMA_RE.search(line)
            if m:
                tokens = {t.strip() for t in m.group(1).split(",") if t.strip()}
                out[lineno] = {
                    _NAME_TO_CODE.get(t, t.upper() if t != "all" else "all")
                    for t in tokens
                }
        return out

    def _suppressed(self, node: ast.AST, code: str) -> bool:
        lines = {getattr(node, "lineno", None),
                 getattr(node, "end_lineno", None)}
        # A pragma on the first or last line of the *enclosing statement*
        # also counts, so multi-line expressions can carry one trailing
        # pragma (flake8's noqa convention).
        stmt = node
        while stmt is not None and not isinstance(stmt, ast.stmt):
            stmt = self._parents.get(stmt)
        if stmt is not None:
            lines |= {stmt.lineno, stmt.end_lineno}
        for lineno in lines:
            if lineno is None:
                continue
            active = self._suppressions.get(lineno)
            if active and (code in active or "all" in active):
                return True
        return False

    def _flag(self, code: str, node: ast.AST, message: str) -> None:
        if self._suppressed(node, code):
            return
        name = RULES[code][0]
        self.findings.append(Finding(
            rule=code, name=name, path=self.display_path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0) + 1,
            message=message))

    # -- driving ---------------------------------------------------------------

    def run(self) -> list[Finding]:
        try:
            tree = ast.parse(self.source)
        except SyntaxError as exc:
            raise _errors.AnalysisError(
                f"{self.display_path}: cannot parse: {exc}") from exc
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        self._visit(tree)
        self.findings.sort(key=Finding.sort_key)
        return self.findings

    def _visit(self, node: ast.AST) -> None:
        scoped = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda))
        if scoped:
            self._func_stack.append(getattr(node, "name", "<lambda>"))
            self._set_names.append(set())
        self._check(node)
        for child in ast.iter_child_nodes(node):
            self._visit(child)
        if scoped:
            self._func_stack.pop()
            self._set_names.pop()

    def _check(self, node: ast.AST) -> None:
        if isinstance(node, ast.Assign):
            self._infer_set_assign(node)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            self._check_imports(node)
        if isinstance(node, ast.Call):
            self._check_call(node)
        if isinstance(node, ast.ExceptHandler):
            self._check_handler(node)
        if isinstance(node, ast.Subscript):
            self._check_env_subscript(node)
        if isinstance(node, ast.For):
            self._check_iteration(node.iter, node)
        if isinstance(node, ast.comprehension):
            self._check_iteration(node.iter, node.iter)
        if isinstance(node, ast.Yield):
            self._check_raw_step(node)

    # -- R003 helpers ----------------------------------------------------------

    def _infer_set_assign(self, node: ast.Assign) -> None:
        if not self._is_set_expr(node.value):
            return
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._set_names[-1].add(target.id)

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id in ("set", "frozenset"):
                return True
            if (isinstance(fn, ast.Attribute) and fn.attr in _SET_METHODS
                    and self._is_set_expr(fn.value)):
                return True
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        if isinstance(node, ast.Name):
            return node.id in self._set_names[-1]
        return False

    def _check_iteration(self, it: ast.AST, flag_on: ast.AST) -> None:
        """R003: a ``for``/comprehension whose iterable is a set."""
        if not self.deterministic:
            return
        if self._is_set_expr(it):
            self._flag("R003", flag_on,
                       "iterating a set here exposes hash order; iterate "
                       "sorted(...) or keep a list/dict (insertion-ordered)")

    # -- calls -----------------------------------------------------------------

    def _check_call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)

        if self.deterministic and dotted is not None:
            if dotted in _WALL_CLOCK:
                self._flag("R001", node,
                           f"{dotted}() reads the wall clock; deterministic "
                           "code must take time from the virtual-time engine")
            if dotted in _GLOBAL_RNG:
                self._flag("R002", node,
                           f"{dotted}() uses the process-global RNG; "
                           "construct random.Random(seed) / "
                           "numpy.random.default_rng(seed) and pass it down")
            if dotted == "time.sleep":
                self._flag("R007", node,
                           "time.sleep() blocks the host; simulated delay "
                           "must go through proc.advance()/virtual time")
            if dotted in _FS_ENUM_CALLS and not self._order_erased(node):
                self._flag("R009", node,
                           f"{dotted}() enumeration order is "
                           "platform-dependent; wrap it in sorted(...)")

        if self.deterministic and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if (attr in _FS_ENUM_METHODS or attr == "glob") \
                    and dotted not in _FS_ENUM_CALLS \
                    and not self._order_erased(node):
                self._flag("R009", node,
                           f".{attr}() enumeration order is "
                           "platform-dependent; wrap it in sorted(...)")
            # R011: parking a process directly skips the wait-metadata
            # bookkeeping (waiting_on/wakers) the deadlock diagnoser and
            # sanitizer rely on.  ``.block(reason=...)`` identifies the
            # simulator primitive (other ``.block()`` methods in the tree
            # take no such keyword); ``park_until`` exists only on
            # SimProcess.
            if not self.relpath.startswith("repro/sim/") \
                    and (attr == "park_until"
                         or (attr == "block"
                             and any(kw.arg == "reason"
                                     for kw in node.keywords))):
                self._flag("R011", node,
                           f".{attr}() parks a simulated process directly; "
                           "outside repro/sim compose the primitives' step "
                           "forms (SimProcess.block_steps, "
                           "SimLock.acquire_steps, Mailbox.recv_steps ...) "
                           "with `yield from`, or pass wait metadata and "
                           "suppress with a pragma after review")

        if self.deterministic and isinstance(node.func, ast.Name):
            fname = node.func.id
            if fname == "hash" and len(node.args) == 1 \
                    and "__hash__" not in self._func_stack:
                self._flag("R008", node,
                           "builtin hash() varies with PYTHONHASHSEED; use "
                           "repro.spark.partitioner.stable_hash for anything "
                           "that reaches placement, traces or fingerprints")
            if fname == "id":
                self._check_id_use(node)
            for arg in node.args:
                # ``map(id, xs)`` launders id() through a function
                # reference — same memory-layout dependence, no Call node.
                if isinstance(arg, ast.Name) and arg.id == "id":
                    self._flag("R004", arg,
                               "id passed as a function reference produces "
                               "memory-layout-dependent values; key by a "
                               "stable identifier")
            if fname in _ORDER_EXPOSING_CALLS and node.args \
                    and self._is_set_expr(node.args[0]):
                self._flag("R003", node,
                           f"{fname}(<set>) materialises hash order; use "
                           "sorted(...) instead")

        # R006: os.environ.get / os.getenv
        if dotted in ("os.environ.get", "os.getenv") and node.args:
            self._check_env_read(node, node.args[0])

    def _check_raw_step(self, node: ast.Yield) -> None:
        """R011, step form: a ``SimProcess.run_steps`` request yielded
        directly.  The sim primitives' step forms set the wait metadata
        around their requests; protocol code composes them with
        ``yield from`` instead of yielding ``TURN``/``BLOCK``/``QUEUED``."""
        if not self.deterministic or self.relpath.startswith("repro/sim/"):
            return
        value = node.value
        name = (value.id if isinstance(value, ast.Name)
                else value.attr if isinstance(value, ast.Attribute) else None)
        if name in _STEP_REQUESTS:
            self._flag("R011", node,
                       f"yield {name} parks a simulated process directly; "
                       "outside repro/sim compose the primitives' step forms "
                       "(Mailbox.recv_steps, Future.wait_steps, "
                       "SimProcess.checkpoint_steps ...) with `yield from`")

    def _order_erased(self, node: ast.Call) -> bool:
        """True when the call's result feeds directly into sorted() et al."""
        parent = self._parents.get(node)
        return (isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id in _ORDER_SAFE_CALLS)

    # -- R004 ------------------------------------------------------------------

    def _check_id_use(self, node: ast.Call) -> None:
        """Flag every ``id()`` call in deterministic code.

        Any escaping ``id()`` value is memory-layout dependent, and the
        common laundering path — ``key = (id(x), n)`` assigned once, used
        as a map key later — is invisible to local pattern matching.  So
        the rule is intentionally blunt, and ``src/`` has no sanctioned
        ``id()`` key: state derived from an object belongs on the object
        (as a ``PairBlock`` keeps its buckets), not in a map beside it.
        """
        child: ast.AST = node
        parent = self._parents.get(child)
        detail = ("id() values depend on memory layout and may be recycled "
                  "after gc; key by a stable identifier, or keep what is "
                  "derived from an object on the object itself")
        while parent is not None and not isinstance(parent, ast.stmt):
            if isinstance(parent, ast.Subscript):
                self._flag("R004", node, f"id()-keyed map: {detail}")
                return
            if isinstance(parent, ast.Call) \
                    and isinstance(parent.func, ast.Attribute) \
                    and parent.func.attr in _KEYED_METHODS \
                    and child is not parent.func:
                self._flag("R004", node,
                           f"id() flows into .{parent.func.attr}(): {detail}")
                return
            child = parent
            parent = self._parents.get(child)
        self._flag("R004", node, f"id() escapes into data: {detail}")

    # -- R005 ------------------------------------------------------------------

    @staticmethod
    def _handler_names(type_node: ast.AST | None) -> list[str]:
        if type_node is None:
            return []
        nodes = type_node.elts if isinstance(type_node, ast.Tuple) \
            else [type_node]
        names = []
        for n in nodes:
            d = _dotted(n)
            if d is not None:
                names.append(d.split(".")[-1])
        return names

    @staticmethod
    def _swallows(handler: ast.ExceptHandler) -> bool:
        """True when the handler body cannot re-raise or record anything."""
        return all(isinstance(stmt, (ast.Pass, ast.Continue))
                   for stmt in handler.body)

    def _check_handler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            if not any(isinstance(s, ast.Raise) and s.exc is None
                       for s in ast.walk(node)):
                self._flag("R005", node,
                           "bare except: catches SystemExit/KeyboardInterrupt "
                           "too; name the exception type (and re-raise or "
                           "convert to a repro.errors type)")
            return
        names = self._handler_names(node.type)
        if not self._swallows(node):
            return
        if any(n in ("Exception", "BaseException") for n in names):
            self._flag("R005", node,
                       "except Exception: pass swallows every failure "
                       "silently; handle the specific error or surface a "
                       "typed repro.errors exception")
        elif any(n in _REPRO_ERROR_NAMES for n in names):
            self._flag("R005", node,
                       "a repro.errors exception is swallowed here; these "
                       "carry the diagnosis the harness reports — re-raise, "
                       "convert, or record it")

    # -- R006 ------------------------------------------------------------------

    def _check_env_subscript(self, node: ast.Subscript) -> None:
        if _dotted(node.value) == "os.environ":
            key = node.slice
            self._check_env_read(node, key)

    def _check_env_read(self, node: ast.AST, key_node: ast.AST) -> None:
        if not (isinstance(key_node, ast.Constant)
                and isinstance(key_node.value, str)):
            return
        var = key_node.value
        home = ENV_REGISTRY.get(var)
        if home is not None:
            if self.relpath != home:
                self._flag("R006", node,
                           f"escape hatch {var} is owned by {home}; reading "
                           "it here risks the two sites disagreeing — import "
                           "the owner's resolved flag instead")
        elif var.startswith("REPRO_"):
            self._flag("R006", node,
                       f"unregistered escape hatch {var}; add it to "
                       "repro.analysis.lint.ENV_REGISTRY with exactly one "
                       "home module")
        elif self.deterministic:
            self._flag("R006", node,
                       f"environment read ({var}) inside a deterministic "
                       "package makes outputs depend on the host "
                       "environment; resolve it at the platform layer")

    # -- R010 ------------------------------------------------------------------

    def _check_imports(self, node: ast.Import | ast.ImportFrom) -> None:
        if not self.deterministic or self.relpath.startswith("repro/sim/"):
            return
        if isinstance(node, ast.Import):
            mods = [alias.name for alias in node.names]
        else:
            mods = [node.module] if node.module else []
        for mod in mods:
            root = mod.split(".")[0]
            if mod in _RAW_CONCURRENCY or root in ("threading", "_thread",
                                                   "multiprocessing",
                                                   "asyncio"):
                self._flag("R010", node,
                           f"import of {mod} introduces real concurrency; "
                           "deterministic code runs on simulated processes "
                           "(repro.sim) only")


def lint_source(source: str, relpath: str, *,
                display_path: str | None = None) -> list[Finding]:
    """Lint one module's source.

    ``relpath`` anchors rule scoping (which subpackage, which env-registry
    home) and is independent of ``display_path`` (what findings report),
    so tests can lint fixture text "as if" it lived anywhere in the tree.
    """
    return _Linter(source, anchored_path(relpath),
                   display_path or relpath).run()


def lint_paths(paths) -> list[Finding]:
    """Lint ``.py`` files under the given files/directories.

    Directories are walked recursively in sorted order — the linter holds
    itself to its own R009.
    """
    from pathlib import Path

    files: list[Path] = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise _errors.AnalysisError(f"not a python file or directory: {p}")
    findings: list[Finding] = []
    for f in files:
        findings.extend(lint_source(f.read_text(), str(f)))
    findings.sort(key=Finding.sort_key)
    return findings


def render_text(findings: list[Finding]) -> str:
    """Human-readable report, one finding per line plus a summary."""
    lines = [
        f"{f.path}:{f.line}:{f.col}: {f.rule} [{f.name}] {f.message}"
        for f in findings
    ]
    n = len(findings)
    lines.append("reprolint: clean" if n == 0
                 else f"reprolint: {n} finding{'s' if n != 1 else ''}")
    return "\n".join(lines)


def render_json(findings: list[Finding]) -> str:
    """Machine-readable report (stable key order, sorted findings)."""
    return json.dumps({
        "findings": [f.to_dict() for f in findings],
        "count": len(findings),
    }, indent=2, sort_keys=True)
