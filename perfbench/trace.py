"""Span tracing by wrapping the program's public functions from outside.

Modules such as ``consensus``, ``ledger`` and ``api`` bind names like
``apply_transaction`` at import, so a wrapper is put at every import site:
each ``rolechain`` module attribute that is the original function object is
replaced. Methods and properties are wrapped on their class.

A span records name, start, end (``perf_counter_ns``), parent span, request
id and an optional size (for example |ura| of a checked state). Spans stay
in memory in flat integer arrays and are written out only at shutdown. The
root span of a thread starts a new request id; nested calls inherit it.
"""

from __future__ import annotations

import array
import importlib
import itertools
import json
import sys
import threading
from pathlib import Path
from time import perf_counter_ns

COLUMNS = ("sid", "name", "start", "end", "parent", "req", "size")

# (module, attribute, span name, size function or None)
FUNCTIONS = (
    ("codec", "canonical_dumps", "codec.encode", None),
    ("codec", "is_hex", "codec.is_hex", None),
    ("keys", "verify", "keys.verify", None),
    ("wallet", "verify_envelope", "wallet.verify_envelope", None),
    ("state", "apply_transaction", "state.apply", None),
    ("state", "state_root", "state.root", lambda a, k: len(a[0].users)),
    ("sco", "check_permission", "sco.check", lambda a, k: len(a[0].ura)),
    ("scu", "register_user", "scu.handler", None),
    ("scu", "update_user_role", "scu.handler", None),
    ("sco", "grant_permission", "sco.handler", None),
    ("sco", "revoke_permission", "sco.handler", None),
    ("ledger", "build_block", "ledger.build", None),
    ("ledger", "execute_block", "ledger.execute", None),
    ("ledger", "append_block", "ledger.append", None),
    ("ledger", "verify_chain", "ledger.verify", lambda a, k: len(a[0].blocks)),
    ("consensus", "step", "consensus.step", None),
    ("consensus", "run_until_quiescent", "consensus.pump", None),
    ("store", "load_chain", "store.load", None),
    ("api", "build_node_service", "api.build_service", None),
)

# (module, class, attribute, span name, kind)
METHODS = (
    ("payloads", "SignedTransaction", "tx_id", "payloads.tx_id", "property"),
    ("state", "WorldState", "clone", "state.clone", "method"),
    ("store", "Store", "append", "store.append", "method"),
    ("api", "NodeHandle", "submit", "api.submit", "method"),
    ("api", "NodeHandle", "snapshot", "api.snapshot", "method"),
    ("api", "_Handler", "do_GET", "api.request", "method"),
    ("api", "_Handler", "do_POST", "api.request", "method"),
    ("api", "_Handler", "_get_check", "api.check", "method"),
)


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.cols = {c: array.array("q") for c in COLUMNS}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._sids = itertools.count(1)
        self._reqs = itertools.count(1)
        self._local = threading.local()
        self._undo: list = []
        self.enabled = True

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, size_fn=None):
        name_id = self._name_id(name)
        local = self._local
        cols = self.cols
        sids, reqs = self._sids, self._reqs
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            if stack:
                parent, req = stack[-1]
            else:
                parent, req = 0, next(reqs)
            sid = next(sids)
            size = size_fn(args, kwargs) if size_fn is not None else -1
            stack.append((sid, req))
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                for col, value in zip(COLUMNS, (sid, name_id, start, end, parent, req, size)):
                    cols[col].append(value)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> "Tracer":
        """Wrap every target at every ``rolechain`` import site."""
        for mod_name in {t[0] for t in FUNCTIONS + METHODS}:
            importlib.import_module(f"rolechain.{mod_name}")
        loaded = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "rolechain"]
        for mod_name, attr, name, size_fn in FUNCTIONS:
            original = getattr(sys.modules[f"rolechain.{mod_name}"], attr)
            wrapped = self.wrap(name, original, size_fn)
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._undo.append((module, key, original))
        for mod_name, cls_name, attr, name, kind in METHODS:
            cls = getattr(sys.modules[f"rolechain.{mod_name}"], cls_name)
            original = cls.__dict__[attr]
            if kind == "property":
                wrapped = property(self.wrap(name, original.fget))
            else:
                wrapped = self.wrap(name, original)
            setattr(cls, attr, wrapped)
            self._undo.append((cls, attr, original))
        return self

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def dump(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "names.json").write_text(json.dumps(self.names))
        for col, values in self.cols.items():
            with open(directory / f"{col}.bin", "wb") as fh:
                values.tofile(fh)


def load_spans(directory: Path) -> tuple[list[str], dict]:
    names = json.loads((directory / "names.json").read_text())
    cols = {}
    for col in COLUMNS:
        path = directory / f"{col}.bin"
        values = array.array("q")
        with open(path, "rb") as fh:
            values.frombytes(fh.read())
        cols[col] = values
    return names, cols


class Spans:
    """Aggregates over recorded spans: counts, inclusive and self time."""

    def __init__(self, names: list[str], cols: dict, window: tuple[int, int] | None = None):
        n = len(cols["sid"])
        child_ns: dict[int, int] = {}
        for i in range(n):
            parent = cols["parent"][i]
            if parent:
                child_ns[parent] = child_ns.get(parent, 0) + cols["end"][i] - cols["start"][i]
        self.by_name: dict[str, list] = {}
        for i in range(n):
            start, end = cols["start"][i], cols["end"][i]
            if window is not None and not (window[0] <= start and end <= window[1]):
                continue
            dur = end - start
            entry = (dur, dur - child_ns.get(cols["sid"][i], 0), cols["size"][i])
            self.by_name.setdefault(names[cols["name"][i]], []).append(entry)

    @classmethod
    def of(cls, tracer: Tracer, window=None) -> "Spans":
        return cls(tracer.names, tracer.cols, window)

    def count(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def total_s(self, name: str) -> float:
        return sum(d for d, _, _ in self.by_name.get(name, ())) / 1e9

    def mean_s(self, name: str) -> float:
        n = self.count(name)
        return self.total_s(name) / n if n else 0.0

    def mean_self_s(self, name: str) -> float:
        spans = self.by_name.get(name, ())
        return sum(s for _, s, _ in spans) / len(spans) / 1e9 if spans else 0.0

    def durations_s(self, name: str) -> list:
        return [d / 1e9 for d, _, _ in self.by_name.get(name, ())]

    def sizes(self, name: str) -> list:
        return [z for _, _, z in self.by_name.get(name, ())]
