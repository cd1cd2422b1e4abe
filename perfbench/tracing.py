"""In-memory span tracer and the probes that wrap hybridrank's layers.

Probes are installed from the benchmark, not from inside the program: each
one replaces a public function (or method) of a hybridrank module with a
wrapper that records a span.  Modules import their dependencies with
``from .x import f``, so a probe replaces the name in every loaded
``hybridrank`` module that holds the original object, and restores all of
them on uninstall.  A target that does not exist is reported as absent.

A span is (name, start, end, parent, query id, phase, units, key).  Spans stay in
memory and are written out by the caller when the run ends.  A layer's self
time is its span minus its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

PACKAGE = "hybridrank"

# span record fields, by position
NAME, START, END, PARENT, QID, PHASE, UNITS, KEY = range(8)


class Tracer:
    """Collects spans; the parent of a span is the span open when it began."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.phase = ""

    def begin(self, name: str, query_id: str | None = None, units: float = 1.0,
              key: object = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if query_id is None and parent >= 0:
            query_id = self.spans[parent][QID]
        i = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, query_id,
                           self.phase, units, key])
        self._stack.append(i)
        return i

    def end(self, i: int) -> None:
        self.spans[i][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, query_id: str | None = None):
        i = self.begin(name, query_id)
        try:
            yield
        finally:
            self.end(i)

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent, qid, phase, units."""
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(s[:KEY]) + "\n")


def _query_id(arg_name: str):
    def get(bound: inspect.BoundArguments):
        q = bound.arguments.get(arg_name)
        return getattr(q, "id", None)
    return get


def _attr_units(arg_name: str, attr: str):
    def get(bound: inspect.BoundArguments):
        return float(getattr(bound.arguments[arg_name], attr))
    return get


def _run_queries(bound: inspect.BoundArguments):
    return float(len(bound.arguments["run"].rankings))


def _single_run_query(bound: inspect.BoundArguments):
    rankings = bound.arguments["run"].rankings
    return next(iter(rankings)) if len(rankings) == 1 else None


@dataclass(frozen=True)
class Probe:
    """One wrapped call site: ``target`` is "module:function" or "module:Class.method".

    ``units`` turns a call's arguments into the amount of work it did (steps,
    queries); ``key`` identifies the object a call worked on, so repeats of the
    same work can be counted.
    """

    span: str
    target: str
    query_id: Callable | None = None
    units: Callable | None = None
    key: Callable | None = None
    context_manager: bool = False


PROBES = (
    Probe("bm25.index", "bm25:Bm25Index.__init__"),
    Probe("bm25.scores", "bm25:Bm25Index.scores", query_id=_query_id("query")),
    Probe("dense.train", "dense:train_de"),
    Probe("dense.encode_corpus", "dense:encode_corpus",
          key=lambda b: id(b.arguments["params"])),
    Probe("dense.retrieve", "dense:de_retrieve", query_id=_query_id("query")),
    Probe("hybrid.tune_lambda", "hybrid:tune_lambda"),
    Probe("hybrid.retrieve", "hybrid:hybrid_retrieve", query_id=_query_id("query")),
    Probe("results.top_k", "results:top_k_order"),
    Probe("reranker.build_lists", "reranker:build_candidate_lists"),
    Probe("reranker.train", "reranker:train_reranker",
          units=_attr_units("config", "steps")),
    Probe("reranker.rerank", "reranker:rerank", units=_run_queries,
          query_id=_single_run_query),
    Probe("corpus.tokenize", "corpus:tokenize"),
    Probe("evaluation.metric", "evaluation:compute_metric"),
    Probe("evaluation.write_run", "evaluation:write_run"),
    Probe("npzio.savez", "npzio:deterministic_savez"),
    Probe("pipeline.run", "pipeline:run_experiment"),
    # the pipeline names its stages in one place, the `_stage` context manager
    Probe("stage", "pipeline:_stage", context_manager=True),
)


def _resolve(target: str):
    """(owner, attribute name, original) for a probe target, or None if absent."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if original is None or not callable(original):
        return None
    return owner, attr, original


def _wrap(tracer: Tracer, probe: Probe, original):
    sig = inspect.signature(original)
    needs_args = probe.query_id or probe.units or probe.key

    if probe.context_manager:
        @contextmanager
        def wrapper(name, *args, **kwargs):
            with tracer.span(f"{probe.span}.{name}"):
                with original(name, *args, **kwargs):
                    yield
        return wrapper

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        qid, units, key = None, 1.0, None
        if needs_args:
            # a changed signature costs the span its details, never the call
            try:
                bound = sig.bind(*args, **kwargs)
                if probe.query_id:
                    qid = probe.query_id(bound)
                if probe.units:
                    units = probe.units(bound)
                if probe.key:
                    key = probe.key(bound)
            except (TypeError, KeyError, AttributeError):
                pass
        i = tracer.begin(probe.span, qid, units, key)
        try:
            return original(*args, **kwargs)
        finally:
            tracer.end(i)
    return wrapper


class Probes:
    """Installs every probe on ``tracer``; ``absent`` names targets not found."""

    def __init__(self, tracer: Tracer, probes=PROBES):
        self.absent: list[str] = []
        plan = []
        for probe in probes:
            found = _resolve(probe.target)
            if found is None:
                self.absent.append(probe.span)
            else:
                owner, attr, original = found
                plan.append((owner, attr, original, _wrap(tracer, probe, original)))
        # every (owner, name) that holds an original: the class for a method,
        # each loaded hybridrank module that imported the function
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        self._sites: list[tuple[object, str, object, object]] = []
        for owner, attr, original, wrapper in plan:
            if isinstance(owner, type):
                self._sites.append((owner, attr, original, wrapper))
                continue
            for module in modules:
                for name, value in vars(module).items():
                    if value is original:
                        self._sites.append((module, name, original, wrapper))

    def install(self) -> None:
        for owner, name, _, wrapper in self._sites:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._sites:
            setattr(owner, name, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()
