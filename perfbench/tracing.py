"""Outside-in layer tracer for the search benchmark.

The tracer wraps the public functions named in the ``layers`` map of
``workloads.json`` from outside the program: each wrapped call opens a span
named after its layer, and a layer's self time is its span time minus the
spans of other layers nested inside it.  A call into a layer that already
has an open span (``generate`` -> ``generate_chunk``, a matrix evaluator
calling its per-scenario evaluators, ``CompositeChecker`` -> its members)
joins that span, so ``calls`` counts the outermost crossings of a boundary.

Counts are taken at the same boundaries, from the wrapped call's arguments
and return value, so every useful-work ratio is measured where the work
happens.  The time spent taking them is charged to a ``bench.tracer`` layer,
not to the layer being measured.

Process-pool workers are forked after the wrappers are installed and so
inherit them.  A worker resets its copy of the recorder on its first traced
call, and whenever its root span (one evaluation unit) closes it appends
what it recorded to ``<spill_dir>/worker-<pid>.jsonl``, which
:meth:`Recorder.end_search` merges into the coordinator's totals.  Calls
made on any thread other than the one that owns the recorder pass through
unrecorded.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import statistics
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

#: Attribute set on reduced-fidelity evaluator copies (it survives pickling
#: into pool workers, unlike an ``id()``-keyed table).
FIDELITY_TAG = "_perfbench_fidelity"
TRACER_LAYER = "bench.tracer"


def _new_layer() -> dict:
    return {"calls": 0, "self_s": 0.0, "counters": {}, "samples": [], "keys": set()}


class Recorder:
    """Spans and counters of the traced searches, kept in memory."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        self._pid = os.getpid()
        self._thread = threading.get_ident()
        self._worker = False
        #: Start of every pool ``run_units`` call (units are submitted then).
        self.dispatch_t0: List[float] = []
        #: Source returned by the latest repair, until the checker sees it.
        self.last_repair = None
        self._reset()

    def _reset(self) -> None:
        self.layers: Dict[str, dict] = {}
        #: Start of every root span (one evaluation unit) in a worker process.
        self.unit_starts: List[float] = []
        self._stack: List[list] = []  # open frames: [layer, start, child_s]
        self._open: Dict[str, bool] = {}

    def layer(self, name: str) -> dict:
        stats = self.layers.get(name)
        if stats is None:
            stats = self.layers[name] = _new_layer()
        return stats

    def count(self, layer: str, counter: str, amount: float = 1) -> None:
        counters = self.layer(layer)["counters"]
        counters[counter] = counters.get(counter, 0) + amount

    # -- spans --------------------------------------------------------------------

    def _claim(self, layer: str) -> bool:
        if os.getpid() != self._pid:
            # First traced call in a forked worker: drop the copy of the
            # coordinator's state (its open spans belong to the coordinator).
            self._pid = os.getpid()
            self._thread = threading.get_ident()
            self._worker = True
            self.dispatch_t0 = []
            self.last_repair = None
            self._reset()
        return threading.get_ident() == self._thread and not self._open.get(layer)

    def _enter(self, layer: str) -> list:
        frame = [layer, time.perf_counter(), 0.0]
        self._stack.append(frame)
        self._open[layer] = True
        return frame

    def _exit(self, frame: list, hook_s: float) -> None:
        span = time.perf_counter() - frame[1] - hook_s
        self._stack.pop()
        self._open[frame[0]] = False
        stats = self.layer(frame[0])
        stats["calls"] += 1
        stats["self_s"] += span - frame[2]
        if hook_s:
            self.layer(TRACER_LAYER)["self_s"] += hook_s
        if self._stack:
            self._stack[-1][2] += span + hook_s
        elif self._worker:
            self.unit_starts.append(frame[1])
            self._spill()

    # -- per search ---------------------------------------------------------------

    def _spill(self) -> None:
        layers = {
            name: dict(stats, keys=sorted(stats["keys"])) for name, stats in self.layers.items()
        }
        path = self.spill_dir / f"worker-{os.getpid()}.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({"layers": layers, "unit_starts": self.unit_starts}) + "\n")
        self._reset()

    def end_search(self) -> None:
        """Merge what forked workers spilled, then count the search's distinct keys."""
        for path in sorted(self.spill_dir.glob("worker-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                for name, theirs in record["layers"].items():
                    ours = self.layer(name)
                    ours["calls"] += theirs["calls"]
                    ours["self_s"] += theirs["self_s"]
                    ours["samples"].extend(theirs["samples"])
                    ours["keys"].update(theirs["keys"])
                    for counter, amount in theirs["counters"].items():
                        self.count(name, counter, amount)
                self.unit_starts.extend(record["unit_starts"])
            path.unlink()
        for name, stats in self.layers.items():
            if stats["keys"]:
                self.count(name, "distinct", len(stats["keys"]))
                stats["keys"].clear()


# -- hooks: counts taken at the boundaries -------------------------------------------
#
# Each hook gets ``(recorder, start, span_s, args, kwargs, result)`` after the
# wrapped call returned; ``args[0]`` is ``self`` for methods.


def _file_bytes(path: Path) -> int:
    try:
        return path.stat().st_size
    except FileNotFoundError:
        return 0


def _canonical_sha1(program) -> str:
    from repro.dsl.codegen import to_source

    return hashlib.sha1(to_source(program).encode("utf-8")).hexdigest()


def _on_run(rec, start, span, args, kwargs, result):
    rec.count("core.run", "wall_s", span)


def _on_repair(rec, start, span, args, kwargs, result):
    rec.last_repair = result


def _on_check(rec, start, span, args, kwargs, result):
    source = args[1] if len(args) > 1 else kwargs["source"]
    rec.count("core.checker", "passed", int(result.ok))
    if rec.last_repair is not None and source is rec.last_repair:
        rec.count("llm.repair", "succeeded", int(result.ok))
    rec.last_repair = None


def _on_process_scored(rec, start, span, args, kwargs, result):
    rec.count("core.engine", "memo_hits", result.stats.eval_cache_hits)
    rec.count("core.engine", "memo_lookups", result.stats.eval_cache_lookups)


def _on_store_get(rec, start, span, args, kwargs, result):
    rec.count("core.store.get", "hits", int(result is not None))


def _on_store_put(rec, start, span, args, kwargs, result):
    if result:
        store, eval_key, program_key = args[:3]
        entry = store.entry_path(eval_key, program_key)
        written = _file_bytes(entry) + _file_bytes(entry.with_suffix(".npz"))
        rec.count("core.store.put", "bytes", written)


def _on_checkpoint(rec, start, span, args, kwargs, result):
    rec.count("core.archive.checkpoint", "bytes", _file_bytes(Path(args[1])))


def _on_finalize(rec, start, span, args, kwargs, result):
    from repro.core.artifacts import CHECKPOINT_FILE, EVENTS_FILE

    # The checkpoint and the event log belong to their own layers.
    written = sum(
        path.stat().st_size
        for path in Path(args[0]).iterdir()
        if path.is_file() and path.name not in (CHECKPOINT_FILE, EVENTS_FILE)
    )
    rec.count("core.artifacts", "bytes", written)


def _on_run_units(rec, start, span, args, kwargs, result):
    executor, units = args[0], args[1]
    rec.count("core.executors", "units", len(units))
    if executor.name != "serial":
        rec.count("core.executors", "pool_units", len(units))
        rec.dispatch_t0.append(start)


def _on_evaluate(rec, start, span, args, kwargs, result):
    rec.layer("core.evaluator")["samples"].append(span * 1000.0)
    fraction = getattr(args[0], FIDELITY_TAG, 1.0)
    rec.count("core.fidelity", "evaluations", 1)
    rec.count("core.fidelity", "full", int(fraction >= 1.0))


def _on_make_runner(rec, start, span, args, kwargs, result):
    program = args[0] if args else kwargs["program"]
    rec.layer("dsl.lower")["keys"].add(_canonical_sha1(program))


def _on_build_cc_fast(rec, start, span, args, kwargs, result):
    rec.layer("dsl.lower")["keys"].add(_canonical_sha1(args[0].program))


def _on_cache_run(rec, start, span, args, kwargs, result):
    warmup = kwargs.get("warmup", args[3] if len(args) > 3 else 0)
    rec.count("cache.simulator", "requests", result.requests + warmup)


def _on_netsim_run(rec, start, span, args, kwargs, result):
    rec.count("netsim.simulator", "sim_s", result.duration_s)


#: Hooks by wrapped target, falling back to hooks by layer.
HOOKS: Dict[str, Callable] = {
    "core.run": _on_run,
    "llm.repair": _on_repair,
    "core.checker": _on_check,
    "core.engine": _on_process_scored,
    "core.store.get": _on_store_get,
    "core.store.put": _on_store_put,
    "core.archive.checkpoint": _on_checkpoint,
    "repro.core.artifacts:finalize_run_dir": _on_finalize,
    "core.executors": _on_run_units,
    "core.evaluator": _on_evaluate,
    "repro.cache.priority_cache:make_runner": _on_make_runner,
    "repro.cc.dsl_controller:make_runner": _on_make_runner,
    "repro.cc.columnar:build_cc_fast": _on_build_cc_fast,
    "cache.simulator": _on_cache_run,
    "netsim.simulator": _on_netsim_run,
}


# -- installing the wrappers ----------------------------------------------------------


def _resolve(target: str) -> Tuple[object, str, Callable]:
    """``"pkg.module:Class.attr"`` -> (owner, attribute name, current value).

    A method must be defined on the named class itself, so a refactor that
    moves it fails here instead of silently tracing nothing.
    """
    module_name, _, qualname = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for name in path:
        owner = getattr(owner, name)
    if path:
        return owner, attr, vars(owner)[attr]
    return owner, attr, getattr(owner, attr)


def _span_wrapper(rec: Recorder, layer: str, original: Callable, hook) -> Callable:
    @functools.wraps(original)
    def traced(*args, **kwargs):
        if not rec._claim(layer):
            return original(*args, **kwargs)
        frame = rec._enter(layer)
        hook_s = 0.0
        try:
            result = original(*args, **kwargs)
            if hook is not None:
                hook_start = time.perf_counter()
                hook(rec, frame[1], hook_start - frame[1], args, kwargs, result)
                hook_s = time.perf_counter() - hook_start
        finally:
            rec._exit(frame, hook_s)
        return result

    return traced


def _fidelity_tagger(original: Callable) -> Callable:
    @functools.wraps(original)
    def tagged(self, fraction):
        scaled = original(self, fraction)
        if scaled is not self:
            setattr(scaled, FIDELITY_TAG, fraction)
        return scaled

    return tagged


def install(rec: Recorder, layers: Dict[str, dict]) -> Callable[[], None]:
    """Wrap every boundary in ``layers``; returns the function that unwraps."""
    undo: List[Tuple[object, str, Callable]] = []
    for layer, entry in layers.items():
        for target in entry.get("wraps", []):
            owner, attr, original = _resolve(target)
            hook = HOOKS.get(target) or HOOKS.get(layer)
            setattr(owner, attr, _span_wrapper(rec, layer, original, hook))
            undo.append((owner, attr, original))
        for target in entry.get("tags", []):
            owner, attr, original = _resolve(target)
            setattr(owner, attr, _fidelity_tagger(original))
            undo.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# -- per-layer metrics ----------------------------------------------------------------


def _percentile(samples: List[float], index: int) -> float:
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=10, method="inclusive")[index]


def _wait_s(rec: Recorder) -> float:
    """Time pool units waited from their batch's dispatch to a worker start."""
    waited = 0.0
    for unit_start in rec.unit_starts:
        dispatched = [t for t in rec.dispatch_t0 if t <= unit_start]
        if dispatched:
            waited += unit_start - max(dispatched)
    return waited


def layer_metrics(rec: Recorder, layers: Dict[str, dict], searches: int) -> List[dict]:
    """Every ``<layer>.<stat>`` of ``layers``, per traced search.

    Counts, times and bytes are divided by ``searches``; percentiles, rates
    and ratios are taken over all of them, rates and ratios with their
    numerator and denominator.
    """
    wall = rec.layer("core.run")["counters"].get("wall_s", 0)
    wait_s = _wait_s(rec)
    out: List[dict] = []
    for layer, entry in layers.items():
        stats = rec.layer(layer)
        count = stats["counters"].get
        calls, self_s, samples = stats["calls"], stats["self_s"], stats["samples"]
        totals = {
            "calls": (calls, "count"),
            "self_s": (self_s, "s"),
            "wall_s": (wall, "s"),
            "bytes": (count("bytes", 0), "B"),
            "units": (count("units", 0), "count"),
            "pool_units": (count("pool_units", 0), "count"),
            "wait_s": (wait_s, "s"),
        }
        ratios = {
            "requests_per_s": (count("requests", 0), self_s, "req/s"),
            "sim_s_per_s": (count("sim_s", 0), self_s, "sim_s/s"),
            "share": (self_s, wall, "ratio"),
            "success_ratio": (count("succeeded", 0), calls, "ratio"),
            "pass_ratio": (count("passed", 0), calls, "ratio"),
            "memo_hit_ratio": (count("memo_hits", 0), count("memo_lookups", 0), "ratio"),
            "hit_ratio": (count("hits", 0), calls, "ratio"),
            "full_eval_ratio": (count("full", 0), count("evaluations", 0), "ratio"),
            "unique_ratio": (count("distinct", 0), calls, "ratio"),
        }
        for stat in entry["stats"]:
            metric = {"name": f"{layer}.{stat}"}
            if stat in totals:
                value, metric["unit"] = totals[stat]
                metric["value"] = value / searches
            elif stat in ratios:
                numerator, denominator, metric["unit"] = ratios[stat]
                metric["value"] = numerator / denominator if denominator else 0.0
                metric["numerator"], metric["denominator"] = numerator, denominator
            elif stat in ("unit_ms_p50", "unit_ms_p90"):
                metric["value"] = _percentile(samples, 4 if stat == "unit_ms_p50" else 8)
                metric["unit"] = "ms"
            else:
                raise ValueError(f"unknown layer stat {stat!r} for {layer!r}")
            out.append(metric)
    return out
