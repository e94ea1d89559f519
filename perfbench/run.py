"""End-to-end benchmark of the search loop: spec in, finalized ``result.json`` out.

Run from the repository root::

    python3 perfbench/run.py --workload caching-paper --seed 0 --seconds 24 --trace 0

One invocation runs one workload (``perfbench/workloads.json``) in this
process, closed-loop: one search at a time, each sample one whole
``repro.core.spec.run(spec, ...)`` into a fresh run directory under
``.perfbench_work/``; at least two samples, and as many more as fit in
``--seconds``.  Before each sample the heap is collected and the
module-level caches of compiled simulation loops are emptied, so every
sample compiles what a single ``repro run`` would.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

The spec seed is part of each workload's definition (``search_seed`` in
``workloads.json``), not ``--seed``: the seed picks the synthetic LLM's
candidate stream, and what those candidates cost to simulate varies far
more between seeds than between runs (one search of ``cc-matrix`` took
1.4 s to 10.2 s over seeds 1-6, one of ``caching-long`` 9.6 s to 27.9 s
over seeds 1-4), so a per-seed workload could not show a regression within
any useful bound.  ``--seed`` only decides, under ``--trace 1``, whether
the traced or the untraced search runs first.

With ``--trace 0`` the metrics are the end-to-end ones:

``candidates_per_s``
    Candidates generated, checked and scored per second of search wall
    (from ``RunStarted`` to the finalized ``result.json``), median over the
    samples.
``setup_s``
    ``resolve_domain_kwargs`` + ``build_from_spec``, timed a few times
    before every sample; median.
``peak_rss_mb``
    Peak RSS during one search: this process's high-water mark, reset just
    before the search (``/proc/self/clear_refs``), or the largest of the
    pool workers reaped so far (``RUSAGE_CHILDREN`` cannot be reset, and
    only searches start workers); median.  Set-up timing, the warm
    workload's fill run and the interpreter re-score do not count.
``disk_mb``
    Bytes a sample leaves behind: its run directory plus what it added to
    the evaluation store; median.

``attempted``/``failed`` count candidates: a candidate fails when its
evaluation is transient (timeout, dead worker, queue error), and a sample
that raises fails all the candidates its spec asks for.

With ``--trace 1`` the samples alternate between untraced and traced
searches, and the metrics are the per-layer ones of ``tracing.py`` (per
traced search) plus the traced and untraced ``candidates_per_s``.

Every sample passes the correctness gate, or ``correct`` is false:

* every round of the spec completed;
* ``result.json`` is byte-identical across samples (on ``caching-warm``,
  also to the cold run that filled its store);
* the eval store served every lookup and took no write on the warm
  workload, and served none on the cold ones;
* the winner's score, the SHA-1 of its canonical source,
  ``total_candidates`` and the valid count equal the workload's
  ``expected`` values;
* once per invocation, outside timing, the winner re-scored through the
  reference interpreter backend equals the reported best score exactly.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

import tracing

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIRNAME = ".perfbench_work"
#: Before each untraced sample, set-up is timed at least 3 and at most 25
#: times, stopping once this much time has passed.
SETUP_SLICE_S = 0.3


def _dir_bytes(path: Path) -> int:
    if not path.exists():
        return 0
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


def _reset_peak_rss() -> bool:
    """Reset this process's peak-RSS high-water mark (Linux ``VmHWM``)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def _peak_rss_kib(reset_ok: bool) -> int:
    """Peak RSS in KiB: own ``VmHWM`` since the reset, or reaped children's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if reset_ok:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1])
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def _clear_code_caches() -> None:
    """Empty the in-process caches of compiled simulation loops."""
    from repro.cache import columnar as cache_columnar
    from repro.cc import columnar as cc_columnar

    cache_columnar._LOOP_CODE_CACHE.clear()
    cc_columnar._CODE_CACHE.clear()


def _spread(values: List[float]) -> float:
    """Inter-quartile range (0 with fewer than two values)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] - quartiles[0]


class Bench:
    """One workload: set-up, timed samples, correctness gate, report."""

    def __init__(self, config: dict, workload: str, seconds: float, work: Path):
        from repro.core.spec import RunSpec

        entry = config["workloads"][workload]
        owner = config["workloads"][entry.get("spec_from", workload)]
        self.spec_data = dict(owner["spec"], seed=config["search_seed"])
        self.spec = RunSpec.from_dict(self.spec_data)
        self.expected = owner["expected"]
        self.warm = entry["store"] == "warm"
        self.layers = config["layers"]
        self.workload = workload
        self.seconds = seconds
        self.work = work
        self.errors: List[str] = []
        self.reference_sha: Optional[str] = None
        self.first_result: Optional[dict] = None
        self.setup_times: List[float] = []
        self.attempted = 0
        self.failed = 0

    # -- correctness -----------------------------------------------------------------

    def _gate(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def _check_sample(self, index: int, outcome, result_bytes: bytes) -> None:
        from repro.core.engine import canonical_key

        result = outcome.result
        rounds = self.spec.search["rounds"]
        self._gate(
            len(result.rounds) == rounds,
            f"sample {index}: {len(result.rounds)} rounds completed, spec asks {rounds}",
        )
        sha = hashlib.sha256(result_bytes).hexdigest()
        if self.reference_sha is None:
            self.reference_sha = sha
        self._gate(
            sha == self.reference_sha,
            f"sample {index}: result.json sha256 {sha[:12]} != {self.reference_sha[:12]}",
        )
        metadata = json.loads((outcome.artifact_dir / "metadata.json").read_text())
        store = metadata["eval_store"]
        served = f"{store['hits']}/{store['lookups']} lookups, {store['writes']} writes"
        if self.warm:
            warm_ok = 0 < store["lookups"] == store["hits"] and store["writes"] == 0
            self._gate(warm_ok, f"sample {index}: warm store served {served}")
        else:
            self._gate(store["hits"] == 0, f"sample {index}: cold store served {served}")
        if result.best is None:
            self.errors.append(f"sample {index}: no valid candidate")
            return
        observed = {
            "best_score": result.best.score,
            "best_source_sha1": canonical_key(result.best.program),
            "total_candidates": result.total_candidates,
            "valid_candidates": len(result.valid_candidates()),
        }
        self._gate(
            observed == self.expected,
            f"sample {index}: result {observed} != expected {self.expected}",
        )

    def _rescore_with_interpreter(self, result_json: dict) -> None:
        """Re-score the winner through the reference interpreter backend."""
        from repro.core.spec import RunSpec, build_from_spec
        from repro.dsl.parser import parse

        best = next(
            entry
            for entry in result_json["candidates"]
            if entry["candidate"]["candidate_id"] == result_json["best_candidate_id"]
        )
        data = dict(self.spec_data, engine={"dsl_backend": "interpreter"}, checkpoint=False)
        data.pop("fidelity", None)
        setup = build_from_spec(RunSpec.from_dict(data))
        score = setup.evaluator.evaluate(parse(best["canonical_source"])).score
        reported = best["evaluation"]["score"]
        self._gate(
            score == reported,
            f"interpreter re-score {score!r} != reported best score {reported!r}",
        )

    # -- measurement ------------------------------------------------------------------

    def _time_setup(self) -> None:
        from repro.core import spec as spec_module

        slice_end = time.perf_counter() + SETUP_SLICE_S
        for repeat in range(25):
            if repeat >= 3 and time.perf_counter() >= slice_end:
                break
            start = time.perf_counter()
            resolved = spec_module.resolve_domain_kwargs(self.spec.domain_kwargs)
            setup = spec_module.build_from_spec(self.spec, resolved_kwargs=resolved)
            self.setup_times.append(time.perf_counter() - start)
            if setup.engine is not None:
                setup.engine.close()
            # Free this set-up before the next is built, outside the timing.
            resolved = setup = None

    def _search(self, run_dir: Path, store_root: Path):
        """One search; returns (outcome, search wall seconds)."""
        from repro.core import spec as spec_module
        from repro.core.events import RunStarted

        started: List[float] = []

        def on_event(event) -> None:
            if isinstance(event, RunStarted):
                started.append(time.perf_counter())

        outcome = spec_module.run(
            self.spec, run_dir=run_dir, eval_store=store_root, subscribers=[on_event]
        )
        return outcome, time.perf_counter() - started[0]

    def _sample(self, index: int, store_root: Path, recorder=None) -> Optional[dict]:
        run_dir = self.work / f"run-{index}"
        if not self.warm:
            store_root = self.work / f"store-{index}"
        store_before = _dir_bytes(store_root)
        # Every sample starts from a collected heap (pool workers fork from it)
        # and compiles its simulation loops afresh.
        gc.collect()
        _clear_code_caches()
        uninstall = tracing.install(recorder, self.layers) if recorder is not None else None
        try:
            reset_ok = _reset_peak_rss()
            outcome, wall = self._search(run_dir, store_root)
            peak_kib = _peak_rss_kib(reset_ok)
        except Exception:  # noqa: BLE001 - a failed search is a measured outcome
            traceback.print_exc()
            units = self.spec.search["rounds"] * self.spec.search["candidates_per_round"]
            self.attempted += units
            self.failed += units
            self.errors.append(f"sample {index}: search raised")
            return None
        finally:
            if uninstall is not None:
                uninstall()
                recorder.end_search()
        result = outcome.result
        result_bytes = (outcome.artifact_dir / "result.json").read_bytes()
        self._check_sample(index, outcome, result_bytes)
        if self.first_result is None:
            self.first_result = json.loads(result_bytes)
        self.attempted += result.total_candidates
        self.failed += sum(
            1
            for candidate in result.candidates
            if candidate.evaluation is not None and candidate.evaluation.transient
        )
        sample = {
            "wall_s": wall,
            "candidates": result.total_candidates,
            "candidates_per_s": result.total_candidates / wall,
            "disk_bytes": _dir_bytes(run_dir) + _dir_bytes(store_root) - store_before,
            "peak_rss_mb": peak_kib / 1024.0,
            "traced": recorder is not None,
        }
        shutil.rmtree(run_dir)
        if not self.warm:
            shutil.rmtree(store_root)
        return sample

    def run(self, trace: bool, traced_first: bool) -> dict:
        store_root = self.work / "store-warm"
        if self.warm:
            # Untimed cold run that fills the store the samples then read.
            fill_dir = self.work / "fill"
            outcome, _wall = self._search(fill_dir, store_root)
            result_bytes = (outcome.artifact_dir / "result.json").read_bytes()
            self.reference_sha = hashlib.sha256(result_bytes).hexdigest()
            shutil.rmtree(fill_dir)

        recorder = tracing.Recorder(self.work / "spill") if trace else None
        samples: List[dict] = []
        durations: List[float] = []
        window_start = time.perf_counter()
        index = 0
        # At least two samples; then start another only if one more of median
        # length still ends inside the window, so a run takes about --seconds.
        while index < 2 or (
            time.perf_counter() - window_start + statistics.median(durations) <= self.seconds
        ):
            traced = trace and (index % 2 == 1) != traced_first
            sample_start = time.perf_counter()
            if not trace:
                # Spread over the window, so set-up meets the machine states
                # the samples meet.
                self._time_setup()
            sample = self._sample(index, store_root, recorder if traced else None)
            durations.append(time.perf_counter() - sample_start)
            if sample is not None:
                samples.append(sample)
                print(
                    f"sample {index}{' (traced)' if traced else ''}: "
                    f"{sample['candidates']} candidates in {sample['wall_s']:.3f} s = "
                    f"{sample['candidates_per_s']:.2f} cand/s, "
                    f"disk {sample['disk_bytes'] / 1e6:.3f} MB, "
                    f"peak RSS {sample['peak_rss_mb']:.1f} MiB",
                    flush=True,
                )
            index += 1
        if self.first_result is not None:
            self._rescore_with_interpreter(self.first_result)
        else:
            self.errors.append("no sample completed")

        untraced = [sample for sample in samples if not sample["traced"]]
        if trace:
            traced_samples = [sample for sample in samples if sample["traced"]]
            metrics = self._layer_report(recorder, untraced, traced_samples)
        else:
            metrics = self._end_to_end_report(untraced)
        for error in self.errors:
            print(f"CHECK FAILED: {error}", file=sys.stderr)
        verdict = "ok" if not self.errors else f"{len(self.errors)} failed checks"
        print(f"correctness: {verdict}; failed_frac {self.failed}/{self.attempted}", flush=True)
        return {
            "correct": not self.errors,
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": metrics,
        }

    # -- reports ----------------------------------------------------------------------

    def _end_to_end_report(self, samples: List[dict]) -> dict:
        series = {
            "candidates_per_s": ([sample["candidates_per_s"] for sample in samples], "cand/s"),
            "setup_s": (self.setup_times, "s"),
            "peak_rss_mb": ([sample["peak_rss_mb"] for sample in samples], "MiB"),
            "disk_mb": ([sample["disk_bytes"] / 1e6 for sample in samples], "MB"),
        }
        metrics: Dict[str, dict] = {}
        print(f"{self.workload}: {len(samples)} samples")
        for name, (values, unit) in series.items():
            if not values:
                continue
            median = statistics.median(values)
            metrics[name] = {"value": median, "unit": unit}
            spread = _spread(values)
            print(f"  {name:18s} {median:12.6g} {unit:7s} IQR {spread:.4g}  n={len(values)}")
        return metrics

    def _layer_report(self, recorder, untraced: List[dict], traced: List[dict]) -> dict:
        searches = max(len(traced), 1)
        rows = tracing.layer_metrics(recorder, self.layers, searches)
        plain = statistics.median(sample["candidates_per_s"] for sample in untraced)
        with_trace = statistics.median(sample["candidates_per_s"] for sample in traced)
        tracer_s = recorder.layer(tracing.TRACER_LAYER)["self_s"] / searches
        rows += [
            {"name": "bench.untraced_candidates_per_s", "unit": "cand/s", "value": plain},
            {"name": "bench.traced_candidates_per_s", "unit": "cand/s", "value": with_trace},
            {"name": "bench.trace_overhead", "unit": "ratio", "value": plain / with_trace - 1},
            {"name": "bench.tracer.self_s", "unit": "s", "value": tracer_s},
        ]
        print(f"{self.workload}: per traced search ({len(traced)} traced, {len(untraced)} not)")
        for row in rows:
            detail = ""
            if "denominator" in row:
                detail = f"  = {row['numerator']:.6g} / {row['denominator']:.6g}"
            print(f"  {row['name']:38s} {row['value']:14.6g} {row['unit']}{detail}")
        return {row["name"]: {"value": row["value"], "unit": row["unit"]} for row in rows}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: {src / 'repro'} not found; run from the repository root", file=sys.stderr
        )
        return 2
    sys.path.insert(0, str(src))
    config = json.loads((BENCH_DIR / "workloads.json").read_text(encoding="utf-8"))
    if args.workload not in config["workloads"]:
        names = sorted(config["workloads"])
        print(f"perfbench: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2

    work_root = root / WORK_DIRNAME
    work = work_root / f"{args.workload}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    # Keep every temporary file (and pool workers' ones) inside the checkout.
    tempfile.tempdir = str(work / "tmp")
    os.environ["TMPDIR"] = tempfile.tempdir
    try:
        bench = Bench(config, args.workload, args.seconds, work)
        report = bench.run(trace=bool(args.trace), traced_first=args.seed % 2 == 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another invocation is still using it
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
