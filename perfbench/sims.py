"""The simulator workloads: ``paper-table1`` and ``credit-lu64``.

Both run a complete job — simulate, then the Table 1 analysis (sender and
size streams at the logical and physical level of each cell's
representative rank) — through the public scenario API.  Layers are timed
from outside: spans around calls into ``repro.workloads``,
``repro.scenario``, ``repro.trace`` and ``repro.core``, plus timing
subclasses of the tracer and the credit policy injected through
``Scenario(tracer=..., policy=...)`` for the per-message hooks.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import time
import traceback

from repro.analysis.experiments import paper_sweep
from repro.predictive.credit_policy import PredictiveCreditPolicy
from repro.scenario.scenario import Scenario, ScenarioResult
from repro.scenario.spec import ScenarioSpec
from repro.scenario.sweep import Sweep
from repro.sim import engine as sim_engine
from repro.trace.tracer import TwoLevelTracer
from repro.workloads.compile import clear_schedule_cache, compile_info

from spans import NullRecorder, SpanRecorder

__all__ = ["SIM_WORKLOADS", "reference_fingerprints", "run_sim"]

#: Table 1 analysis: (stream kind, trace level) evaluated per cell.
ANALYSIS = tuple((kind, level) for kind in ("sender", "size") for level in ("logical", "physical"))

#: Set-up repeats per run, at least this many and for at least this long;
#: ``setup_s`` is their median.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 3.0

#: Process-pool width of the paper sweep (the host has two cores).
POOL_JOBS = 2


def paper_specs(seed: int) -> list[ScenarioSpec]:
    """The 19 paper cells at scale 0.05, standard policy, default network."""
    return paper_sweep(seed=seed, scale=0.05).expand()


def credit_specs(seed: int) -> list[ScenarioSpec]:
    """One LU run at 64 ranks under the predictive credit policy."""
    return [ScenarioSpec(workload="lu.64:scale=0.01", policy="predictive-credits", seed=seed)]


#: name -> (cell specs for a seed, whether a job shards cells over a pool)
SIM_WORKLOADS = {
    "paper-table1": (paper_specs, True),
    "credit-lu64": (credit_specs, False),
}


# ----------------------------------------------------------------------
# Timing subclasses injected through Scenario(tracer=..., policy=...)
# ----------------------------------------------------------------------
class TimingTracer(TwoLevelTracer):
    """A two-level tracer that counts and times its per-message hooks."""

    def __init__(self, nprocs: int) -> None:
        super().__init__(nprocs)
        self.hook_calls = 0
        self.hook_s = 0.0
        self.finalize_s = 0.0

    def on_recv_posted(self, rank, req_id, time_):
        start = time.perf_counter()
        super().on_recv_posted(rank, req_id, time_)
        self.hook_s += time.perf_counter() - start
        self.hook_calls += 1

    def on_recv_matched(self, rank, req_id, sender, nbytes, tag, kind, time_):
        start = time.perf_counter()
        super().on_recv_matched(rank, req_id, sender, nbytes, tag, kind, time_)
        self.hook_s += time.perf_counter() - start
        self.hook_calls += 1

    def on_message_arrival(self, rank, sender, nbytes, tag, kind, time_):
        start = time.perf_counter()
        super().on_message_arrival(rank, sender, nbytes, tag, kind, time_)
        self.hook_s += time.perf_counter() - start
        self.hook_calls += 1

    def finalize(self):
        start = time.perf_counter()
        super().finalize()
        self.finalize_s += time.perf_counter() - start


class TimingCreditPolicy(PredictiveCreditPolicy):
    """The credit policy, counting and timing its transport hooks."""

    def __init__(self, **params) -> None:
        super().__init__(**params)
        self.hook_calls = 0
        self.hook_s = 0.0

    def allows_eager(self, src, dst, nbytes, kind, now):
        start = time.perf_counter()
        allowed = super().allows_eager(src, dst, nbytes, kind, now)
        self.hook_s += time.perf_counter() - start
        self.hook_calls += 1
        return allowed

    def on_message_delivered(self, dst, src, nbytes, tag, kind, now):
        start = time.perf_counter()
        super().on_message_delivered(dst, src, nbytes, tag, kind, now)
        self.hook_s += time.perf_counter() - start
        self.hook_calls += 1

    def on_burst_delivered(self, dst, messages, now):
        start = time.perf_counter()
        super().on_burst_delivered(dst, messages, now)
        self.hook_s += time.perf_counter() - start
        self.hook_calls += 1


# ----------------------------------------------------------------------
# Job pieces
# ----------------------------------------------------------------------
def cell_fingerprint(result: ScenarioResult, accuracies) -> str:
    """Digest of makespan, runtime statistics and the four accuracies."""
    payload = {
        "label": result.label,
        "makespan": repr(result.makespan),
        "stats": result.stats.summary(),
        "accuracy": [
            [acc.hits.tolist(), acc.attempts.tolist(), acc.predicted.tolist(), acc.stream_length]
            for acc in accuracies
        ],
    }
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def analyse(result: ScenarioResult, rec) -> list:
    """The Table 1 analysis of one cell: four predictor evaluations."""
    accuracies = []
    for kind, level in ANALYSIS:
        with rec.span("trace.streams", kind=kind, level=level):
            result.stream(kind, level)
        with rec.span("core.evaluate", kind=kind, level=level):
            accuracies.append(result.predict(kind, level))
    return accuracies


def setup(specs: list[ScenarioSpec], rec) -> tuple[float, dict]:
    """Build every cell's workload and compile all its ranks' lanes cold.

    ``compile_info`` compiles through the schedule cache that the engine
    reads, so in-process jobs that follow start with warm lanes.
    """
    clear_schedule_cache()
    gc.collect()  # start each timed set-up from the same heap state
    compile_s = 0.0
    cells = {}
    start = time.perf_counter()
    with rec.span("setup"):
        for spec in specs:
            with rec.span("workloads.build", cell=spec.label):
                workload = spec.workload.build()
            t0 = time.perf_counter()
            with rec.span("workloads.compile", cell=spec.label):
                infos = [compile_info(workload, rank) for rank in range(workload.nprocs)]
            compile_s += time.perf_counter() - t0
            cells[spec.label] = (workload, infos)
    return time.perf_counter() - start, {"compile_s": compile_s, "cells": cells}


def resolved_drain(spec: ScenarioSpec, infos: list[dict]) -> str:
    """The run-loop drain the engine selects for this cell.

    Mirrors ``Simulator.run``: ``auto`` takes the vectorised drain once at
    least ``_VECTOR_MIN_RANKS`` ranks run compiled lanes.
    """
    compiled = sum(1 for info in infos if info["compiled"])
    if spec.engine == "scalar" or compiled < sim_engine._VECTOR_MIN_RANKS:
        return "scalar"
    return "vectorised"


def run_pooled_job(specs: list[ScenarioSpec]) -> tuple[float, dict, list]:
    """One paper job: the sweep over a cold-compiling pool, then analysis."""
    clear_schedule_cache()  # forked workers would inherit warm lanes
    gc.collect()
    null = NullRecorder()
    fingerprints, results = {}, []
    start = time.perf_counter()
    outcomes = Sweep(cells=specs, name="paper-table1").run_all(jobs=POOL_JOBS, max_retries=0)
    for spec, outcome in zip(specs, outcomes):
        if isinstance(outcome, ScenarioResult):
            fingerprints[spec.label] = cell_fingerprint(outcome, analyse(outcome, null))
            results.append(outcome)
        else:
            fingerprints[spec.label] = f"failed: {outcome.error_type}"
    return time.perf_counter() - start, fingerprints, results


def run_inprocess_job(specs, prepared, rec, traced: bool) -> tuple[float, dict, dict]:
    """Run every cell in this process; ``traced`` injects timing hooks.

    Returns (wall seconds, per-cell fingerprints, per-layer totals).
    """
    layers = {
        "trace.hook_calls": 0, "trace.hook_s": 0.0, "trace.finalize_s": 0.0,
        "predictive.hook_calls": 0, "predictive.hook_s": 0.0,
        "eager_granted": 0, "eager_denied": 0, "sim.events": 0,
        "runtime.messages": 0, "runtime.eager": 0, "runtime.rendezvous": 0,
        "runtime.forced_rendezvous": 0, "runtime.unexpected": 0,
        "runtime.control_messages": 0, "sim.self_s": 0.0, "run_s": 0.0,
        "parallel_info": {},
    }
    fingerprints = {}
    gc.collect()
    start = time.perf_counter()
    for spec in specs:
        try:
            with rec.span("scenario.cell", cell=spec.label):
                if spec.label in prepared:
                    workload = prepared[spec.label][0]
                else:
                    workload = spec.workload.build()
                # Compile before the run so the run span holds no compile
                # time; lanes already cached cost a lookup per rank.
                with rec.span("workloads.compile", cell=spec.label):
                    for rank in range(workload.nprocs if spec.compiled else 0):
                        compile_info(workload, rank)
                kwargs = {}
                if traced:
                    kwargs["tracer"] = TimingTracer(workload.nprocs)
                    if spec.policy.kind == "predictive-credits":
                        kwargs["policy"] = TimingCreditPolicy(**dict(spec.policy.params))
                with rec.span("scenario.run", cell=spec.label) as run_span:
                    result = Scenario(spec, workload=workload, **kwargs).run()
                    if traced:
                        # Charge hook time to the run span: self time is then
                        # engine + transport + network.
                        tracer, policy = kwargs["tracer"], kwargs.get("policy")
                        hooks = tracer.hook_s + tracer.finalize_s
                        if policy is not None:
                            hooks += policy.hook_s
                        run_span.add_child_time(hooks)
                accuracies = analyse(result, rec)
        except Exception as error:  # noqa: BLE001 - a failing cell is counted, not fatal
            traceback.print_exc()
            fingerprints[spec.label] = f"failed: {type(error).__name__}: {error}"
            continue
        fingerprints[spec.label] = cell_fingerprint(result, accuracies)
        layers["parallel_info"][spec.label] = result.result.parallel_info
        if traced:
            stats = result.stats
            layers["run_s"] += run_span.duration
            layers["sim.self_s"] += run_span.self_s
            layers["sim.events"] += result.result.events_processed
            layers["runtime.messages"] += stats.messages_sent
            layers["runtime.eager"] += stats.eager_messages
            layers["runtime.rendezvous"] += stats.rendezvous_messages
            layers["runtime.forced_rendezvous"] += stats.forced_rendezvous
            layers["runtime.unexpected"] += stats.unexpected_deliveries
            layers["runtime.control_messages"] += stats.control_messages
            tracer = kwargs["tracer"]
            layers["trace.hook_calls"] += tracer.hook_calls
            layers["trace.hook_s"] += tracer.hook_s
            layers["trace.finalize_s"] += tracer.finalize_s
            policy = kwargs.get("policy")
            if policy is not None:
                exposure = policy.exposure_summary()
                layers["predictive.hook_calls"] += policy.hook_calls
                layers["predictive.hook_s"] += policy.hook_s
                layers["eager_granted"] += exposure["eager_granted"]
                layers["eager_denied"] += exposure["eager_denied"]
    return time.perf_counter() - start, fingerprints, layers


def reference_fingerprints(name: str, seed: int) -> dict:
    """Per-cell fingerprints from the reference path.

    The reference is the record-by-record scalar drain over generator rank
    programs (no compiled lanes), run the way the workload runs its jobs.
    """
    make_specs, pooled = SIM_WORKLOADS[name]
    specs = [spec.with_overrides(engine="scalar", compiled=False) for spec in make_specs(seed)]
    if pooled:
        return run_pooled_job(specs)[1]
    return run_inprocess_job(specs, {}, NullRecorder(), False)[1]


# ----------------------------------------------------------------------
# One benchmark run
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """This process's memory high-water mark plus its largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_sim(name, seed, seconds, trace, engine, out_dir):
    """Run one sim workload.

    Returns (per-job fingerprints, failures found here, metrics, report);
    the caller checks the fingerprints against the reference.
    """
    make_specs, pooled = SIM_WORKLOADS[name]
    specs = make_specs(seed)
    if engine != "auto":
        specs = [spec.with_overrides(engine=engine) for spec in specs]
    rec = SpanRecorder() if trace else NullRecorder()

    setup_s, compile_times = [], []
    while len(setup_s) < SETUP_MIN_REPEATS or sum(setup_s) < SETUP_MIN_SECONDS:
        rec.set_trace(f"setup-{len(setup_s)}")
        elapsed, state = setup(specs, rec)
        setup_s.append(elapsed)
        compile_times.append(state["compile_s"])
    prepared = state["cells"]
    config = {
        "cells": {
            spec.label: {
                "nprocs": spec.workload.nprocs,
                "policy": spec.policy.kind,
                "engine": spec.engine,
                "drain": resolved_drain(spec, prepared[spec.label][1]),
                "compile_fallback_ranks": {
                    rank: info["fallback"]
                    for rank, info in enumerate(prepared[spec.label][1])
                    if not info["compiled"]
                },
            }
            for spec in specs
        }
    }

    failed = 0
    all_fingerprints = []
    untraced_s, traced_s, pooled_s, layer_runs = [], [], [], []

    begin = time.perf_counter()
    if not trace:
        while not untraced_s or time.perf_counter() - begin < seconds:
            if pooled:
                wall, fingerprints, results = run_pooled_job(specs)
                parallel_info = {r.label: r.result.parallel_info for r in results}
            else:
                wall, fingerprints, layers = run_inprocess_job(specs, prepared, rec, False)
                parallel_info = layers["parallel_info"]
            untraced_s.append(wall)
            all_fingerprints.append(fingerprints)
    else:
        if pooled:
            wall, fingerprints, _results = run_pooled_job(specs)
            pooled_s.append(wall)
            all_fingerprints.append(fingerprints)
        iteration = 0
        while not traced_s or time.perf_counter() - begin < seconds:
            if pooled:
                clear_schedule_cache()  # compile cold, as each pool worker does
            wall, fingerprints, _layers = run_inprocess_job(specs, prepared, NullRecorder(), False)
            untraced_s.append(wall)
            all_fingerprints.append(fingerprints)
            rec.set_trace(f"job-{iteration}")
            if pooled:
                clear_schedule_cache()
            wall, fingerprints, layers = run_inprocess_job(specs, prepared, rec, True)
            traced_s.append(wall)
            all_fingerprints.append(fingerprints)
            layer_runs.append(layers)
            iteration += 1

    rss = peak_rss_mb()

    report = {"config": config, "setup_s": setup_s}
    if not trace:
        config["parallel_info"] = parallel_info
        report["job_s"] = untraced_s
        metrics = {
            "setup_s": statistics.median(setup_s),
            "job_s": statistics.median(untraced_s),
            "peak_rss_mb": rss,
        }
        return all_fingerprints, failed, metrics, report

    # Per-layer figures come from the traced job of median wall time.
    middle = sorted(range(len(traced_s)), key=traced_s.__getitem__)[len(traced_s) // 2]
    layers, job_trace = layer_runs[middle], f"job-{middle}"
    cell_s = rec.total("scenario.cell", trace=job_trace)
    infos = [info for _workload, cell_infos in prepared.values() for info in cell_infos]
    granted, denied = layers["eager_granted"], layers["eager_denied"]
    traced_job = statistics.median(traced_s)
    untraced_job = statistics.median(untraced_s)
    metrics = {
        "workloads.compile_s": statistics.median(compile_times),
        "workloads.compiled_ops": sum(info.get("ops", 0) for info in infos),
        "workloads.fallback_ranks": sum(1 for info in infos if not info["compiled"]),
        "scenario.cell_s": cell_s,
        "sim.self_s": layers["sim.self_s"],
        "sim.events": layers["sim.events"],
        "sim.events_per_s": layers["sim.events"] / layers["run_s"],
        "sim.vectorised_cells": sum(
            1 for cell in config["cells"].values() if cell["drain"] == "vectorised"
        ),
        "sim.scalar_cells": sum(
            1 for cell in config["cells"].values() if cell["drain"] == "scalar"
        ),
        "runtime.messages": layers["runtime.messages"],
        "runtime.eager": layers["runtime.eager"],
        "runtime.rendezvous": layers["runtime.rendezvous"],
        "runtime.forced_rendezvous": layers["runtime.forced_rendezvous"],
        "runtime.unexpected": layers["runtime.unexpected"],
        "runtime.control_messages": layers["runtime.control_messages"],
        "predictive.hook_calls": layers["predictive.hook_calls"],
        "predictive.hook_s": layers["predictive.hook_s"],
        "predictive.grant_ratio": granted / (granted + denied) if granted + denied else 0.0,
        "trace.hook_calls": layers["trace.hook_calls"],
        "trace.hook_s": layers["trace.hook_s"],
        "trace.finalize_s": layers["trace.finalize_s"],
        "trace.streams_s": rec.total("trace.streams", trace=job_trace),
        "core.evaluate_s": rec.total("core.evaluate", trace=job_trace),
        "core.evaluate_calls": sum(
            1 for span in rec.spans if span.name == "core.evaluate" and span.trace == job_trace
        ),
        "spans.overhead": traced_job / untraced_job - 1.0,
    }
    if pooled:
        metrics["scenario.pool_efficiency"] = cell_s / (POOL_JOBS * pooled_s[0])
    # Every data message is posted, matched and arrives once at its receiver.
    if layers["trace.hook_calls"] != 3 * layers["runtime.messages"]:
        failed += 1
    report.update(
        untraced_job_s=untraced_s, traced_job_s=traced_s, pooled_job_s=pooled_s,
        self_s={
            name: rec.total_self(name, trace=job_trace)
            for name in sorted({span.name for span in rec.spans})
        },
    )
    config["parallel_info"] = layers.pop("parallel_info")
    config["layers"] = layers
    rec.write_ndjson(out_dir / f"{name}-seed{seed}-spans.ndjson", metrics)
    return all_fingerprints, failed, metrics, report
