"""One measured run of one workload: end-to-end or traced.

``run_workload`` is what ``bench/run.py`` calls once per process.  With
``trace=False`` it sets the stack up several times (``setup_s`` is the
median), warms up, measures blocks for ``seconds`` and reports the
end-to-end metrics.  Set-ups and blocks are timed as they are, and each
time is divided by how much slower than undisturbed the box was running
beside it (``bench.trace.probe``) before medians are taken.  With
``trace=True`` it runs a fixed number of blocks, alternating untraced
and traced ones over the same stack, and reports the per-layer metrics,
as measured, from the traced half; the untraced half is the reference
for ``driver.trace_overhead_share``.
"""

from __future__ import annotations

import resource
import statistics
from typing import Dict, List

import numpy as np

from repro.ckks.backend import use_backend
from repro.plan import modeled_replay

from bench.spec import declared
from bench.trace import (
    CLOCK, FAMILIES, PROBE_QUIET_S, CodecReplay, TimingBackend, Tracer, probe,
)
from bench.workloads import SWEEP_RATE, SWEEP_STEPS, WORKLOADS, Block, build

#: set-ups per end-to-end run, before and after the measured phase (so one
#: slow spell of the box cannot colour them all); ``setup_s`` is their
#: median.  A Set-B key generation costs as much as six Set-A set-ups,
#: hence fewer of them.
SETUP_REPEATS = {"closed": (3, 2), "open": (3, 2), "plan": (2, 1)}
#: share of ``--seconds`` each half (untraced, traced) of a traced run is
#: sized to fill at this box's speed
TRACE_FILL = 0.4
#: blocks per run of the self-test
SMOKE_BLOCKS = 2
#: frames of every traced block replayed through the codecs
REPLAY_FRAMES = 8


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q))


def _windows(values: list, size: int) -> List[list]:
    """Consecutive full windows of ``size`` values."""
    return [values[i:i + size] for i in range(0, len(values) - size + 1, size)]


def _peak_rss_mb() -> float:
    """``ru_maxrss`` (KiB on Linux) of the driver plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _slowdown(*readings: float) -> float:
    """How much slower than undisturbed the box ran, from probe readings."""
    return statistics.fmean(readings) / PROBE_QUIET_S


def _timed_build(workload, seed: int, smoke: bool):
    """One set-up, and its seconds over the slowdown read around it."""
    before = probe()
    bench = build(workload, seed, smoke)
    return bench, sum(bench.setup.values()) / _slowdown(before, probe())


def _spare_setups(workload, seed: int, smoke: bool, count: int) -> List[float]:
    """Set the stack up ``count`` more times, keeping only the timings.

    Each stack is dropped before the next is built, so the repeats never
    hold two key sets at once and cannot raise the peak RSS.
    """
    samples = []
    for _ in range(count):
        spare, sample = _timed_build(workload, seed, smoke)
        spare.close()
        samples.append(sample)
        del spare
    return samples


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> dict:
    """Measure one workload; returns the record ``bench/run.py`` prints.

    ``smoke`` shrinks everything to the toy ring and two blocks.
    """
    workload = WORKLOADS[name]
    before, after = (1, 0) if trace or smoke else SETUP_REPEATS[workload.kind]
    with use_backend("numpy"):
        setups = _spare_setups(workload, seed, smoke, before - 1)
        bench, sample = _timed_build(workload, seed, smoke)
        setups.append(sample)
        try:
            encrypt_ms = bench.make_pool(np.random.default_rng(seed))
            bench.warm_up(1 if smoke else workload.warmup_blocks)
            if trace:
                body = _traced(bench, seconds, smoke, encrypt_ms)
            else:
                body = _end_to_end(bench, seconds, smoke)
            kept_up = body.pop("kept_up", True)
            record = {
                "workload": name,
                "seed": seed,
                "trace": int(trace),
                "correct": bench.failed == 0 and bench.conserved() and kept_up,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "response_digest": bench.response_digest(),
                **body,
            }
        finally:
            bench.close()
        del bench
        if not trace:
            # read before the spare set-ups below can add to it
            record["metrics"]["peak_rss_mb"] = _peak_rss_mb()
            setups += _spare_setups(workload, seed, smoke, after)
            record["metrics"]["setup_s"] = statistics.median(setups)
    return record


# ----------------------------------------------------------------------
# end to end
# ----------------------------------------------------------------------
def _end_to_end(bench, seconds: float, smoke: bool) -> dict:
    """Blocks for ``seconds``, a probe reading on either side of each.

    Neighbours on this shared box slow it by 1.3-1.7x in spells of
    seconds to minutes, which a 15 s run cannot average out: the same
    code read a ten-run spread of 0.2-0.3 on raw medians and quartiles.
    So every block's times are divided by its slowdown, the probe read
    beside it over the probe's undisturbed reading, before the median
    over blocks is taken (see "Noise" in bench/README.md).
    """
    workload = bench.wl
    idle = Tracer()
    blocks: List[Block] = []
    kept_up = True
    if workload.kind == "open":
        sweeps = SMOKE_BLOCKS if smoke else int(seconds * SWEEP_RATE)
        block = bench.block(idle, sweeps, probed=True)
        blocks.append(block)
        # an open loop that falls behind its schedule has failed, whatever
        # latency it reports
        kept_up = smoke or (
            block.requests / block.wall >= 0.98 * SWEEP_RATE * len(SWEEP_STEPS)
        )
        # One block: its sweeps, in windows of one second of schedule, stand
        # in for blocks.  The schedule sets the rate, so that one stays raw.
        size = bench.block_sweeps
        slowdowns = [_slowdown(*w) for w in _windows(block.probes, size)]
        medians = [statistics.median(w) for w in _windows(block.latencies, size)]
        round_s = block.wall
    else:
        readings = [probe()]
        t0 = CLOCK()
        while (
            len(blocks) < SMOKE_BLOCKS if smoke else CLOCK() - t0 < seconds
        ):
            blocks.append(bench.block(idle))
            readings.append(probe())
        slowdowns = [_slowdown(*pair) for pair in zip(readings, readings[1:])]
        medians = [statistics.median(b.latencies) for b in blocks]
        round_s = statistics.median(
            b.wall / slow for b, slow in zip(blocks, slowdowns)
        )
    return {
        "kept_up": kept_up,
        "samples": sum(len(b.latencies) for b in blocks),
        "blocks": len(blocks),
        # as measured, so that any other statistic can be recomputed
        "block_walls": [b.wall for b in blocks],
        "block_latency_medians": medians,
        "block_slowdowns": slowdowns,
        "metrics": {
            "req_per_s": blocks[0].requests / round_s,
            "latency_p50_ms": statistics.median(
                m / slow for m, slow in zip(medians, slowdowns)
            ) * 1e3,
            "wire_bytes_per_req": sum(b.wire_bytes for b in blocks)
            / sum(b.requests for b in blocks),
        },
    }


# ----------------------------------------------------------------------
# traced
# ----------------------------------------------------------------------
class _WorkerDelta:
    """Worker and router stats of the traced blocks only.

    The public stats objects are cumulative, so a snapshot of their
    lengths after every block turns the next traced block into a slice.
    """

    def __init__(self, cluster):
        self.cluster = cluster
        self.flushes: Dict[str, list] = {}
        self.latencies: Dict[str, list] = {}
        self.router_latencies: List[float] = []
        self._seen: Dict[str, tuple] = {}
        self._router_seen = 0
        self.after_block(traced=False)

    def after_block(self, traced: bool) -> None:
        for wid, stats in self.cluster.worker_stats().items():
            f0, l0 = self._seen.get(wid, (0, 0))
            if traced:
                self.flushes.setdefault(wid, []).extend(stats.flushes[f0:])
                self.latencies.setdefault(wid, []).extend(stats.latencies[l0:])
            self._seen[wid] = (len(stats.flushes), len(stats.latencies))
        router = self.cluster.report.latencies
        if traced:
            self.router_latencies.extend(router[self._router_seen:])
        self._router_seen = len(router)


def _traced(bench, seconds: float, smoke: bool, encrypt_ms: float) -> dict:
    workload = bench.wl
    in_process = not workload.process_workers
    # kernels of process workers run in the children: nothing to time here
    tracer = Tracer(TimingBackend("numpy") if in_process else None)
    idle = Tracer()
    pairs = (
        SMOKE_BLOCKS if smoke
        else max(2, round(seconds * TRACE_FILL * workload.blocks_per_second))
    )
    delta = codec = None
    if workload.kind != "plan":
        delta = _WorkerDelta(bench.cluster)
        codec = CodecReplay(bench.ctx, workload.wire_version, workload.frame_version)
    plain: List[Block] = []
    traced: List[Block] = []
    for _ in range(pairs):
        plain.append(bench.block(idle))
        if delta:
            delta.after_block(traced=False)
        with tracer.tracing():
            traced.append(bench.block(tracer))
        if delta:
            delta.after_block(traced=True)
            codec.add(
                bench.last_requests[:REPLAY_FRAMES],
                bench.last_responses[:REPLAY_FRAMES],
            )
    wall = sum(b.busy for b in traced)
    # a metric that does not apply to this workload stays 0
    metrics = dict.fromkeys(declared().per_layer, 0.0)
    if workload.kind == "plan":
        rows = _plan_layers(bench, tracer, traced, metrics)
    else:
        rows = _serving_layers(bench, tracer, traced, delta, codec, metrics)
        metrics["setup.key_upload_bytes"] = bench.key_upload_bytes()
    if tracer.backend is not None:
        _backend_metrics(tracer.backend, wall, metrics)
    spans = sum(tracer.seconds.values())
    rows.append(("driver.unattributed", wall - spans))
    for key, value in bench.setup.items():
        metrics[f"setup.{key}"] = value
    metrics["setup.client_encrypt_ms_per_req"] = encrypt_ms
    metrics["driver.unattributed_share"] = (wall - spans) / wall
    # the tail of the untraced half: too unsteady on a shared box to gate
    metrics["driver.latency_p95_ms"] = (
        _pct([x for b in plain for x in b.latencies], 95) * 1e3
    )
    # each traced block against the untraced block run just before it:
    # neighbours in time share the machine's mood
    metrics["driver.trace_overhead_share"] = (
        statistics.median(t.busy / p.busy for t, p in zip(traced, plain)) - 1.0
    )
    served = sum(b.requests for b in traced)
    return {
        "metrics": metrics,
        "traced_blocks": pairs,
        "traced_requests": served,
        "traced_wall_s": wall,
        # layer, seconds, share of the traced wall, microseconds per request
        "table": [
            (layer, s, s / wall, s / served * 1e6) for layer, s in rows
        ],
    }


def _serving_layers(bench, tracer, traced, delta, codec, metrics) -> list:
    workload = bench.wl
    in_process = not workload.process_workers
    n = sum(b.requests for b in traced)
    wall = sum(b.busy for b in traced)

    def total(step: str) -> float:  # replayed seconds per call, over n requests
        return n * codec.us(step) * 1e-6

    receive_s = tracer.seconds["receive"]
    pump_s = tracer.seconds["pump"]
    flushes = [f for fs in delta.flushes.values() for f in fs]
    flush_by_worker = {
        wid: sum(f.seconds for f in fs) for wid, fs in delta.flushes.items()
    }
    flush_s = sum(flush_by_worker.values())
    served_by_worker = {
        wid: sum(f.batch_size for f in fs) for wid, fs in delta.flushes.items()
    }
    share_max = max(served_by_worker.values()) / sum(served_by_worker.values())
    worker_in = total("decode_forward") + total("deserialize")
    worker_out = total("serialize") + total("encode_response")
    router = total("decode_request") + total("encode_forward")
    if in_process:
        # everything runs on the driver's thread, inside its spans
        ingress_self = receive_s - router - worker_in
        egress_self = pump_s - flush_s - worker_out
    else:
        # worker-side work runs in the children while the driver waits in
        # poll_responses; only the busiest worker's share blocks the round
        ingress_self = receive_s - router
        egress_self = pump_s - share_max * (flush_s + worker_in + worker_out)

    waits = []
    for wid, fs in delta.flushes.items():
        latency = iter(delta.latencies[wid])
        for f in fs:
            # enqueue-to-response minus the flush itself = time spent waiting
            waits.extend(x - f.seconds for x, _ in zip(latency, range(f.batch_size)))
    report = bench.cluster.report
    decode_s = total("decode_request") + total("decode_forward")
    encode_s = total("encode_forward") + total("encode_response")
    metrics.update({
        "cluster.receive_s": receive_s,
        "cluster.pump_s": pump_s,
        "cluster.ingress_self_s": ingress_self,
        "cluster.egress_self_s": egress_self,
        "cluster.admit_to_collect_p50_ms": _pct(delta.router_latencies, 50) * 1e3,
        "cluster.submitted": report.submitted,
        "cluster.completed": report.completed,
        "cluster.shed": report.shed_requests,
        "cluster.expired": report.expired_requests,
        "cluster.dedup_hits": report.dedup_hits,
        "cluster.worker_share_max": share_max,
        "worker.flush_s_max": max(flush_by_worker.values()),
        "worker.busy_share": flush_s / wall,
        "framing.decode_s": decode_s,
        "framing.encode_s": encode_s,
        "framing.decode_us_per_frame": decode_s / (2 * n) * 1e6,
        "framing.encode_us_per_frame": encode_s / (2 * n) * 1e6,
        "framing.bytes_in": sum(b.bytes_in for b in traced),
        "framing.bytes_out": sum(b.bytes_out for b in traced),
        "serialization.deserialize_s": total("deserialize"),
        "serialization.serialize_s": total("serialize"),
        "serialization.deserialize_us_per_ct": codec.us("deserialize"),
        "serialization.serialize_us_per_ct": codec.us("serialize"),
        "batcher.flushes": len(flushes),
        "batcher.mean_batch_size": n / len(flushes),
        "batcher.singleton_share": sum(not f.batched for f in flushes) / len(flushes),
        "batcher.hoisted_flush_share": sum(f.op == "rotate_hoisted" for f in flushes)
        / len(flushes),
        "batcher.deadline_flush_share": sum(
            f.batch_size < bench.spec.max_batch_size for f in flushes
        ) / len(flushes),
        "batcher.enqueue_to_response_p50_ms": _pct(waits, 50) * 1e3,
        "server.flush_s": flush_s,
        "server.flush_ms_per_req": flush_s / n * 1e3,
    })
    if workload.kind == "open":
        metrics["driver.gen_late_p95_ms"] = (
            _pct([x for b in traced for x in b.late], 95) * 1e3
        )

    rows = [("cluster.ingress_self", ingress_self)]
    if in_process:
        kernels = _kernel_rows(tracer.backend, ("pump",))
        evaluator_self = flush_s - sum(s for _, s in kernels)
        metrics["evaluator.self_s"] = evaluator_self
        rows += [
            ("framing.decode", decode_s),
            ("framing.encode", encode_s),
            ("serialization.deserialize", total("deserialize")),
            ("serialization.serialize", total("serialize")),
            ("evaluator.self", evaluator_self),
            *kernels,
        ]
    else:
        rows += [
            ("framing (router side)", router),
            ("worker (busiest child: flush + codecs)",
             share_max * (flush_s + worker_in + worker_out)),
        ]
    rows += [
        ("cluster.egress_self", egress_self),
        ("cluster.take_outbox", tracer.seconds["take_outbox"]),
    ]
    return rows


def _plan_layers(bench, tracer, traced, metrics) -> list:
    run = bench.last_run
    kernels = _kernel_rows(tracer.backend, ("run", "compile"))
    run_s = tracer.seconds["run"]
    evaluator_self = run_s - sum(s for _, s in kernels)
    metrics.update({
        "plan.compile_ms_p50": _pct([b.parts["compile"] for b in traced], 50) * 1e3,
        "plan.execute_ms_p50": _pct([b.parts["run"] for b in traced], 50) * 1e3,
        "plan.steps": run.step_count,
        "plan.sweeps": run.sweeps,
        "plan.fused_rotations": run.fused_rotations,
        "plan.lanes": run.lanes,
        "plan.packed_ops": run.packed_ops,
        # simulated FPGA time of the same step stream, not a measurement
        "plan.hwsim_modeled_ms": modeled_replay(run, bench.ctx, "Set-B").seconds * 1e3,
        "evaluator.self_s": evaluator_self,
    })
    return [
        ("plan.compile", tracer.seconds["compile"]),
        ("evaluator.self", evaluator_self),
        *kernels,
    ]


def _kernel_rows(backend: TimingBackend, buckets) -> list:
    """Table rows of the kernel families that run inside a flush or plan
    run (bit-packing belongs to serialization, which already counts it)."""
    return [
        (f"backend.{family}", backend.family(family, buckets)[0])
        for family in FAMILIES
        if family != "bitpack"
    ]


def _backend_metrics(backend: TimingBackend, wall: float, metrics: dict) -> None:
    total = 0.0
    for family in FAMILIES:
        seconds, rows = backend.family(family)
        metrics[f"backend.{family}_s"] = seconds
        metrics[f"backend.{family}_rows"] = rows
        total += seconds
    ntt_s, ntt_rows = backend.family("ntt")
    metrics["backend.ntt_us_per_row"] = ntt_s / ntt_rows * 1e6 if ntt_rows else 0.0
    metrics["backend.conversion_rows"] = backend.inner.conversion_rows
    metrics["backend.share"] = total / wall
