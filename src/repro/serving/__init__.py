"""Multi-client encrypted-compute serving (the Section 5.2 deployment).

The paper's system chapter describes an accelerator fed by *streams of
independent client ciphertexts*, amortizing its pipelines across
ciphertext-level parallelism.  ``repro.serving`` is the host-side layer
that makes such streams executable batch-wise:

* :mod:`repro.serving.framing` -- length-prefixed wire protocol over
  :mod:`repro.ckks.serialization` (streamable, strictly validated);
* :mod:`repro.serving.session` -- per-client sessions with cached
  relinearization/Galois keys (the DRAM-resident operands of §5.1);
* :mod:`repro.serving.queue` -- bounded admission queue, backpressure
  as ERROR responses instead of unbounded buffering;
* :mod:`repro.serving.batcher` -- homogeneity-aware dynamic batcher:
  a lane is a key pair and a shape (the op is per-request data),
  flushed on max-batch-size or deadline;
* :mod:`repro.serving.server` -- :class:`EncryptedComputeServer`, which
  executes every flush as one :class:`repro.plan.PlanGraph` on a
  :class:`repro.plan.PlanExecutor` (the only road from this package to
  the evaluator) and records it as a measured
  :class:`repro.system.scheduler.ScheduledOp` for the Figure-7
  host-pipeline simulation;
* :mod:`repro.serving.traffic` -- deterministic synthetic multi-client
  traffic for tests and benchmarks;
* :mod:`repro.serving.worker` -- one sharded-serving worker: an
  ``EncryptedComputeServer`` of its own behind a transport handle,
  in-process or as a real OS process behind a pipe;
* :mod:`repro.serving.cluster` -- the multi-worker front-door:
  consistent-hash placement on ``key_id``, cluster-wide load shedding,
  graceful drain and crash failover, idempotent-retry dedup and
  deadline admission, plus the asyncio socket layer;
* :mod:`repro.serving.supervisor` -- the reliability layer above the
  router: heartbeat probing, auto-restart with seeded exponential
  backoff, and a circuit breaker quarantining flapping workers.

``benchmarks/bench_serving_throughput.py`` gates the point of the
layer: dynamically batched serving must deliver >= 2x the per-request
throughput of sequential scalar service, bit-identically;
``benchmarks/bench_serving_scale.py`` gates the sharded front-door the
same way across worker counts.
"""

from repro.serving.batcher import BatchGroup, DynamicBatcher, homogeneity_key
from repro.serving.clock import SYSTEM_CLOCK, Clock, ExponentialBackoff, ManualClock
from repro.serving.cluster import (
    AsyncFrontDoor,
    ClusterReport,
    HashRing,
    NoWorkersError,
    ServingCluster,
    UnknownWorkerError,
    WorkerStateError,
)
from repro.serving.framing import (
    ERR_DEADLINE,
    ERR_FATAL,
    ERR_RETRYABLE,
    ERROR,
    FRAME_V2,
    FRAME_VERSION,
    HELLO,
    LATEST_FRAME_VERSION,
    REQUEST,
    RESPONSE,
    Frame,
    FrameDecoder,
    StreamProtocolError,
    decode_frame,
    encode_frame,
    error_class,
    is_retryable_error,
    peek_frame_ids,
    peek_frame_summary,
)
from repro.serving.queue import PendingRequest, RequestQueue
from repro.serving.server import (
    SUPPORTED_OPS,
    EncryptedComputeServer,
    FlushRecord,
    ServingReport,
)
from repro.serving.session import ClientSession, SessionManager, UnknownClientError
from repro.serving.supervisor import HeartbeatSupervisor, WorkerHealthView
from repro.serving.traffic import (
    ResilientClient,
    SyntheticClient,
    SyntheticTenant,
    multi_tenant_traffic,
    synthetic_traffic,
)
from repro.serving.worker import (
    LocalWorkerHandle,
    ProcessWorkerHandle,
    WorkerDeadError,
    WorkerHandle,
    WorkerSpec,
)

__all__ = [
    "AsyncFrontDoor",
    "BatchGroup",
    "ClientSession",
    "Clock",
    "ClusterReport",
    "DynamicBatcher",
    "ERR_DEADLINE",
    "ERR_FATAL",
    "ERR_RETRYABLE",
    "ERROR",
    "EncryptedComputeServer",
    "ExponentialBackoff",
    "FRAME_V2",
    "FRAME_VERSION",
    "FlushRecord",
    "Frame",
    "FrameDecoder",
    "HELLO",
    "HashRing",
    "HeartbeatSupervisor",
    "LATEST_FRAME_VERSION",
    "LocalWorkerHandle",
    "ManualClock",
    "NoWorkersError",
    "PendingRequest",
    "ProcessWorkerHandle",
    "REQUEST",
    "RESPONSE",
    "RequestQueue",
    "ResilientClient",
    "SYSTEM_CLOCK",
    "ServingCluster",
    "ServingReport",
    "SessionManager",
    "StreamProtocolError",
    "SUPPORTED_OPS",
    "SyntheticClient",
    "SyntheticTenant",
    "UnknownClientError",
    "UnknownWorkerError",
    "WorkerDeadError",
    "WorkerHandle",
    "WorkerHealthView",
    "WorkerSpec",
    "WorkerStateError",
    "decode_frame",
    "encode_frame",
    "error_class",
    "homogeneity_key",
    "is_retryable_error",
    "multi_tenant_traffic",
    "peek_frame_ids",
    "peek_frame_summary",
    "synthetic_traffic",
]
