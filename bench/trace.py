"""Outside-only tracing: driver spans, a timing backend, codec replays.

Nothing here reaches into ``src/``: the benchmark measures the layers
from the boundary it can see.

* :class:`Tracer` sums driver spans taken around the public entry points
  (``ServingCluster.receive`` / ``pump`` / ``take_outbox``,
  ``compile_plan`` / ``PlanExecutor.run``).  It is inert until
  :meth:`Tracer.tracing` switches it on, so the end-to-end run pays one
  attribute test per span.
* :class:`TimingBackend` is a delegating ``PolynomialBackend`` (the
  ``CountingBackend`` pattern) that records seconds and rows per kernel
  family, bucketed by the driver span that was open.  Contexts built
  with ``backend=None`` follow the process-wide backend at call time, so
  ``use_backend(TimingBackend())`` around a traced block is enough for
  in-process workers to inherit it.
* :class:`CodecReplay` times the public framing / serialization
  functions over the very blobs a run produced.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.ckks.backend import CountingBackend, PolynomialBackend, use_backend
from repro.ckks.serialization import deserialize_ciphertext, serialize_ciphertext
from repro.serving import framing

CLOCK = time.perf_counter

#: What :func:`probe` reads on the box the benchmark was sized on while its
#: neighbours are quiet (CPython 3.11, numpy 2.4).  It only fixes the unit:
#: every timing of every commit is scaled by the same constant.
PROBE_QUIET_S = 1.3e-3
_PROBE_ROW = np.arange(4096, dtype=np.uint64)


def probe() -> float:
    """Seconds a fixed loop of interpreter and small-array work takes now.

    The shared vCPUs of the sandbox run 1.3-1.7x slower for seconds to
    minutes at a time (see "Noise" in bench/README.md), and everything
    slows with them.  ``probe() / PROBE_QUIET_S``, read beside a block,
    is how much slower the box was running than when it is undisturbed.
    """
    t0 = CLOCK()
    row = _PROBE_ROW
    for _ in range(20):
        row = (row * 3 + 1) & 0xFFFFFFF
    total = 0
    for i in range(20000):
        total += i * i
    return CLOCK() - t0

#: Kernel families reported as ``backend.<family>_s`` / ``_rows``.
FAMILIES = ("ntt", "dyadic", "decompose", "galois", "addsub", "bitpack", "handle")


def _one(args) -> int:
    return 1


def _len(i: int) -> Callable:
    return lambda args: len(args[i])


def _arg(i: int) -> Callable:
    return lambda args: args[i]


#: kernel name -> (family, rows processed by one call given its positional
#: args).  Rows follow ``CountingBackend``: a stacked call over R rows counts R.
KERNELS: Dict[str, tuple] = {}
for _family, _rows, _names in (
    ("ntt", _one, "ntt_forward ntt_inverse"),
    ("ntt", _len(0), "ntt_forward_rows ntt_inverse_rows"),
    ("ntt", _len(1), "ntt_forward_stack ntt_inverse_stack"),
    ("dyadic", _one, "dyadic_mul dyadic_mac"),
    ("dyadic", _len(0), "dyadic_mul_rows dyadic_mac_rows"),
    ("dyadic", _len(1), "dyadic_mul_stack dyadic_mac_stack dyadic_stack_reduce"),
    ("decompose", _len(0), "decompose decompose_native"),
    ("galois", _len(0), "galois_rows permute_ntt_stack"),
    ("galois", _len(1), "apply_galois_stack"),
    ("addsub", _one, "add sub negate scalar_mul scalar_mac reduce_mod"),
    ("addsub", _len(0), "add_rows sub_rows negate_rows scalar_mul_rows"),
    ("addsub", _len(1),
     "add_stack sub_stack negate_stack scalar_mul_stack reduce_mod_stack"),
    ("bitpack", _len(0), "pack_rows pack_rows_bits"),
    ("bitpack", _arg(1), "unpack_rows"),
    ("bitpack", _len(2), "unpack_rows_bits"),
    ("handle", _one, "get_row set_row insert_row"),
    ("handle", _arg(0), "make_rows"),
    ("handle", _len(0), "from_rows to_rows copy_rows native_stack"),
    ("handle", _len(1), "select_rows"),
):
    for _name in _names.split():
        KERNELS[_name] = (_family, _rows)
del _family, _rows, _names, _name


def _timed(name: str, family: str, rows: Callable) -> Callable:
    def kernel(self, *args):
        t0 = CLOCK()
        try:
            return getattr(self.inner, name)(*args)
        finally:
            if self.bucket is not None:
                cell = self.totals[self.bucket, family]
                cell[0] += CLOCK() - t0
                cell[1] += rows(args)

    kernel.__name__ = name
    return kernel


class TimingBackend(PolynomialBackend):
    """Delegates every kernel, recording seconds and rows per family.

    The inner backend is a ``CountingBackend`` so the residency budget
    (``conversion_rows``, expected 0) comes from the repo's own counter.
    Inner kernels that call each other do so on the inner instance, so
    a recorded call is never nested inside another recorded call.
    """

    name = "timing"

    def __init__(self, inner="numpy"):
        self.inner = CountingBackend(inner)
        #: name of the driver span currently open (set by :class:`Tracer`);
        #: work outside every span -- the benchmark's own decrypt checks --
        #: is not recorded
        self.bucket: Optional[str] = None
        #: (bucket, family) -> [seconds, rows]
        self.totals: Dict[tuple, list] = defaultdict(lambda: [0.0, 0])

    @property
    def cache_token(self) -> str:
        return f"timing:{self.inner.cache_token}"

    @property
    def native_is_python(self) -> bool:  # type: ignore[override]
        return self.inner.native_is_python

    def family(self, family: str, buckets: Optional[Sequence[str]] = None):
        """``(seconds, rows)`` of one family, over the named buckets (all
        when omitted)."""
        seconds, rows = 0.0, 0
        for (bucket, fam), cell in self.totals.items():
            if fam == family and (buckets is None or bucket in buckets):
                seconds += cell[0]
                rows += cell[1]
        return seconds, rows

    for _name, (_family, _rows) in KERNELS.items():
        vars()[_name] = _timed(_name, _family, _rows)
    del _name, _family, _rows


class Tracer:
    """Sums driver spans by name; switched on only inside :meth:`tracing`."""

    def __init__(self, backend: Optional[TimingBackend] = None):
        self.backend = backend
        self.on = False
        self.seconds: Dict[str, float] = defaultdict(float)

    @contextmanager
    def span(self, name: str):
        if not self.on:
            yield
            return
        if self.backend is not None:
            self.backend.bucket = name
        t0 = CLOCK()
        try:
            yield
        finally:
            self.seconds[name] += CLOCK() - t0
            if self.backend is not None:
                self.backend.bucket = None

    @contextmanager
    def tracing(self):
        """Record spans, with the timing backend active, for one block."""
        with ExitStack() as stack:
            if self.backend is not None:
                stack.enter_context(use_backend(self.backend))
            self.on = True
            try:
                yield
            finally:
                self.on = False


class CodecReplay:
    """Times each codec step one request passes, over frames a run produced.

    Fed a few frames after every traced block, so the replays see the
    same machine conditions as the spans they are subtracted from (one
    burst at the end of the run read up to 2x slower than the run itself
    on a shared box).  ``context`` must follow the plain backend.  The
    forward hop is not visible from outside, so it is rebuilt the way
    the router documents it: deadline-less requests re-encode at frame v1.
    """

    STEPS = (
        "decode_request", "encode_forward", "decode_forward", "deserialize",
        "serialize", "encode_response",
    )

    def __init__(self, context, wire_version: int, frame_version: int):
        self.context = context
        self.wire_version = wire_version
        self.frame_version = frame_version
        self.seconds: Dict[str, float] = dict.fromkeys(self.STEPS, 0.0)
        self.calls = 0

    def _timed(self, step: str, fn: Callable, items: Sequence) -> list:
        t0 = CLOCK()
        out = [fn(item) for item in items]
        self.seconds[step] += CLOCK() - t0
        return out

    def _forward(self, frame) -> bytes:
        return framing.encode_frame(
            frame.kind, frame.request_id, frame.client_id, op=frame.op,
            op_arg=frame.op_arg, payload=frame.payload, deadline=frame.deadline,
            frame_version=framing.FRAME_V2 if frame.deadline else framing.FRAME_VERSION,
        )

    def add(self, requests: Sequence[bytes], responses: Sequence[bytes]) -> None:
        """Replay the same number of request and response frames."""
        decoded = self._timed("decode_request", framing.decode_frame, requests)
        forwarded = self._timed("encode_forward", self._forward, decoded)
        self._timed("decode_forward", framing.decode_frame, forwarded)
        self._timed(
            "deserialize",
            lambda f: deserialize_ciphertext(f.payload, self.context), decoded,
        )
        answered = [framing.decode_frame(b) for b in responses]
        results = [deserialize_ciphertext(f.payload, self.context) for f in answered]
        self._timed(
            "serialize",
            lambda ct: serialize_ciphertext(ct, version=self.wire_version), results,
        )
        self._timed(
            "encode_response",
            lambda f: framing.encode_frame(
                framing.RESPONSE, f.request_id, f.client_id, op=f.op,
                op_arg=f.op_arg, payload=f.payload,
                frame_version=self.frame_version,
            ),
            answered,
        )
        self.calls += len(requests)

    def us(self, step: str) -> float:
        """Mean microseconds per call of one step."""
        return self.seconds[step] / self.calls * 1e6
