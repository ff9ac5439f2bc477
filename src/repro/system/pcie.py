"""PCIe transfer model (Section 5.2, "Data Transfer on PCIe").

The paper's three-step DMA flow (memcpy to pinned pages, doorbell, device
read) means achieved throughput depends on message size and on how many
transfers are in flight; HEAX therefore (i) ships at least one complete
polynomial per request (2^15 - 2^17 bytes) and (ii) interleaves eight
polynomials on eight threads.

The model captures both effects with a standard latency/bandwidth curve:
``time(bytes) = setup + bytes / peak`` per request, with up to
``max_threads`` requests overlapping, so the *effective* throughput
approaches the peak as messages grow -- quantitatively matching the
paper's design choices (a 2^16-byte polynomial at 8 threads sustains
>90% of peak; 4 KiB messages sustain <40%).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PcieModel:
    """One PCIe direction with a setup-plus-streaming cost model."""

    peak_bytes_per_sec: float
    #: Per-request DMA setup cost (doorbell + descriptor + memcpy amortization).
    setup_seconds = 5e-6
    #: The paper's interleaving width.
    max_threads = 8

    def request_time(self, message_bytes: int) -> float:
        """Wall time of a single DMA request."""
        if message_bytes <= 0:
            raise ValueError("message must be non-empty")
        return self.setup_seconds + message_bytes / self.peak_bytes_per_sec

    def transfer_time(self, total_bytes: int, message_bytes: int, threads: int = None) -> float:
        """Time to move ``total_bytes`` split into ``message_bytes`` requests
        across ``threads`` concurrent streams.

        Setup costs overlap across threads; the wire is shared, so the
        streaming component is bandwidth-bound.
        """
        if threads is None:
            threads = self.max_threads
        if threads < 1:
            raise ValueError("need at least one thread")
        threads = min(threads, self.max_threads)
        requests = -(-total_bytes // message_bytes)
        setup_serial = -(-requests // threads) * self.setup_seconds
        stream = total_bytes / self.peak_bytes_per_sec
        return max(setup_serial, stream) + self.setup_seconds

    def effective_bandwidth(self, message_bytes: int, threads: int = None) -> float:
        """Achieved bytes/second for a long train of equal messages."""
        threads = min(threads or self.max_threads, self.max_threads)
        per_thread_rate = message_bytes / self.request_time(message_bytes)
        return min(per_thread_rate * threads, self.peak_bytes_per_sec)

    def utilization(self, message_bytes: int, threads: int = None) -> float:
        """Fraction of peak achieved at this message size / thread count."""
        return self.effective_bandwidth(message_bytes, threads) / self.peak_bytes_per_sec


def polynomial_bytes(n: int) -> int:
    """Wire size of one RNS residue polynomial (64-bit words on PCIe)."""
    return n * 8
