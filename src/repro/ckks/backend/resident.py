"""Resident results: every result matrix is a view of a recycled slab.

HEAX never allocates -- every ciphertext streams through the same
on-chip banks (the BRAM-resident operands and the f1/f2 buffers of
Sections 4-5).  The software stand-in asked the OS for each kernel's
``(R, n)`` result and handed it back microseconds later; glibc trims
the heap top and faults it in again under every flush (about 200 minor
faults a served Set-A square).  :func:`new` is the one source of result
and staging matrices instead: a view of a flat ``uint64`` *slab* the
calling thread keeps.

**Safe by construction, no release call.**  NumPy collapses a view's
``base`` to the array that owns the memory, so every view, row,
``split()`` element, ``memoryview`` or pickle buffer of a result holds a
reference to its slab, in whichever thread it lives.  A slab is reissued
exactly when nothing but the recycler's own list references it:
``sys.getrefcount`` reads the idle count that :func:`_calibrate`
measured at import with the expression the scan uses.  A count can only
be raised through a reference that is already counted, so a slab seen
idle stays idle until it is reissued; a reference dropped late (a cycle
awaiting the collector) only delays reuse.  Where the calibration does
not hold (an interpreter that does not count references) every call is
``np.empty``.

**Bound, a function of the traffic alone.**  Slabs come in four size
classes to an octave (at most a fifth of a slab is slack, and a tail no
result touches is never paged in), each scanned most recently issued
first (cache-warm).  A class grows only when every slab in it is
referenced, so it never holds more slabs than were live at once; and a
slab that a whole *epoch* of ``_EPOCH`` issues passes without issuing
leaves, so what a thread holds is what its last two epochs of traffic
kept live -- never a setting, never history.  A slab pinned by a
long-lived result (a stacked key operand) is not reissued and leaves the
same way: it then belongs to its holder alone, as any array does.
"""

from __future__ import annotations

import sys
import threading
from math import prod

import numpy as np

#: Issues in an epoch (see the module docstring): several times what the
#: widest served round or planned matvec issues, so that a steady
#: workload reissues every slab it needs within one.
_EPOCH = 4096

_U64 = np.dtype(np.uint64)


def _calibrate():
    """``getrefcount`` of a slab only its class list holds, or ``None``
    when a view does not raise it by exactly one and release it again."""
    slabs = [np.empty(1, dtype=_U64)]
    idle = sys.getrefcount(slabs[0])
    view = slabs[0][:1].reshape(1, 1)
    held = sys.getrefcount(slabs[0])
    del view
    return idle if (held, sys.getrefcount(slabs[0])) == (idle + 1, idle) else None


_IDLE = _calibrate()


class _Recycler:
    """One thread's slabs: ``classes[size]`` is ``[young, slabs]``, the
    slabs of ``size`` words most recently issued first and how many of
    them were issued in this epoch; ``fresh`` counts allocations."""

    __slots__ = ("classes", "issued", "fresh")

    def __init__(self):
        self.classes = {}
        self.issued = 0
        self.fresh = 0

    def sweep(self) -> None:
        """Close an epoch: what was not issued during it leaves."""
        for size, entry in list(self.classes.items()):
            del entry[1][entry[0] :]
            entry[0] = 0
            if not entry[1]:
                del self.classes[size]
        self.issued = 0


_LOCAL = threading.local()


def recycler() -> _Recycler:
    """The calling thread's recycler."""
    try:
        return _LOCAL.recycler
    except AttributeError:
        _LOCAL.recycler = _Recycler()
        return _LOCAL.recycler


def new(shape, dtype=_U64) -> np.ndarray:
    """An uninitialized C-contiguous ``shape`` array of ``dtype`` (a
    ``np.dtype``) that aliases no live array."""
    if _IDLE is None:
        return np.empty(shape, dtype)
    mine = recycler()
    words = (prod(shape) * dtype.itemsize + 7) >> 3
    step = 1 << max((words - 1).bit_length() - 3, 0)
    size = -(-words // step) * step
    entry = mine.classes.get(size)
    if entry is None:
        entry = mine.classes[size] = [0, []]
    slabs = entry[1]
    for i in range(len(slabs)):
        if sys.getrefcount(slabs[i]) == _IDLE:
            break
    else:
        i = len(slabs)
        slabs.append(np.empty(size, dtype=_U64))
        mine.fresh += 1
    if i >= entry[0]:
        entry[0] += 1
    if i:
        slabs.insert(0, slabs.pop(i))
    mine.issued += 1
    if mine.issued >= _EPOCH:
        mine.sweep()
    return np.ndarray(shape, dtype, slabs[0])
