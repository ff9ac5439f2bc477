"""Pluggable polynomial-arithmetic backends and their registry.

The CKKS stack routes every residue-row kernel (NTT/INTT, dyadic ops,
scalar ops, RNS base conversion) through a process-wide *active backend*:

* ``reference`` -- the original per-coefficient pure-Python loops,
  kept as the bit-exact ground truth.
* ``numpy`` -- uint64 stage-vectorized kernels (the default).

Selection, in priority order:

1. Explicit code: ``set_backend("reference")`` or the ``use_backend``
   context manager (tests use this to compare backends side by side).
2. The ``REPRO_BACKEND`` environment variable, read once at first use::

       REPRO_BACKEND=reference python examples/quickstart.py

3. The default: ``numpy``.

A :class:`repro.ckks.context.CkksContext` may also pin its own backend
(``CkksContext(params, backend="reference")``), overriding the global
choice for every operation routed through that context.

Backends are interchangeable by contract -- identical inputs must yield
identical rows -- so switching is a pure performance decision.
"""

from __future__ import annotations

import contextlib
import os
from typing import Dict, List, Optional, Union

from repro.ckks.backend.base import PolynomialBackend
from repro.ckks.backend.numpy_backend import NumpyBackend
from repro.ckks.backend.reference import ReferenceBackend

#: Environment variable consulted for the initial backend choice.
BACKEND_ENV_VAR = "REPRO_BACKEND"

_REGISTRY: Dict[str, type] = {
    ReferenceBackend.name: ReferenceBackend,
    NumpyBackend.name: NumpyBackend,
}
_DEFAULT_NAME = NumpyBackend.name

_active: Optional[PolynomialBackend] = None


def available_backends() -> List[str]:
    """Names of the backends this process can instantiate."""
    return sorted(_REGISTRY)


def create_backend(name: str) -> PolynomialBackend:
    """Instantiate a registered backend by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        ) from None
    return cls()


def resolve_backend(
    backend: Union[PolynomialBackend, str, None]
) -> PolynomialBackend:
    """Normalize a backend spec (instance, name, or None-for-active)."""
    if backend is None:
        return get_backend()
    if isinstance(backend, PolynomialBackend):
        return backend
    return create_backend(backend)


def default_backend_name() -> str:
    """The startup choice: ``REPRO_BACKEND`` if set, else ``numpy``."""
    name = os.environ.get(BACKEND_ENV_VAR)
    if not name:
        return _DEFAULT_NAME
    if name not in _REGISTRY:
        raise ValueError(
            f"{BACKEND_ENV_VAR}={name!r} names an unknown backend; "
            f"available: {', '.join(available_backends())}"
        )
    return name


def get_backend() -> PolynomialBackend:
    """The process-wide active backend (created lazily on first use)."""
    global _active
    if _active is None:
        _active = create_backend(default_backend_name())
    return _active


def set_backend(backend: Union[PolynomialBackend, str]) -> PolynomialBackend:
    """Replace the process-wide active backend; returns the new instance."""
    global _active
    if isinstance(backend, str):
        backend = create_backend(backend)
    if not isinstance(backend, PolynomialBackend):
        raise TypeError("backend must be a PolynomialBackend or a registered name")
    _active = backend
    return _active


@contextlib.contextmanager
def use_backend(backend: Union[PolynomialBackend, str]):
    """Temporarily activate a backend (restores the previous one on exit)."""
    global _active
    previous = _active
    set_backend(backend)
    try:
        yield _active
    finally:
        _active = previous


from repro.ckks.backend.counting import CountingBackend  # noqa: E402

__all__ = [
    "BACKEND_ENV_VAR",
    "CountingBackend",
    "NumpyBackend",
    "PolynomialBackend",
    "ReferenceBackend",
    "available_backends",
    "create_backend",
    "resolve_backend",
    "default_backend_name",
    "get_backend",
    "set_backend",
    "use_backend",
]
