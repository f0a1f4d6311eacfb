"""Thin pluggable array-backend protocol for the batched integral kernels.

The shell-class kernels in `repro.integrals.batch` are written against a
small `ArrayBackend` surface (an array namespace plus a handful of ops
that differ between ecosystems) so the same kernel source runs on CPU
(numpy), GPU (CuPy), or under JAX — where the functional table builders
additionally make the integrals differentiable for the autodiff
gradient cross-check used in tests.

Backends are resolved lazily: importing this module never imports jax
or cupy. Selection order is explicit argument > ``set_default_backend``
> the ``REPRO_BACKEND`` environment variable > numpy. Requesting an
uninstalled backend raises `BackendUnavailableError` with an
installation hint, so optional-dependency CI jobs can skip cleanly.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "ArrayBackend",
    "BackendUnavailableError",
    "available_backends",
    "get_backend",
    "set_default_backend",
]

#: environment variable consulted when no backend was selected explicitly
BACKEND_ENV = "REPRO_BACKEND"

_BACKEND_NAMES = ("numpy", "jax", "cupy")


class BackendUnavailableError(ImportError):
    """Requested array backend is not installed in this environment."""


class ArrayBackend:
    """One array ecosystem behind a uniform, minimal surface.

    Attributes:
        name: backend identifier ("numpy", "jax", "cupy").
        xp: the array namespace (numpy / jax.numpy / cupy). All dense
            math in the batched kernels goes through this.
        is_numpy: True for the default backend — kernels use this to
            pick in-place fast paths and fixed (``optimize=False``)
            einsum paths, which is what keeps them deterministic.
    """

    name = "numpy"
    is_numpy = True

    def __init__(self) -> None:
        self.xp = np

    # -- conversions ---------------------------------------------------
    def asarray(self, a):
        """Import a host array into the backend's namespace."""
        return self.xp.asarray(a)

    def to_numpy(self, a) -> np.ndarray:
        """Export a backend array to host numpy (no-op on numpy)."""
        return np.asarray(a)

    # -- ops with divergent spellings ----------------------------------
    def scatter_set(self, a, idx, vals):
        """``a[idx] = vals`` (functional on immutable-array backends)."""
        a[idx] = vals
        return a

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArrayBackend({self.name!r})"


class _JaxBackend(ArrayBackend):
    name = "jax"
    is_numpy = False

    def __init__(self) -> None:
        try:
            import jax
            import jax.numpy as jnp
        except ImportError as exc:  # pragma: no cover - env dependent
            raise BackendUnavailableError(
                "backend 'jax' requested but jax is not installed "
                "(pip install jax)"
            ) from exc
        # Integrals are meaningless in float32; insist on x64 tracing.
        jax.config.update("jax_enable_x64", True)
        self.xp = jnp
        self._jax = jax

    def to_numpy(self, a) -> np.ndarray:
        return np.asarray(a)

    def scatter_set(self, a, idx, vals):
        return a.at[idx].set(vals)


class _CupyBackend(ArrayBackend):
    name = "cupy"
    is_numpy = False

    def __init__(self) -> None:
        try:
            import cupy
        except ImportError as exc:  # pragma: no cover - env dependent
            raise BackendUnavailableError(
                "backend 'cupy' requested but cupy is not installed "
                "(pip install cupy-cuda12x or the wheel matching your CUDA)"
            ) from exc
        self.xp = cupy

    def to_numpy(self, a) -> np.ndarray:
        import cupy

        if isinstance(a, cupy.ndarray):
            return cupy.asnumpy(a)
        return np.asarray(a)

    def scatter_set(self, a, idx, vals):
        a[idx] = vals
        return a


_CONSTRUCTORS = {
    "numpy": ArrayBackend,
    "jax": _JaxBackend,
    "cupy": _CupyBackend,
}

#: memoized instances — backends are stateless, one per process suffices
_INSTANCES: dict[str, ArrayBackend] = {}

#: process-default backend name (None -> consult REPRO_BACKEND / numpy)
_DEFAULT: str | None = None


def _instantiate(name: str) -> ArrayBackend:
    be = _INSTANCES.get(name)
    if be is None:
        ctor = _CONSTRUCTORS.get(name)
        if ctor is None:
            raise ValueError(
                f"unknown backend {name!r}; choose from {_BACKEND_NAMES}"
            )
        be = ctor()
        _INSTANCES[name] = be
    return be


def get_backend(name: str | None = None) -> ArrayBackend:
    """Resolve an `ArrayBackend` by name (lazily, memoized).

    ``None`` means the process default: whatever `set_default_backend`
    chose, else ``$REPRO_BACKEND``, else numpy.
    """
    if name is None:
        name = _DEFAULT or os.environ.get(BACKEND_ENV, "").strip() or "numpy"
    return _instantiate(name.lower())


def set_default_backend(name: str | None) -> None:
    """Pin the process-default backend (``--backend`` lands here).

    ``None`` resets to environment/numpy resolution. The backend is
    instantiated eagerly so a missing optional dependency fails at
    selection time, not mid-calculation.
    """
    global _DEFAULT
    if name is None:
        _DEFAULT = None
        return
    _instantiate(name.lower())  # validate availability now
    _DEFAULT = name.lower()


def available_backends() -> list[str]:
    """Names of backends that can actually be instantiated here."""
    out = []
    for name in _BACKEND_NAMES:
        try:
            _instantiate(name)
        except (BackendUnavailableError, ImportError):
            continue
        out.append(name)
    return out
