"""Pluggable registry of band-sweep scheduling strategies.

:func:`repro.core.solver.solve` chooses its driver through this registry
rather than a hard-coded ``if/elif`` chain, so adding a backend needs no
dispatcher edit.  Each strategy is a :class:`StrategySpec` mapping a name
to a driver with the uniform signature

``driver(model, *, num_threads, representation, omega_min, omega_max,
options) -> SolveResult``

New backends (remote executors, async drivers, ...) plug in
with :func:`register_strategy` and become immediately available to the
solver, :class:`~repro.core.config.RunConfig` validation, the
:class:`~repro.api.Macromodel` facade, and the CLI ``--strategy`` flag —
no dispatcher edits required::

    from repro.core.registry import register_strategy

    @register_strategy("mybackend", description="my experimental driver")
    def _mybackend(model, *, num_threads, representation, omega_min,
                   omega_max, options):
        ...

The built-in ``bisection`` / ``queue`` / ``static`` / ``process``
strategies are themselves registered through the same mechanism at the
bottom of this module, each as the one sweep loop of
:mod:`repro.core.sweep` under its own name, and so is ``dense``, the
full eigensolution of :mod:`repro.core.dense`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional, Tuple

from repro.utils.validation import ensure_choice, ensure_positive_int

__all__ = [
    "AUTO_DESCRIPTION",
    "BACKENDS",
    "DENSE_MAX_ORDER",
    "StrategySpec",
    "register_strategy",
    "unregister_strategy",
    "resolve_strategy",
    "get_strategy",
    "available_strategies",
    "ensure_strategy",
    "ensure_backend",
    "AUTO_STRATEGY",
    "AUTO_BACKEND",
]

#: Pseudo-strategy resolved at dispatch time from the thread count,
#: the backend and the model order.
AUTO_STRATEGY = "auto"

#: Pseudo-backend meaning "whatever the strategy implies".
AUTO_BACKEND = "auto"

#: Execution backends a driver can run on.  ``"serial"`` — one worker in
#: the calling thread; ``"thread"`` — a thread pool sharing one GIL (BLAS
#: kernels overlap); ``"process"`` — a multiprocessing pool with true
#: multi-core scaling.  ``"auto"`` defers to the strategy resolution.
BACKENDS = (AUTO_BACKEND, "serial", "thread", "process")

#: Model order from which ``"auto"`` sweeps instead of solving densely.
#: Below it, one dense eigensolution of the ``2n x 2n`` Hamiltonian beats
#: the serial bisection sweep, or with BLAS pinned to one thread stays
#: within 15% of it.  Measured on a shared 2-core x86-64 VM, BLAS pinned
#: to one thread, ``random_simo_macromodel(n, p, seed=5,
#: sigma_target=1.05)`` at default options, seconds for dense / bisection
#: (best of 3 up to n = 1200, one run above; runs of one row spread up to
#: 1.6x; both found the same crossings on every row):
#:
#: ======  =============  ==============
#:   n      p = 4          p = 20
#: ======  =============  ==============
#:     48  0.004 / 0.097  --
#:    150  --             0.041 / 0.340
#:    200  0.088 / 0.729  --
#:    300  --             0.215 / 0.933
#:    400  0.315 / 0.934  --
#:    600  0.996 / 1.487  0.836 / 1.945
#:    800  2.26 / 3.43    2.20 / 2.87
#:   1000  3.09 / 3.78    3.22 / 3.91
#:   1200  5.77 / 5.33    6.17 / 6.45
#:   1300  9.09 / 6.22    8.32 / 6.54
#:   1400  9.71 / 8.00    10.9 / 8.22
#:   1500  13.8 / 9.37    15.1 / 12.1
#: ======  =============  ==============
#:
#: On this family dense wins below n ~ 1150 at p = 4 and below n ~ 1200
#: at p = 20.  Two more families, seed 5: ``random_macromodel``
#: common-pole models (the shape vector fitting returns) and
#: ``transmission_line_model`` combs.  Cells are dense / bisection time
#: ratios at p = 4 / p = 20.  Pinned: best of 3 interleaved runs, one run
#: at n = 1400 (the table above for its family).  Unpinned: both OpenBLAS
#: copies on their default 2 threads, as the CLI, batch runner and
#: service run; best of 2 up to n = 1000, one run above:
#:
#: =====  =========  =========  =========  =========  =========  =========
#:        table family          common-pole           comb
#: -----  --------------------  --------------------  --------------------
#:   n    pinned     unpinned   pinned     unpinned   pinned     unpinned
#: =====  =========  =========  =========  =========  =========  =========
#:   800  0.58/0.55  0.53/0.40  0.66/0.75  0.55/0.58  0.59/0.88  0.42/0.68
#:  1000  0.87/0.78  0.64/0.55  0.94/1.14  0.67/0.89  0.87/1.04  0.56/0.77
#:  1200  1.18/1.01  0.86/0.67  1.36/1.15  0.90/0.84  1.10/1.45  0.72/0.98
#:  1400  1.21/1.33  1.06/0.89  1.45/1.43  1.10/1.09  1.26/1.72  0.94/1.14
#: =====  =========  =========  =========  =========  =========  =========
#:
#: Pinned, the other two families cross near n = 1000 at p = 20, so just
#: below the constant dense can take up to 14% longer than the sweep.
#: Unpinned, dense wins every row up to n = 1200, so 1000 keeps a margin
#: there.  Not measured: hosts with more cores, and several workers
#: sharing the cores.  Memory: at n = 999 the Hamiltonian alone is a
#: 1998 x 1998 float64 matrix (32 MB); LAPACK works on a Fortran-ordered
#: copy of it, and the solve peaks at 73 MB of numpy allocations.  Not a
#: knob: an explicit strategy, backend or thread count picks a sweep.
DENSE_MAX_ORDER = 1000

#: Human-readable statement of the ``"auto"`` resolution rule; keep in
#: sync with :func:`resolve_strategy` (single source for UIs to print).
AUTO_DESCRIPTION = (
    f"dense below order {DENSE_MAX_ORDER} with one thread and backend=auto,"
    " else bisection when single-threaded, queue otherwise;"
    " backend=serial/thread/process forces bisection/queue/process"
)

_REGISTRY: Dict[str, "StrategySpec"] = {}


@dataclass(frozen=True)
class StrategySpec:
    """One registered scheduling strategy.

    Attributes
    ----------
    name:
        Canonical registry key (the user-facing ``strategy=`` string).
    driver:
        Callable with the uniform driver signature (see module docstring).
    min_threads, max_threads:
        Inclusive thread-count bounds the driver supports;
        ``max_threads=None`` means unbounded.  ``max_threads=1`` marks an
        inherently sequential driver.
    backends:
        Execution backends the driver can honor (subset of
        :data:`BACKENDS` minus ``"auto"``).  Used by
        :func:`resolve_strategy` to steer ``strategy="auto"`` and to
        reject contradictory explicit combinations such as
        ``strategy="bisection", backend="process"``.
    description:
        One-line human-readable description (shown by the CLI).
    """

    name: str
    driver: Callable
    min_threads: int = 1
    max_threads: Optional[int] = None
    backends: Tuple[str, ...] = ("serial", "thread")
    description: str = ""

    def supports_threads(self, num_threads: int) -> bool:
        """True when the driver accepts ``num_threads`` workers."""
        if num_threads < self.min_threads:
            return False
        return self.max_threads is None or num_threads <= self.max_threads

    def supports_backend(self, backend: str) -> bool:
        """True when the driver can honor ``backend`` (``"auto"`` always)."""
        return backend == AUTO_BACKEND or backend in self.backends

    def check_backend(self, backend: str) -> None:
        """Raise :class:`ValueError` when ``backend`` is unsupported."""
        if self.supports_backend(backend):
            return
        raise ValueError(
            f"strategy {self.name!r} runs on backend(s)"
            f" {'/'.join(self.backends)}, not {backend!r};"
            " leave backend='auto' or pick a matching strategy"
        )

    def check_threads(self, num_threads: int) -> None:
        """Raise :class:`ValueError` when the thread count is unsupported."""
        if self.supports_threads(num_threads):
            return
        if self.max_threads == 1:
            raise ValueError(
                f"the {self.name!r} strategy is inherently sequential;"
                " use strategy='queue' for multi-threaded sweeps"
            )
        bounds = f">= {self.min_threads}"
        if self.max_threads is not None:
            bounds += f" and <= {self.max_threads}"
        raise ValueError(
            f"strategy {self.name!r} requires num_threads {bounds},"
            f" got {num_threads}"
        )


def register_strategy(
    name: str,
    *,
    min_threads: int = 1,
    max_threads: Optional[int] = None,
    backends: Tuple[str, ...] = ("serial", "thread"),
    description: str = "",
) -> Callable[[Callable], Callable]:
    """Decorator registering a sweep driver under ``name``.

    The decorated callable must follow the uniform driver signature and is
    returned unchanged, so it stays directly importable and testable.

    Raises
    ------
    ValueError
        If ``name`` is already taken (including the reserved ``"auto"``).
    """
    if not isinstance(name, str) or not name:
        raise TypeError("strategy name must be a non-empty string")

    if not backends or not set(backends) <= set(BACKENDS[1:]):
        raise ValueError(
            f"backends must be a non-empty subset of"
            f" {BACKENDS[1:]}, got {backends}"
        )

    def decorator(func: Callable) -> Callable:
        if name == AUTO_STRATEGY or name in _REGISTRY:
            raise ValueError(f"strategy {name!r} is already registered")
        _REGISTRY[name] = StrategySpec(
            name=name,
            driver=func,
            min_threads=min_threads,
            max_threads=max_threads,
            backends=tuple(backends),
            description=description,
        )
        return func

    return decorator


def unregister_strategy(name: str) -> None:
    """Remove a strategy (primarily for tests of the plugin mechanism)."""
    _REGISTRY.pop(name, None)


def available_strategies(*, include_auto: bool = True) -> Tuple[str, ...]:
    """Sorted names accepted by ``strategy=`` (``"auto"`` first)."""
    names = tuple(sorted(_REGISTRY))
    return ((AUTO_STRATEGY,) + names) if include_auto else names


def ensure_strategy(name: str) -> str:
    """Centralized validation of a strategy string (``"auto"`` allowed)."""
    return ensure_choice(name, "strategy", available_strategies())


def ensure_backend(name: str) -> str:
    """Centralized validation of a backend string (``"auto"`` allowed)."""
    return ensure_choice(name, "backend", BACKENDS)


def get_strategy(name: str) -> StrategySpec:
    """Look up a registered spec by canonical name (no ``"auto"``)."""
    ensure_choice(name, "strategy", available_strategies(include_auto=False))
    return _REGISTRY[name]


def resolve_strategy(
    name: str,
    num_threads: int,
    *,
    backend: str = AUTO_BACKEND,
    order: Optional[int] = None,
) -> StrategySpec:
    """Resolve a strategy string (possibly ``"auto"``) against a thread count.

    ``"auto"`` picks the ``dense`` eigensolution when the backend is
    ``"auto"``, one thread is requested and the model ``order`` is below
    :data:`DENSE_MAX_ORDER`, where it beats the sweep on one core.
    Otherwise it follows the paper's guidance — classical bisection when
    single-threaded, the dynamic queue scheduler otherwise — unless the
    ``backend`` axis steers it: ``"serial"`` forces ``bisection``,
    ``"thread"`` forces ``queue``, ``"process"`` forces the
    multiprocessing ``process`` driver.  Without an ``order`` (a config
    resolved before any model exists) ``"auto"`` never picks ``dense``.
    An explicit strategy name wins over ``backend="auto"``, but an
    explicit backend the named driver cannot honor
    (``strategy="bisection", backend="process"``) is rejected.  The
    resolved spec is checked against the thread count, so e.g.
    requesting the sequential ``bisection`` driver with multiple threads
    fails here with a single, consistent message.
    """
    num_threads = ensure_positive_int(num_threads, "num_threads")
    ensure_strategy(name)
    ensure_backend(backend)
    if backend == "serial" and num_threads != 1:
        raise ValueError(
            "backend 'serial' runs one worker; it requires"
            f" num_threads == 1, got {num_threads}"
        )
    if name == AUTO_STRATEGY:
        if backend == "serial":
            name = "bisection"
        elif backend == "thread":
            name = "queue"
        elif backend == "process":
            name = "process"
        elif num_threads > 1:
            name = "queue"
        elif order is not None and order < DENSE_MAX_ORDER:
            name = "dense"
        else:
            name = "bisection"
    # get_strategy rather than raw indexing: if a built-in auto target was
    # unregistered, fail with the canonical unknown-strategy message.
    spec = get_strategy(name)
    spec.check_backend(backend)
    spec.check_threads(num_threads)
    return spec


# ---------------------------------------------------------------------------
# Built-in strategies (the schedulers studied in the paper) register
# through the public mechanism, exactly like an external plugin would.
# ---------------------------------------------------------------------------


def _register_builtins() -> None:
    from repro.core.dense import dense
    from repro.core.sweep import sweep

    def builtin(name: str, **spec) -> None:
        register_strategy(name, **spec)(partial(sweep, strategy=name))

    builtin(
        "bisection",
        max_threads=1,
        backends=("serial",),
        description="classical sequential bisection (ref. [9]; Table I baseline)",
    )
    builtin(
        "queue",
        backends=("serial", "thread"),
        description="dynamic band-coverage scheduler (Sec. IV; any thread count)",
    )
    builtin(
        "static",
        backends=("thread",),
        description="static pre-distributed grid (ablation baseline, no elimination)",
    )
    register_strategy(
        "dense",
        max_threads=1,
        backends=("serial",),
        description=(
            "full O(n^3) eigensolution of the 2n x 2n Hamiltonian (Sec. III"
            f" baseline; auto below order {DENSE_MAX_ORDER})"
        ),
    )(dense)
    builtin(
        "process",
        backends=("process",),
        description=(
            "dynamic scheduler with shifts run on a process pool (true"
            " multi-core; falls back to threads for small models)"
        ),
    )


_register_builtins()
