"""The closed table of solve strategies and the one resolver over it.

The paper compares a fixed set of solvers: the dense O(n^3)
eigensolution (Sec. III), classical bisection (Fig. 2) and the dynamic
scheduler of Sec. IV, with a static pre-distributed grid as an ablation;
``process`` runs that scheduler on a process pool.  :data:`STRATEGIES`
lists them with the backends each honours, and :func:`resolve_strategy`
decides in one place which of them a solve runs: it resolves
``"auto"``, rejects contradictory combinations, and runs a pooled sweep
of a small model on threads.

:class:`~repro.core.config.RunConfig` runs the resolver without a model
order when it is built, so a contradictory config fails there;
:func:`~repro.core.solver.solve` runs it with the model's order and
calls :func:`~repro.core.dense.dense` or :func:`~repro.core.sweep.sweep`
with the name it returns.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from repro.core import sweep
from repro.utils.validation import ensure_choice, ensure_positive_int

__all__ = [
    "AUTO_DESCRIPTION",
    "BACKENDS",
    "DENSE_MAX_ORDER",
    "STRATEGIES",
    "Strategy",
    "resolve_strategy",
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


class Strategy(NamedTuple):
    """One row of :data:`STRATEGIES`."""

    #: True when the driver runs one worker, so ``num_threads`` must be 1.
    sequential: bool
    #: Execution backends the driver honours (``"auto"`` always passes).
    backends: Tuple[str, ...]
    #: One line for ``repro strategies``.
    description: str


#: The strategies a solve can run, by the name ``strategy=`` takes.
STRATEGIES: Dict[str, Strategy] = {
    "bisection": Strategy(
        True,
        ("serial",),
        "classical sequential bisection (ref. [9]; Table I baseline)",
    ),
    "queue": Strategy(
        False,
        ("serial", "thread"),
        "dynamic band-coverage scheduler (Sec. IV; any thread count)",
    ),
    "static": Strategy(
        False,
        ("thread",),
        "static pre-distributed grid (ablation baseline, no elimination)",
    ),
    "dense": Strategy(
        True,
        ("serial",),
        "full O(n^3) eigensolution of the 2n x 2n Hamiltonian (Sec. III"
        f" baseline; auto below order {DENSE_MAX_ORDER})",
    ),
    "process": Strategy(
        False,
        ("process",),
        "dynamic scheduler with shifts run on a process pool (true"
        " multi-core; falls back to threads for small models)",
    ),
}

#: What ``"auto"`` runs on an explicit backend.
_BACKEND_STRATEGY = {"serial": "bisection", "thread": "queue", "process": "process"}


def available_strategies(*, include_auto: bool = True) -> Tuple[str, ...]:
    """Sorted names accepted by ``strategy=`` (``"auto"`` first)."""
    names = tuple(sorted(STRATEGIES))
    return ((AUTO_STRATEGY,) + names) if include_auto else names


def ensure_strategy(name: str) -> str:
    """Centralized validation of a strategy string (``"auto"`` allowed)."""
    return ensure_choice(name, "strategy", available_strategies())


def ensure_backend(name: str) -> str:
    """Centralized validation of a backend string (``"auto"`` allowed)."""
    return ensure_choice(name, "backend", BACKENDS)


def resolve_strategy(
    name: str,
    num_threads: int,
    *,
    backend: str = AUTO_BACKEND,
    order: Optional[int] = None,
) -> str:
    """The name of the strategy a solve runs, checked against the request.

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
    (``strategy="bisection", backend="process"``) is rejected, and so is
    a sequential driver asked for several threads.

    A ``process`` sweep with more than one worker of a model below
    :data:`~repro.core.sweep.PROCESS_MIN_ORDER` runs ``queue`` on
    threads, where forking the pool would cost more than the sweep.  The
    downgrade comes after the checks, so a request valid without an
    ``order`` stays valid with one.

    Raises
    ------
    ValueError
        On an unknown name or a contradictory combination.
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
        if backend != AUTO_BACKEND:
            name = _BACKEND_STRATEGY[backend]
        elif num_threads > 1:
            name = "queue"
        elif order is not None and order < DENSE_MAX_ORDER:
            name = "dense"
        else:
            name = "bisection"
    row = STRATEGIES[name]
    if backend != AUTO_BACKEND and backend not in row.backends:
        raise ValueError(
            f"strategy {name!r} runs on backend(s)"
            f" {'/'.join(row.backends)}, not {backend!r};"
            " leave backend='auto' or pick a matching strategy"
        )
    if row.sequential and num_threads > 1:
        raise ValueError(
            f"the {name!r} strategy is inherently sequential;"
            " use strategy='queue' for multi-threaded sweeps"
        )
    if (
        name == "process"
        and num_threads > 1
        and order is not None
        and order < sweep.PROCESS_MIN_ORDER
    ):
        return "queue"
    return name
