"""Registry of kernel -> machine mappings.

``run(kernel, machine, **kwargs)`` dispatches to the mapping module; the
five machine names match the paper's Table 3 rows (``ppc``, ``altivec``,
``viram``, ``imagine``, ``raw``) and the three kernel names its columns
(``corner_turn``, ``cslc``, ``beam_steering``).

Runs are memoized through two tiers: the in-process
:data:`repro.perf.cache.RUN_CACHE` and the persistent
:data:`repro.perf.diskcache.DISK_CACHE`.  Mappings are pure functions
of their arguments, so a repeated ``(kernel, machine, kwargs)`` request
is served from the first result instead of re-simulated.  ``run`` is
content key → :func:`repro.perf.cache.read_tiers` → :func:`simulate`;
the tier rule itself lives in :mod:`repro.perf.cache`.  A stored run
with a new seed shares its mapping's seed-independent timing pass with
earlier runs of the same geometry (the timing memo, also in
:mod:`repro.perf.cache`).  A cached call returns the run's cached form
(:func:`repro.perf.cache.cached_form`) on a miss as well as on a hit:
``output_digest`` is set and ``output`` is ``None``.  Pass
``cache=False`` to force a fresh simulation that carries the output
array (also the opt-out for stateful experiments), or disable a tier
globally with ``REPRO_RUN_CACHE=0`` / ``REPRO_DISK_CACHE=0``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.arch.base import KernelRun
from repro.errors import MappingError
from repro.perf import timers
from repro.perf.cache import (
    cache_key,
    cached_form,
    read_tiers,
    timing_scope,
    write_tiers,
)
from repro.trace.tracer import active_tracer
from repro.mappings import (
    imagine_beam_steering,
    imagine_corner_turn,
    imagine_cslc,
    ppc_beam_steering,
    ppc_corner_turn,
    ppc_cslc,
    raw_beam_steering,
    raw_corner_turn,
    raw_cslc,
    viram_beam_steering,
    viram_corner_turn,
    viram_cslc,
)

KERNELS: Tuple[str, ...] = ("corner_turn", "cslc", "beam_steering")

#: Table 3 row order.
MACHINES: Tuple[str, ...] = ("ppc", "altivec", "viram", "imagine", "raw")

_REGISTRY: Dict[Tuple[str, str], Callable[..., KernelRun]] = {
    ("corner_turn", "ppc"): ppc_corner_turn.run_scalar,
    ("corner_turn", "altivec"): ppc_corner_turn.run_altivec,
    ("corner_turn", "viram"): viram_corner_turn.run,
    ("corner_turn", "imagine"): imagine_corner_turn.run,
    ("corner_turn", "raw"): raw_corner_turn.run,
    ("cslc", "ppc"): ppc_cslc.run_scalar,
    ("cslc", "altivec"): ppc_cslc.run_altivec,
    ("cslc", "viram"): viram_cslc.run,
    ("cslc", "imagine"): imagine_cslc.run,
    ("cslc", "raw"): raw_cslc.run,
    ("beam_steering", "ppc"): ppc_beam_steering.run_scalar,
    ("beam_steering", "altivec"): ppc_beam_steering.run_altivec,
    ("beam_steering", "viram"): viram_beam_steering.run,
    ("beam_steering", "imagine"): imagine_beam_steering.run,
    ("beam_steering", "raw"): raw_beam_steering.run,
}

#: Mapping options per (kernel, machine): the keywords its ``run`` and
#: ``run_batch`` take besides ``workload``, ``calibration`` and
#: ``seed``.  ``repro list`` prints them, the scenario fuzzer toggles
#: them, and each what-if of :mod:`repro.eval.experiments` flips one.
OPTIONS: Dict[Tuple[str, str], Tuple[str, ...]] = {
    ("cslc", "raw"): ("balanced", "streamed_fft"),
    ("corner_turn", "imagine"): ("via_network_port",),
    ("beam_steering", "imagine"): ("tables_in_srf",),
    ("cslc", "imagine"): ("independent_ffts",),
}


#: Tensor-batch entry points: one call evaluates a whole list of
#: calibrations against a shared structure pass (see
#: :mod:`repro.mappings.batch` and :mod:`repro.perf.tensorsweep`).
#: Every pair mirrors the scalar entry in :data:`_REGISTRY`.
_BATCH_REGISTRY: Dict[Tuple[str, str], Callable[..., Any]] = {
    ("corner_turn", "ppc"): ppc_corner_turn.run_scalar_batch,
    ("corner_turn", "altivec"): ppc_corner_turn.run_altivec_batch,
    ("corner_turn", "viram"): viram_corner_turn.run_batch,
    ("corner_turn", "imagine"): imagine_corner_turn.run_batch,
    ("corner_turn", "raw"): raw_corner_turn.run_batch,
    ("cslc", "ppc"): ppc_cslc.run_scalar_batch,
    ("cslc", "altivec"): ppc_cslc.run_altivec_batch,
    ("cslc", "viram"): viram_cslc.run_batch,
    ("cslc", "imagine"): imagine_cslc.run_batch,
    ("cslc", "raw"): raw_cslc.run_batch,
    ("beam_steering", "ppc"): ppc_beam_steering.run_scalar_batch,
    ("beam_steering", "altivec"): ppc_beam_steering.run_altivec_batch,
    ("beam_steering", "viram"): viram_beam_steering.run_batch,
    ("beam_steering", "imagine"): imagine_beam_steering.run_batch,
    ("beam_steering", "raw"): raw_beam_steering.run_batch,
}


def available() -> Tuple[Tuple[str, str], ...]:
    """All (kernel, machine) pairs with a mapping."""
    return tuple(sorted(_REGISTRY))


def batch_runner(
    kernel: str, machine: str
) -> Optional[Callable[..., Any]]:
    """The tensor-batch entry point for ``(kernel, machine)``, or ``None``
    when the pair has no batch mapping.  The runner's signature is
    ``runner(calibrations, **kwargs) -> List[KernelRun]``, one result per
    calibration, bit-identical to the equivalent per-cell ``run`` calls.
    """
    return _BATCH_REGISTRY.get((kernel, machine))


#: Optional continuous-validation hook (see :func:`set_post_run_validator`).
_POST_RUN_VALIDATOR: Optional[
    Callable[[KernelRun, Mapping[str, Any]], None]
] = None


def set_post_run_validator(
    validator: Optional[Callable[[KernelRun, Mapping[str, Any]], None]],
) -> Optional[Callable[[KernelRun, Mapping[str, Any]], None]]:
    """Install (or, with ``None``, remove) a post-run validation hook.

    The hook is called as ``validator(result, kwargs)`` after every
    *freshly simulated* run — cache hits are skipped, since the entry
    was validated when it was produced.  ``repro.check`` uses this for
    continuous-validation mode (every run checked against the §2.5
    bounds as it is produced); the hook may raise
    :class:`~repro.errors.CheckError` to fail the run.  Returns the
    previously installed hook so callers can restore it.
    """
    global _POST_RUN_VALIDATOR
    previous = _POST_RUN_VALIDATOR
    _POST_RUN_VALIDATOR = validator
    return previous


def _mapping(kernel: str, machine: str) -> Callable[..., KernelRun]:
    try:
        return _REGISTRY[(kernel, machine)]
    except KeyError:
        raise MappingError(
            f"no mapping for kernel {kernel!r} on machine {machine!r}; "
            f"kernels: {KERNELS}, machines: {MACHINES}"
        ) from None


def run(kernel: str, machine: str, *, cache: bool = True, **kwargs) -> KernelRun:
    """Run ``kernel`` on ``machine``; keyword arguments are forwarded to
    the mapping (``workload=``, ``calibration=``, ``seed=``, and any
    mapping-specific options such as ``balanced=`` or
    ``tables_in_srf=``).

    Results are memoized in their cached form, without the output
    array (see the module docstring); ``cache=False`` bypasses the
    tiers for this call and returns the array.  A traced run bypasses
    them too: a memoized hit would replay no events, and the tiers
    must not absorb runs whose only difference is the observer.
    """
    _mapping(kernel, machine)
    key = (
        cache_key(kernel, machine, kwargs)
        if cache and active_tracer() is None
        else None
    )
    found, _ = read_tiers([key])
    if key in found:
        return found[key]
    return simulate(kernel, machine, kwargs, key)


def simulate(
    kernel: str,
    machine: str,
    kwargs: Mapping[str, Any],
    key: Optional[str] = None,
) -> KernelRun:
    """Execute one mapping without reading the tiers (the caller read
    them): the post-run hook validates the result, and an active tracer
    gets it attached.  With a ``key`` the run's cached form is stored
    through :func:`repro.perf.cache.write_tiers` and returned, and the
    mapping may share its timing pass through the timing memo
    (:func:`repro.perf.cache.timing_pass`); without one the full run,
    output array included, is computed afresh and returned, and nothing
    is stored."""
    fn = _mapping(kernel, machine)
    with timers.timer(f"run:{kernel}/{machine}"), timing_scope(
        key is not None
    ):
        result = fn(**kwargs)
    _post_run(result, kwargs)
    tracer = active_tracer()
    if tracer is not None:
        # Tracing only observes; invariant.trace.noninterference proves
        # the traced result equals the untraced one.
        tracer.attach_run(result, run_id=cache_key(kernel, machine, kwargs))
    if key is None:
        return result
    result = cached_form(result)
    write_tiers([(key, result)])
    return result


def _post_run(result: KernelRun, kwargs: Mapping[str, Any]) -> None:
    if _POST_RUN_VALIDATOR is not None:
        _POST_RUN_VALIDATOR(result, kwargs)


def post_run_validate(result: KernelRun, kwargs: Mapping[str, Any]) -> None:
    """Apply the installed post-run validation hook (if any) to a freshly
    produced run.  The tensor engine calls this once per batch cell so a
    batched grid is validated exactly as the per-cell path would be."""
    _post_run(result, kwargs)
