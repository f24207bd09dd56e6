"""Shared helpers for tensor-batched mapping evaluation.

The tensorized sweep engine (:mod:`repro.perf.tensorsweep`) evaluates a
whole grid of calibrations against one kernel/machine/workload cell in a
single pass.  Every mapping module supports this by splitting its
``run`` into two halves:

* ``_structure(...)`` — the calibration-independent heavy lifting:
  address-stream construction, DRAM activation counting, TLB walks,
  cache-trace simulation, functional reference computation.  Everything
  here is a pure function of the workload, the seed, the mapping
  options, and the *structural* calibration fields (integer geometry
  such as TLB entry counts — see :data:`STRUCTURAL_CAL_FIELDS`).
* ``_evaluate(structure, cals)`` — assembly of the per-cell cycle
  ledgers from the structure.  Where calibration constants enter the
  models only through closed-form cost expressions, this half
  vectorises over a leading batch axis: a term like "activation
  cycles" becomes a ``(B, S)`` numpy expression reduced along the
  segment axis.  Imagine's ledgers are not a closed form: they come
  from the host stream program's schedule, whose op start times are a
  running max over dependencies and resource availability.  Its
  ``_evaluate`` replays that schedule once per cell over a compiled op
  table in plain floats
  (:func:`repro.arch.imagine.stream_program.replay`).

``run()`` is then exactly the batch of one, which is what makes the
batch path *bit-identical* to per-cell evaluation: both sides execute
the same expressions, elementwise over the batch axis (or cell by cell
in the Imagine replay), and numpy's pairwise summation reduces a row of
a C-contiguous 2-D array exactly as it reduces the equivalent 1-D
array.

This module holds the pieces the mappings share: the per-machine split
of calibration fields into batchable (float constants that may vary
within one batch) vs structural (geometry that selects code paths and
must be uniform), and small helpers for extracting batch-axis vectors.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.calibration import Calibration
from repro.errors import MappingError

#: Calibration-group name each registry machine reads.
CAL_GROUP: Dict[str, str] = {
    "ppc": "ppc",
    "altivec": "ppc",
    "viram": "viram",
    "imagine": "imagine",
    "raw": "raw",
}

#: Per calibration group: fields that select *structure* — integer
#: geometry and pass counts that change which addresses are generated or
#: how many times data moves.  A tensor batch must hold these fixed;
#: every other (float) field of the group may vary cell to cell.
STRUCTURAL_CAL_FIELDS: Dict[str, Tuple[str, ...]] = {
    "viram": ("tlb_entries", "page_words", "spill_passes"),
    "imagine": (),
    "raw": (),
    "ppc": (),
}


def structural_signature(group: str, cal: Calibration) -> Tuple:
    """The structural-field values of ``cal``'s ``group`` — cells whose
    signatures differ cannot share one batch structure."""
    cal_group = getattr(cal, group)
    return tuple(
        getattr(cal_group, name) for name in STRUCTURAL_CAL_FIELDS[group]
    )


def require_uniform_structure(
    group: str, cals: Sequence[Calibration]
) -> None:
    """Raise :class:`MappingError` unless every calibration in the batch
    agrees on the group's structural fields."""
    if not cals:
        raise MappingError("empty calibration batch")
    first = structural_signature(group, cals[0])
    for cal in cals[1:]:
        if structural_signature(group, cal) != first:
            raise MappingError(
                f"calibration batch mixes structural {group} fields "
                f"({STRUCTURAL_CAL_FIELDS[group]}); split the batch"
            )


def cal_vector(
    cals: Sequence[Calibration], group: str, field: str
) -> np.ndarray:
    """The batch axis of one calibration constant: ``cals[i].group.field``
    as a float64 array of shape ``(len(cals),)``."""
    return np.array(
        [getattr(getattr(cal, group), field) for cal in cals],
        dtype=np.float64,
    )


def cal_floats(
    cals: Sequence[Calibration], group: str, field: str
) -> List[float]:
    """:func:`cal_vector` as plain Python floats, for per-cell scalar
    loops (numpy scalars are slower there and would leak into results)."""
    return cal_vector(cals, group, field).tolist()


#: Cap on elements of a ``(B, S)`` batch-by-segment intermediate; larger
#: batches are evaluated in row chunks (chunking the batch axis cannot
#: change any per-row result).
_BATCH_ELEMENT_BUDGET = 4_000_000


def batch_rows(n_cells: int, n_segments: int):
    """Yield ``(start, stop)`` batch-axis chunks keeping ``(B, S)``
    intermediates under the element budget."""
    if n_segments <= 0:
        yield 0, n_cells
        return
    step = max(1, _BATCH_ELEMENT_BUDGET // n_segments)
    for start in range(0, n_cells, step):
        yield start, min(n_cells, start + step)
