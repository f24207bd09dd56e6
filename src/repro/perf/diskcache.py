"""The process-wide persistent tier of the run cache.

:data:`DISK_CACHE` is the one :class:`~repro.perf.index.PackedDiskCache`
every layer shares; :mod:`repro.perf.index` documents its layout,
integrity checks and self-healing.  Constructing it does no I/O (the
root is resolved on each operation), so importing this module stays on
the CLI's lazy-import fast path.
"""

from __future__ import annotations

from repro.perf.index import PackedDiskCache

#: The process-wide tier 2 store.
DISK_CACHE = PackedDiskCache()
