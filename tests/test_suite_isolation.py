"""The suite's persistent state stays under pytest's temp directory.

Function-scoped autouse fixtures do not reach module-scoped fixtures,
which is where the expensive shared runs (``run_table3()``,
``full_report()``) live.  This module's own module-scoped fixture sees
the same environment those do.
"""

from pathlib import Path

import pytest


@pytest.fixture(scope="module")
def module_scope_roots():
    from repro.obs.ledger import obs_root
    from repro.perf.index import _default_root
    from repro.service.journal import service_root

    return {
        "disk cache": _default_root(),
        "obs": obs_root(),
        "service": service_root(),
    }


def test_module_fixtures_resolve_stores_under_basetemp(
    module_scope_roots, tmp_path_factory
):
    base = tmp_path_factory.getbasetemp().resolve()
    for name, root in module_scope_roots.items():
        assert Path(root).resolve().is_relative_to(base), (name, root)
