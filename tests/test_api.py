"""The package's public name list."""

import branchfall
from branchfall import (
    branching,
    dynamics,
    ehrenfest,
    errors,
    mechanisms,
    pointer,
    qstate,
    reduction,
)


def test_package_exports_every_module_list_and_nothing_else():
    modules = (errors, qstate, dynamics, pointer, branching, mechanisms, ehrenfest, reduction)
    want = ["__version__"] + [name for module in modules for name in module.__all__]
    assert branchfall.__all__ == want
    assert len(set(want)) == len(want)
    for module in modules:
        for name in module.__all__:
            assert getattr(branchfall, name) is getattr(module, name)
    assert isinstance(branchfall.__version__, str)
    assert branchfall.sample_positions is mechanisms.sample_positions
