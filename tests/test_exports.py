"""The package's public names are the union of its library modules' export lists."""

import types

import opsyslab
from opsyslab import defects, logic, matrices, systems, ucp

MODULES = (matrices, systems, logic, defects, ucp)


def test_package_exports_each_module_list():
    public = {name for name, value in vars(opsyslab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set().union(*(m.__all__ for m in MODULES))
    for m in MODULES:
        for name in m.__all__:
            assert getattr(opsyslab, name) is getattr(m, name)
