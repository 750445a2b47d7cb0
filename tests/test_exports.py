"""The public surface: ``klab.__all__`` is the union of its modules' ``__all__``.

Each module's ``__all__`` is the only list of its public names.  The
benchmark's tracer times exactly the functions a module lists there, so a
name ``klab`` exported from anywhere else would drop out of the per-layer
spans without any error.
"""

import types

import klab
from klab import analysis, energies, evolution, harness, spectral

MODULES = (spectral, energies, evolution, analysis, harness)


def test_every_public_name_is_in_its_modules_all():
    union = [name for module in MODULES for name in module.__all__]
    assert len(union) == len(set(union)), "two modules export one name"
    assert klab.__all__ == union
    public = {
        name
        for name, value in vars(klab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(union)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(klab, name) is getattr(module, name), (name, module.__name__)
