import types

import jchm


def test_all_names_every_public_binding_once():
    exported = jchm.__all__
    assert len(exported) == len(set(exported))
    for name in exported:
        assert hasattr(jchm, name), name
    bound = {name for name, value in vars(jchm).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert set(exported) == bound | {"__version__"}
