import types

import gpbounds


def test_all_lists_exactly_the_public_names():
    assert len(set(gpbounds.__all__)) == len(gpbounds.__all__)
    assert [name for name in gpbounds.__all__ if not hasattr(gpbounds, name)] == []
    public = {name for name, value in vars(gpbounds).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - set(gpbounds.__all__)) == []
