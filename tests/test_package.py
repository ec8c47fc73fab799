import types

import ramsum


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(ramsum).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(ramsum.__all__) == sorted(public)
    assert len(set(ramsum.__all__)) == len(ramsum.__all__)
    for name in ramsum.__all__:
        assert getattr(ramsum, name) is not None, name
