import types

import eprsignal


def test_all_names_exactly_the_public_package_namespace():
    public = {
        name for name, value in vars(eprsignal).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(eprsignal.__all__) == sorted(public)
    assert len(set(eprsignal.__all__)) == len(eprsignal.__all__)
    namespace: dict = {}
    exec("from eprsignal import *", namespace)
    for name in eprsignal.__all__:
        assert namespace[name] is getattr(eprsignal, name)
