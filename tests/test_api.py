import fluxrec


def test_all_lists_each_name_once_and_each_resolves():
    assert len(set(fluxrec.__all__)) == len(fluxrec.__all__)
    namespace = {}
    exec("from fluxrec import *", namespace)     # AttributeError on a stale name
    assert set(fluxrec.__all__) <= namespace.keys()
