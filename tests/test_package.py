import uradon as ur


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from uradon import *", namespace)
    missing = [name for name in ur.__all__ if name not in namespace]
    assert not missing
