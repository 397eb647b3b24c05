import qpswf


def test_every_exported_name_exists():
    missing = [name for name in qpswf.__all__ if not hasattr(qpswf, name)]
    assert not missing
