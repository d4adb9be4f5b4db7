import finop


def test_every_exported_name_resolves():
    assert [name for name in finop.__all__ if not hasattr(finop, name)] == []
    assert len(set(finop.__all__)) == len(finop.__all__)
