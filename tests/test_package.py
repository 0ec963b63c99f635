import vesselfem


def test_every_export_resolves():
    missing = [name for name in vesselfem.__all__ if not hasattr(vesselfem, name)]
    assert not missing, missing
    assert len(set(vesselfem.__all__)) == len(vesselfem.__all__)
