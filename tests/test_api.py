import mfgspectral


def test_public_names_resolve_sorted_and_unique():
    names = mfgspectral.__all__
    assert [name for name in names if not hasattr(mfgspectral, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)
