import vineshap


def test_export_list_is_sorted_unique_and_resolves():
    names = vineshap.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(vineshap, name) is not None
