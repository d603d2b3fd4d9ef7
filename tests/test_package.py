"""The public namespace: every exported name exists and is listed once."""

import qsd


def test_all_is_sorted_unique_and_resolves():
    names = qsd.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(qsd, name)] == []
