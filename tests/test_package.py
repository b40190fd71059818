"""The package's public surface."""

import holomem


def test_every_public_name_resolves():
    # a stale __all__ entry breaks `from holomem import *`
    missing = [name for name in holomem.__all__ if not hasattr(holomem, name)]
    assert missing == []
    namespace = {}
    exec("from holomem import *", namespace)
    assert set(holomem.__all__) <= set(namespace)


def test_removed_names_stay_removed():
    # the oracle works on the unit cell: no basis wrapper carrying a cell
    # length, and passes and stages go through holomem.protocol
    for name in ("LegendreBasis", "integrate_single_pass", "numerical_stage_map"):
        assert name not in holomem.__all__
        assert not hasattr(holomem, name)
