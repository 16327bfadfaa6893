"""The public API: every exported name resolves, and the views kept only as
test oracles (semigroup normal forms, scalar delta, tau) are not exported."""

import floerrank
from floerrank import seifert

DROPPED = ("NormalForm", "delta_at", "membership", "semigroup_elements_upto", "tau_sequence")


def test_public_api():
    assert [name for name in floerrank.__all__ if not hasattr(floerrank, name)] == []
    for name in DROPPED:
        assert name not in floerrank.__all__, name
        assert not hasattr(floerrank, name) and not hasattr(seifert, name), name
