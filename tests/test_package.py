"""The package's public surface."""

import nodal_theta


def test_every_export_resolves():
    missing = [name for name in nodal_theta.__all__ if not hasattr(nodal_theta, name)]
    assert not missing
    assert len(set(nodal_theta.__all__)) == len(nodal_theta.__all__)
