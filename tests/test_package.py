"""Package-level guards."""

import qfbsim


def test_every_exported_name_resolves():
    missing = [name for name in qfbsim.__all__ if not hasattr(qfbsim, name)]
    assert missing == []
