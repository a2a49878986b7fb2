"""Every independent-route check of ``funneltrack.checks``, one test each."""
import pytest

from funneltrack import checks


@pytest.mark.parametrize("check", [fn for _, fn in checks.ALL_CHECKS],
                         ids=[name for name, _ in checks.ALL_CHECKS])
def test_check(check):
    ok, detail = check()
    assert ok, detail
