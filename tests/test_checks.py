"""Every independent-route check of ``funneltrack.checks``, one test each."""
import pytest

from funneltrack import checks


@pytest.mark.parametrize("name", [name for name, _ in checks.ALL_CHECKS])
def test_check(check_results, name):
    ok, detail = check_results[name]
    assert ok, detail
