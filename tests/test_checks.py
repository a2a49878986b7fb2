"""Every independent-route check of ``funneltrack.checks``, one test each."""
import re
from pathlib import Path

import pytest

from funneltrack import checks

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", [name for name, _ in checks.ALL_CHECKS])
def test_check(check_results, name):
    ok, detail = check_results[name]
    assert ok, detail


def test_readme_table_lists_every_check_in_order():
    table = re.search(r"^\| check \|.*?\n\n", README.read_text(), re.M | re.S).group()
    names = re.findall(r"^\| `([a-z-]+)` \|", table, re.M)
    assert names == [name for name, _ in checks.ALL_CHECKS]
