import re

import pytest

from progmix.budget import OP_BUDGET, budget_limit, charge


@pytest.mark.parametrize("raw", ["x", "1.5", "1e9", ""])
def test_non_integer_budget_is_refused(monkeypatch, raw):
    monkeypatch.setenv("PROGMIX_BUDGET", raw)
    for call in (lambda: budget_limit(OP_BUDGET), lambda: charge(1, OP_BUDGET, "one unit")):
        with pytest.raises(ValueError, match=re.escape(f"PROGMIX_BUDGET must be an integer, got {raw!r}")):
            call()
