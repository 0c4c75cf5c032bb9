"""A ``fuzz-seed`` unit runs exactly the genre its payload names.

The one test here names a deleted genre's key, so the CI guard against
deleted names skips this file alone.
"""

import pytest

from repro.verify import fuzz_work_units, run_fuzz_unit


def test_unknown_payload_key_is_refused():
    # The rewrite-shapes genre is gone; a unit asking for it must not
    # quietly run the default genre instead.
    (unit,) = fuzz_work_units([0], max_ops=4)
    payload = {**unit.payload, "rewrite_shapes": True}
    with pytest.raises(ValueError, match="rewrite_shapes"):
        run_fuzz_unit(payload)
