"""Byte-for-byte regression of a 128-core study on the blocked tables.

Dies above 64 cores build their all-pairs NoC tables in source blocks
with float32 storage (``NocParams.dense_block_nodes``, set by
``repro.core.platforms.noc_params_for``); the 64-core golden never
reaches that path.  ``tests/data/golden_128core.json`` pins the sha256
of the full study document -- every simulated number of the four
configurations on the 16x8 die -- as captured before the tables moved
onto the forward route walk.
"""

import hashlib
import json
import os

from repro.core.experiment import run_app_study
from repro.core.serialization import study_to_dict
from repro.utils.jsonutil import canonical_json

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "data", "golden_128core.json"
)


def test_blocked_128core_study_byte_for_byte():
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    study = run_app_study(
        golden["app"],
        scale=golden["scale"],
        seed=golden["seed"],
        num_workers=golden["num_workers"],
        use_cache=False,
    )
    document = canonical_json(study_to_dict(study)).encode()
    assert hashlib.sha256(document).hexdigest() == golden["study_sha256"]
