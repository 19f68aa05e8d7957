"""The frozen copies in `naive_oracles` stay as they were copied.

Each `frozen_*` function is a verbatim copy of code that a rewrite replaced,
and the tests hold the live code to it.  A copy that drifted would hold the
live code to something else without any test failing, so the source of each
one is pinned here by a sha256 prefix.  A new frozen copy adds its own entry;
an entry changes only with a deliberate change to its copy.
"""

import hashlib
import inspect

import naive_oracles

PINS = {
    "frozen_block_cut_tree": "485b4e656d95cc1c",
    "frozen_hamiltonian_path_in_block": "aefa12a032650590",
    "frozen_jump_set_count": "2c62f77a92985e36",
    "frozen_layouts": "56b9721619a96763",
    "frozen_max_min_ratio_allocation": "9bb6f81503612e13",
    "frozen_minmax_partition_search": "18eabd69f04de770",
    "frozen_plan": "ab17fd28b74f6deb",
    "frozen_recognize": "a084a24b152057fc",
    "frozen_route": "d619d768a4763720",
    "frozen_set_count": "93308a732c9d749e",
    "frozen_threshold_share": "0cffbc6ec312c36d",
}


def test_every_frozen_copy_matches_its_pinned_source():
    found = {
        name: hashlib.sha256(inspect.getsource(fn).encode()).hexdigest()[:16]
        for name, fn in vars(naive_oracles).items()
        if name.startswith("frozen_") and inspect.isfunction(fn)
    }
    assert found == PINS
