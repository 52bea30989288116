"""BlockNormals serves the scalar ``Generator.normal`` stream, draw for draw."""

import numpy as np
import pytest

from repro.gates.cml import BlockNormals

BLOCK = BlockNormals.BLOCK

#: (loc, scale) pairs, including the gate-jitter shape ``normal(0.0, sigma)``.
ARGS = [(0.0, 0.01), (0.0, 1.0), (1.5, 3.0e-12), (-2.0, 0.0)]


@pytest.mark.parametrize("n_draws", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_draws_and_final_state_match_scalar_calls(n_draws):
    scalar = np.random.default_rng(42)
    blocked = np.random.default_rng(42)
    with BlockNormals(blocked) as source:
        for index in range(n_draws):
            loc, scale = ARGS[index % len(ARGS)]
            got = source.normal(loc, scale)
            assert type(got) is float
            assert got.hex() == float(scalar.normal(loc, scale)).hex()
    assert blocked.bit_generator.state == scalar.bit_generator.state
    assert blocked.random() == scalar.random()


def test_source_keeps_serving_after_close():
    scalar = np.random.default_rng(3)
    blocked = np.random.default_rng(3)
    source = BlockNormals(blocked)
    for n_draws in (5, BLOCK + 2, 1):
        for _ in range(n_draws):
            assert source.normal(0.0, 0.5) == scalar.normal(0.0, 0.5)
        source.close()
        assert blocked.bit_generator.state == scalar.bit_generator.state
        # Draws taken from the Generator between uses stay in order.
        assert blocked.random() == scalar.random()
