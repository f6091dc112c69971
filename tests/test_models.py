"""The one (model, pairing) builder: its config checks and the pairings it
ships."""

import re

import numpy as np
import pytest

from qpois import models
from qpois.errors import ConfigError

SL2 = {"family": "SL", "n": 2}


@pytest.mark.parametrize("group, key", [
    ({"family": "SL", "n": 1}, "group.n"),
    (dict(SL2, trace_scale=float("nan")), "group.trace_scale"),
    (dict(SL2, trace_scale=0), "group.trace_scale"),
    ({"family": "XX"}, "group.family"),
    (["SL", 2], "group"),
], ids=["n1", "trace_scale_nan", "trace_scale_zero", "family", "not_object"])
def test_group_refusals_name_the_key(group, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        models.model_from_config(group)


@pytest.mark.parametrize("pairing, key", [
    ({"trace_scale": 2.0}, "group.trace_scale"),
    ({"weights": [1, 1, 1]}, "pairing.weights"),
    ({"mask": [1, 1]}, "pairing.mask"),
    ({"mask": [1, float("nan"), 1]}, "pairing.mask"),
    ([1, 1, 1], "pairing"),
], ids=["trace_scale", "unknown_key", "mask_length", "mask_nan",
        "not_object"])
def test_pairing_refusals_name_the_key(pairing, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        models.model_from_config(SL2, pairing)


def test_sl2_abelian_pairing_is_the_block_literal():
    _, pairing = models.sl2_abelian()
    sl2_lower = [[2, 0, 0], [0, 0, 1], [0, 1, 0]]
    sl2_upper = [[0.5, 0, 0], [0, 0, 1], [0, 1, 0]]
    for got, block in ((pairing.eta_lower, sl2_lower),
                       (pairing.eta_upper, sl2_upper)):
        want = np.zeros((4, 4), dtype=complex)
        want[:3, :3] = block
        assert np.array_equal(got, want)
    assert not pairing.invertible


def test_sl2_abelian_defaults():
    """n is ignored, `product` is an alias and a null mask is the default."""
    _, ref = models.sl2_abelian()
    for group, spec in (({"family": "sl2_abelian", "n": 5}, None),
                        ({"family": "product"}, {"mask": None})):
        model, pairing = models.model_from_config(group, spec)
        assert (model.n, model.d) == (3, 4)
        assert np.array_equal(pairing.eta_lower, ref.eta_lower)
        assert np.array_equal(pairing.eta_upper, ref.eta_upper)


def test_trace_scale_and_mask_multiply():
    _, plain = models.sl2()
    _, got = models.model_from_config(dict(SL2, trace_scale=-2.0),
                                      {"mask": [1, 1, 2]})
    m = np.array([1.0, 1.0, 2.0])
    assert np.array_equal(got.eta_lower,
                          -2.0 * plain.eta_lower * np.outer(m, m))
    assert np.allclose(got.eta_lower @ got.eta_upper, np.eye(3))
