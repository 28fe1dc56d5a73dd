"""Tests for the propagation model."""

import numpy as np
import pytest

from repro.sim import Position, PropagationModel
from repro.sim.propagation import NOISE_FLOOR_DBM


class TestPathLoss:
    def test_monotone_in_distance(self):
        model = PropagationModel(shadowing_sigma_db=0.0)
        losses = [model.path_loss_db(d) for d in (1, 5, 10, 20, 50)]
        assert losses == sorted(losses)

    def test_reference_loss_at_1m(self):
        model = PropagationModel(shadowing_sigma_db=0.0)
        assert model.path_loss_db(1.0) == pytest.approx(40.0)

    def test_sub_metre_clamped(self):
        model = PropagationModel(shadowing_sigma_db=0.0)
        assert model.path_loss_db(0.1) == model.path_loss_db(1.0)

    def test_exponent(self):
        model = PropagationModel(exponent=3.0, shadowing_sigma_db=0.0)
        assert model.path_loss_db(10.0) == pytest.approx(40.0 + 30.0)


class TestShadowing:
    def test_symmetric_and_stable(self):
        model = PropagationModel(shadowing_sigma_db=6.0)
        a = model.link_shadowing_db(1, 2)
        assert model.link_shadowing_db(2, 1) == a
        assert model.link_shadowing_db(1, 2) == a  # cached, not re-drawn

    def test_zero_sigma_means_zero(self):
        model = PropagationModel(shadowing_sigma_db=0.0)
        assert model.link_shadowing_db(1, 2) == 0.0

    def test_deterministic_per_seed(self):
        a = PropagationModel(rng=np.random.default_rng(1)).link_shadowing_db(1, 2)
        b = PropagationModel(rng=np.random.default_rng(1)).link_shadowing_db(1, 2)
        assert a == b


class TestReceivedPower:
    def test_received_power_drops_with_distance(self):
        model = PropagationModel(shadowing_sigma_db=0.0)
        origin = Position(0, 0)
        near = model.received_power_dbm(15.0, origin, Position(2, 0))
        far = model.received_power_dbm(15.0, origin, Position(30, 0))
        assert near > far

    def test_node_extra_loss_applies_to_both_endpoints(self):
        model = PropagationModel(shadowing_sigma_db=0.0)
        model.node_extra_loss_db[7] = 20.0
        origin, there = Position(0, 0), Position(10, 0)
        base = model.received_power_dbm(15.0, origin, there, tx_id=1, rx_id=2)
        as_tx = model.received_power_dbm(15.0, origin, there, tx_id=7, rx_id=2)
        as_rx = model.received_power_dbm(15.0, origin, there, tx_id=1, rx_id=7)
        assert as_tx == pytest.approx(base - 20.0)
        assert as_rx == pytest.approx(base - 20.0)


class TestSnr:
    def test_snr_at_noise_floor(self):
        model = PropagationModel(shadowing_sigma_db=0.0)
        assert model.snr_db(NOISE_FLOOR_DBM) == pytest.approx(0.0)

    def test_interference_reduces_snr(self):
        model = PropagationModel(shadowing_sigma_db=0.0)
        clean = model.snr_db(-60.0)
        jammed = model.snr_db(-60.0, interference_mw=10 ** (-70 / 10.0))
        assert jammed < clean

    def test_position_distance(self):
        assert Position(0, 0).distance_to(Position(3, 4)) == 5.0
