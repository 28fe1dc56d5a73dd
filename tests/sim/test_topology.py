"""Tests for room topology helpers."""

import numpy as np
import pytest

from repro.sim import place_aps, place_stations, sniffer_position


class TestPlacement:
    def test_aps_evenly_spaced_on_centre_line(self):
        positions = place_aps(3, width_m=40.0, depth_m=20.0)
        assert len(positions) == 3
        assert all(p.y == 10.0 for p in positions)
        xs = [p.x for p in positions]
        assert xs == sorted(xs)
        gaps = np.diff(xs)
        assert np.allclose(gaps, gaps[0])

    def test_single_ap_centred(self):
        (pos,) = place_aps(1, 30.0, 20.0)
        assert pos.x == pytest.approx(15.0)

    def test_zero_aps_rejected(self):
        with pytest.raises(ValueError):
            place_aps(0, 10.0, 10.0)

    def test_stations_inside_room(self):
        rng = np.random.default_rng(4)
        positions = place_stations(50, 30.0, 20.0, rng)
        assert len(positions) == 50
        assert all(1.0 <= p.x <= 29.0 for p in positions)
        assert all(1.0 <= p.y <= 19.0 for p in positions)

    def test_sniffer_centered(self):
        pos = sniffer_position(40.0, 20.0)
        assert (pos.x, pos.y) == (20.0, 10.0)
