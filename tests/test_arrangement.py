import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arm_lab.arrange import ShuffleSpec, max_shuffle_ratio, pixel_shuffle, pixel_unshuffle
from arm_lab.errors import GeometryError

from oracles import max_ratio_oracle, shuffle_oracle


class TestMaxShuffleRatio:
    def test_reference_channel_counts(self):
        assert max_shuffle_ratio(512) == 16
        assert max_shuffle_ratio(48) == 4
        assert max_shuffle_ratio(1) == 1
        assert max_shuffle_ratio(7) == 1
        assert max_shuffle_ratio(64) == 8

    def test_matches_upward_scan_oracle_exhaustively(self):
        for c in range(1, 600):
            assert max_shuffle_ratio(c) == max_ratio_oracle(c), c

    def test_rejects_non_positive(self):
        with pytest.raises(GeometryError):
            max_shuffle_ratio(0)


class TestShuffleSpec:
    def test_reference_geometry(self):
        spec = ShuffleSpec(16, 512, 7, 7)
        assert spec.out_channels == 2
        assert (spec.out_height, spec.out_width) == (112, 112)
        assert spec.ratio == 16

    def test_rejects_non_divisible(self):
        with pytest.raises(GeometryError, match="divide"):
            ShuffleSpec(3, 8, 4, 4)


class TestPixelShuffle:
    def test_index_map_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        for c, r in [(4, 2), (8, 2), (9, 3), (18, 3), (16, 4)]:
            x = rng.standard_normal((2, c, 3, 5)).astype(np.float32)
            out = pixel_shuffle(x, r)
            assert np.array_equal(out, shuffle_oracle(x, r))

    def test_single_element_positions(self):
        # one hot at (n=0, c=dy*r+dx, i, j) must land exactly at (0, 0, i*r+dy, j*r+dx)
        r = 3
        for ci in range(r * r):
            for i in range(2):
                for j in range(2):
                    x = np.zeros((1, r * r, 2, 2), np.float32)
                    x[0, ci, i, j] = 1.0
                    out = pixel_shuffle(x, r)
                    dy, dx = divmod(ci, r)
                    assert out[0, 0, i * r + dy, j * r + dx] == 1.0
                    assert out.sum() == 1.0

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 32, 4, 6)).astype(np.float32)
        back = pixel_unshuffle(pixel_shuffle(x, 4), 4)
        assert np.array_equal(back, x)

    def test_unshuffle_is_the_adjoint(self):
        # <shuffle(x), y> == <x, unshuffle(y)> for all x, y
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 8, 3, 3)).astype(np.float32)
        y = rng.standard_normal((2, 2, 6, 6)).astype(np.float32)
        lhs = float(
            np.sum(pixel_shuffle(x, 2).astype(np.float64) * y)
        )
        rhs = float(
            np.sum(x.astype(np.float64) * pixel_unshuffle(y, 2))
        )
        assert abs(lhs - rhs) <= 1e-4

    def test_geometry_errors(self):
        with pytest.raises(GeometryError):
            pixel_shuffle(np.zeros((1, 6, 2, 2)), 2)  # 4 does not divide 6
        with pytest.raises(GeometryError):
            pixel_unshuffle(np.zeros((1, 2, 5, 4)), 2)  # 5 not divisible
        with pytest.raises(GeometryError):
            pixel_shuffle(np.zeros((4, 2, 2)), 1)  # rank 3

    @given(
        n=st.integers(1, 3),
        oc=st.integers(1, 3),
        r=st.integers(1, 4),
        h=st.integers(1, 5),
        w=st.integers(1, 5),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, n, oc, r, h, w, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, oc * r * r, h, w)).astype(np.float32)
        shuffled = pixel_shuffle(x, r)
        assert shuffled.shape == (n, oc, h * r, w * r)
        assert np.array_equal(pixel_unshuffle(shuffled, r), x)
        # bijection: value multiset is preserved
        assert np.array_equal(np.sort(shuffled, axis=None), np.sort(x, axis=None))
