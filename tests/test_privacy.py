import math

import numpy as np
import pytest

from fsqkd.privacy import (
    MAX_INPUT_BITS,
    PaPlan,
    compress,
    pa_fraction,
    plan_output_length,
    read_secret_key,
    secret_yield_per_sifted_bit,
    toeplitz_seed_bits,
    write_secret_key,
)
from fsqkd.rng import stream


class TestPaFraction:
    def test_error_free_point(self):
        assert pa_fraction(0.4, 0.0) == pytest.approx(0.6)

    def test_hand_evaluated_point(self):
        assert pa_fraction(0.4, 0.05) == pytest.approx(0.6 - 2 * math.sqrt(2) * 0.05)
        assert pa_fraction(0.4, 0.05) == pytest.approx(0.45858, abs=1e-5)

    def test_all_multiphoton_exposed(self):
        for eps in (0.0, 0.02, 0.1):
            assert pa_fraction(1.0, eps) <= 0.0


class TestSecretYield:
    def test_shannon_limit_error_free(self):
        assert secret_yield_per_sifted_bit(0.4, 0.0, 1.0) == pytest.approx(0.6)

    def test_clamped_when_correction_dominates(self):
        assert secret_yield_per_sifted_bit(0.05, 0.16, 1.0) == 0.0

    def test_costlier_correction_never_helps(self):
        for nbar in (0.2, 0.4, 0.6):
            for eps in (0.01, 0.03, 0.05):
                assert (secret_yield_per_sifted_bit(nbar, eps, 1.16)
                        <= secret_yield_per_sifted_bit(nbar, eps, 1.0))

    def test_monotone_in_error_rate_and_nbar(self):
        eps_grid = np.linspace(0.0, 0.12, 25)
        for nbar in (0.2, 0.4, 0.6):
            yields = [secret_yield_per_sifted_bit(nbar, e, 1.0) for e in eps_grid]
            assert all(a >= b for a, b in zip(yields, yields[1:]))
        nbar_grid = np.linspace(0.05, 0.95, 19)
        for eps in (0.01, 0.04):
            yields = [secret_yield_per_sifted_bit(nb, eps, 1.0) for nb in nbar_grid]
            assert all(a >= b for a, b in zip(yields, yields[1:]))


class TestPlanOutputLength:
    def test_hand_evaluated_plan(self):
        assert plan_output_length(10_000, 0.4, 0.022, 1.0, 0) == 3852

    def test_clamped_at_zero(self):
        assert plan_output_length(10_000, 0.95, 0.05, 1.0, 0) == 0

    def test_extra_leak_consumes_everything(self):
        assert plan_output_length(10_000, 0.4, 0.0, 1.0, 10_000) == 0


class TestCompress:
    def test_zero_output_length(self):
        key = stream(1, "k").integers(0, 2, 64).astype(np.uint8)
        secret = compress(key, PaPlan(input_length=64, output_length=0, seed=5))
        assert len(secret) == 0
        assert secret.dtype == np.uint8

    def test_all_zero_input_gives_all_zero_output(self):
        key = np.zeros(128, dtype=np.uint8)
        secret = compress(key, PaPlan(input_length=128, output_length=32, seed=9))
        assert not secret.any()

    def test_both_parties_agree_from_shared_seed(self):
        bits = stream(2, "k").integers(0, 2, 500).astype(np.uint8)
        plan = PaPlan(input_length=500, output_length=120, seed=77)
        s1 = compress(bits, plan)
        s2 = compress(bits.copy(), plan)
        assert np.array_equal(s1, s2)

    def test_linearity(self):
        # Toeplitz hashing is a linear map over GF(2)
        rng = stream(3, "lin")
        plan = PaPlan(input_length=200, output_length=48, seed=13)
        for _ in range(25):
            a = rng.integers(0, 2, 200).astype(np.uint8)
            b = rng.integers(0, 2, 200).astype(np.uint8)
            sa = compress(a, plan)
            sb = compress(b, plan)
            sab = compress(a ^ b, plan)
            assert np.array_equal(sab, sa ^ sb)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compress(np.zeros(10, dtype=np.uint8),
                     PaPlan(input_length=12, output_length=4, seed=1))

    def test_plan_bounds(self):
        with pytest.raises(ValueError):
            PaPlan(input_length=10, output_length=11, seed=0)


def toeplitz_row(diagonals, n, i):
    """Row i of the m x n Toeplitz matrix T[i, j] = diagonals[i - j + n - 1]."""
    return diagonals[i : i + n][::-1]


class TestToeplitz:
    @pytest.mark.parametrize("n, m", [(2000, 500), (257, 64), (1, 1), (64, 64)])
    def test_matches_dense_product(self, n, m):
        bits = stream(n, "toeplitz-key").integers(0, 2, n).astype(np.uint8)
        diagonals = toeplitz_seed_bits(21, n, m)
        matrix = np.array([toeplitz_row(diagonals, n, i) for i in range(m)], dtype=np.int64)
        expected = (matrix @ bits.astype(np.int64)) & 1
        got = compress(bits, PaPlan(input_length=n, output_length=m, seed=21))
        assert np.array_equal(got, expected)

    def test_exact_at_largest_key(self):
        # float64 FFT products must round to the exact GF(2) product at the
        # largest accepted key; rows are checked with packed-bit AND and
        # popcount, independent of any floating point
        n = m = MAX_INPUT_BITS
        bits = stream(7, "toeplitz-key").integers(0, 2, n).astype(np.uint8)
        got = compress(bits, PaPlan(input_length=n, output_length=m, seed=7))
        diagonals = toeplitz_seed_bits(7, n, m)
        packed_key = np.packbits(bits)
        rows = np.concatenate([np.arange(8), np.arange(m - 8, m),
                               stream(7, "rows").choice(m, 16, replace=False)])
        for i in rows:
            packed_row = np.packbits(toeplitz_row(diagonals, n, i))
            parity = int(np.unpackbits(packed_row & packed_key).sum()) & 1
            assert got[i] == parity

    def test_oversized_key_rejected(self):
        n = MAX_INPUT_BITS + 1
        with pytest.raises(ValueError):
            compress(np.zeros(n, dtype=np.uint8),
                     PaPlan(input_length=n, output_length=1, seed=0))


class TestSecretKeyFiles:
    def test_round_trip(self, tmp_path):
        bits = stream(4, "file").integers(0, 2, 301).astype(np.uint8)
        session = "ab" * 16
        path = tmp_path / "secret.key"
        write_secret_key(path, bits, session)
        got_bits, got_session = read_secret_key(path)
        assert np.array_equal(got_bits, bits)
        assert got_session == session

    def test_file_layout(self, tmp_path):
        path = tmp_path / "secret.key"
        write_secret_key(path, np.array([1, 0, 1], dtype=np.uint8), "0" * 32)
        raw = path.read_bytes()
        assert raw[:8] == b"FSQKDSEC"
        assert int.from_bytes(raw[8:12], "big") == 3
        assert raw[12:13] == bytes([0b10100000])
        assert raw[13:] == b"0" * 32 + b"\n"

    def test_empty_key(self, tmp_path):
        path = tmp_path / "secret.key"
        write_secret_key(path, np.zeros(0, dtype=np.uint8), "f" * 32)
        bits, session = read_secret_key(path)
        assert len(bits) == 0 and session == "f" * 32

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "secret.key"
        path.write_bytes(b"NOTMAGIC" + bytes(40))
        with pytest.raises(ValueError):
            read_secret_key(path)
