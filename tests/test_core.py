import dataclasses
import pickle
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, strategies as st

from disturbsim.baselines import SiwcCache
from disturbsim.core import (LINE_BYTES, Geometry, LineAddress,
                             RangeError, SimConfig, coin_threshold,
                             compose_address, count_one_to_zero, count_zeros,
                             decompose_address, decompose_addresses,
                             draw_below)
from helpers import TINY, make_cfg


def test_geometry_defaults_decode_8gb():
    g = Geometry()
    assert g.capacity_bytes == 8 * 2 ** 30
    assert g.num_banks == 4


def test_geometry_rejects_single_row():
    with pytest.raises(ValueError):
        Geometry(rows_per_bank=1)


@given(st.integers(min_value=0, max_value=TINY.capacity_bytes - 1))
def test_address_roundtrip_tiny(byte_addr):
    addr = decompose_address(byte_addr, TINY)
    addr.check(TINY)
    # compose returns the line-aligned base of the byte address
    assert compose_address(addr, TINY) == (byte_addr // LINE_BYTES) * LINE_BYTES


def exactly(addr):
    """`addr` as a LineAddress built field by field, asserting its type."""
    assert type(addr) is LineAddress
    return LineAddress(addr.rank, addr.bank, addr.row, addr.col)


@example(0)
@example(TINY.capacity_bytes - 1)  # the last line: the bottom edge row
@given(st.integers(min_value=0, max_value=TINY.capacity_bytes - 1))
def test_fast_built_addresses_are_line_addresses(byte_addr):
    line = byte_addr // LINE_BYTES
    addr = decompose_address(byte_addr, TINY)
    assert addr == exactly(addr) == LineAddress(0, 0, line, 0)
    rows = [r for r in (line - 1, line + 1) if 0 <= r < TINY.rows_per_bank]
    neighbors = addr.neighbor_rows(TINY)
    assert [exactly(nb) for nb in neighbors] == neighbors
    assert neighbors == [LineAddress(0, 0, r, 0) for r in rows]


def test_capacity_survives_replace_and_pickle():
    """`sweep --jobs` pickles the config, geometry included."""
    for g in (TINY, Geometry(), Geometry(ranks=3, cols_per_row=5)):
        g.capacity_bytes  # noqa: B018 - computed before copying
        for h in (g, dataclasses.replace(g, rows_per_bank=g.rows_per_bank + 1),
                  pickle.loads(pickle.dumps(g)),
                  pickle.loads(pickle.dumps(make_cfg(geometry=g))).geometry):
            assert h.capacity_bytes == h.num_banks * h.lines_per_bank * 64
        assert pickle.loads(pickle.dumps(g)) == g


@given(st.integers(min_value=0))
def test_address_roundtrip_default(line_no):
    g = Geometry()
    byte_addr = (line_no % g.total_lines) * LINE_BYTES
    assert compose_address(decompose_address(byte_addr, g), g) == byte_addr


def test_address_out_of_range():
    with pytest.raises(RangeError):
        decompose_address(TINY.capacity_bytes, TINY)
    with pytest.raises(RangeError):
        decompose_address(-1, TINY)
    with pytest.raises(RangeError):
        LineAddress(0, 0, 8, 0).check(TINY)


@st.composite
def address_runs(draw):
    """A geometry, its radices powers of two or not, and a run of byte
    addresses in it, any byte of any line, with perhaps one address outside
    it, past either end, at any position, followed by more."""
    g = Geometry(ranks=draw(st.integers(1, 5)),
                 banks_per_rank=draw(st.integers(1, 6)),
                 rows_per_bank=draw(st.integers(2, 40)),
                 cols_per_row=draw(st.integers(1, 12)))
    cap = g.capacity_bytes
    in_range = st.integers(0, cap - 1)
    run = draw(st.lists(in_range, max_size=30))
    if draw(st.booleans()):
        bad = draw(st.one_of(st.integers(cap, 2 * cap), st.integers(-cap, -1)))
        run.insert(draw(st.integers(0, len(run))), bad)
        run += draw(st.lists(st.one_of(in_range, st.just(bad)), max_size=5))
    return g, run


@example((TINY, [0, TINY.capacity_bytes - 1, TINY.capacity_bytes, 0]))
@example((Geometry(ranks=3, banks_per_rank=3, rows_per_bank=5,
                   cols_per_row=3), [-1]))
@given(address_runs())
def test_batch_decode_matches_per_address(case):
    """`decompose_addresses` decodes each address as `decompose_address`
    does, with its flat bank number, up to the first one that
    `decompose_address` refuses."""
    g, run = case
    addrs, banks = decompose_addresses(run, g)
    expected = []
    for byte_addr in run:
        try:
            expected.append(decompose_address(byte_addr, g))
        except RangeError:
            break
    assert [exactly(addr) for addr in addrs] == expected
    assert banks == [a.rank * g.banks_per_rank + a.bank for a in expected]
    assert all(0 <= bank < g.num_banks for bank in banks)


def test_neighbor_rows_skip_edges():
    assert LineAddress(0, 0, 0, 0).neighbor_rows(TINY) == [LineAddress(0, 0, 1, 0)]
    assert LineAddress(0, 0, 7, 0).neighbor_rows(TINY) == [LineAddress(0, 0, 6, 0)]
    mid = LineAddress(0, 0, 3, 0).neighbor_rows(TINY)
    assert mid == [LineAddress(0, 0, 2, 0), LineAddress(0, 0, 4, 0)]


@given(st.integers(min_value=0, max_value=(1 << 512) - 1),
       st.integers(min_value=0, max_value=(1 << 512) - 1))
def test_count_one_to_zero_matches_bitwise(old, new):
    counts = count_one_to_zero(old, new)
    expected = [0] * 8
    for k in range(512):
        if old >> k & 1 == 1 and new >> k & 1 == 0:
            expected[k // 64] += 1
    assert counts == expected


@given(st.integers(min_value=0, max_value=(1 << 512) - 1))
def test_count_zeros_matches_bitwise(line):
    expected = [sum(1 for k in range(64 * i, 64 * i + 64) if line >> k & 1 == 0)
                for i in range(8)]
    assert count_zeros(line) == expected


def test_config_validation():
    with pytest.raises(ValueError):
        make_cfg(strategy="bogus")
    with pytest.raises(ValueError):
        make_cfg(disturb_limit=8, threshold=4)  # 2*threshold must be < limit
    with pytest.raises(ValueError):
        make_cfg(n_mt=8, n_groups=3)
    with pytest.raises(ValueError):
        make_cfg(insert_prob=Fraction(3, 2))
    with pytest.raises(ValueError):
        make_cfg(queue_depth=4, drain_low_watermark=4)
    with pytest.raises(ValueError):
        make_cfg(initial_fill="stripes")
    with pytest.raises(ValueError, match="disturb_limit >= 3"):
        make_cfg(strategy="vnc", disturb_limit=2, threshold=0)
    make_cfg(strategy="vnc", disturb_limit=3, threshold=1)
    make_cfg(strategy="none", disturb_limit=2, threshold=0)


def test_config_derived_defaults():
    cfg = make_cfg(queue_depth=10)
    assert cfg.drain_watermark == 5
    assert make_cfg(queue_depth=10, drain_low_watermark=2).drain_watermark == 2
    assert SiwcCache.entry_count(cfg) == cfg.n_mt + cfg.n_b
    assert SiwcCache.entry_count(make_cfg(siwc_entries=5)) == 5
    assert cfg.fill_line == 0
    assert make_cfg(initial_fill="ones").fill_line == (1 << 512) - 1


def test_cycles_to_ns_rounds_up():
    cfg = make_cfg(controller_clock_hz=800_000_000)  # 1.25 ns per cycle
    assert cfg.cycles_to_ns(0) == 0
    assert cfg.cycles_to_ns(1) == 2
    assert cfg.cycles_to_ns(4) == 5


# A probability as the config or a caller may give it: int, float or Fraction.
PROBABILITIES = st.one_of(
    st.integers(0, 1), st.floats(0, 1), st.fractions(0, 1),
    st.sampled_from([Fraction(1, 3), Fraction(2, 3), Fraction(1, 128),
                     Fraction(2 ** 60 - 1, 2 ** 60), Fraction(1, 2 ** 60)]))


@given(p=PROBABILITIES, offset=st.sampled_from([-1, 0, 1, None]),
       k_random=st.integers(0, 2 ** 53 - 1))
@example(p=Fraction(1, 3), offset=0, k_random=0)
@example(p=1.0, offset=-1, k_random=0)
def test_coin_threshold_decides_as_the_fraction(p, offset, k_random):
    """`random()` returns k / 2**53; for k at, just below and just above
    the bound ceil(n * 2**53 / d), and for any k, comparing with the float
    threshold decides as comparing with the exact probability does."""
    q = Fraction(p)
    bound = -(-q.numerator * 2 ** 53 // q.denominator)
    k = k_random if offset is None else min(max(bound + offset, 0), 2 ** 53 - 1)
    x = k / 2 ** 53
    assert (x < coin_threshold(p)) == (x < q)


def test_coin_threshold_ends():
    assert coin_threshold(0) == 0.0  # never true
    assert coin_threshold(Fraction(1)) == 1.0  # always true, yet still a draw
    assert coin_threshold(Fraction(2 ** 60 - 1, 2 ** 60)) == 1.0
    assert coin_threshold(0.5) == 0.5


@pytest.mark.parametrize("seed", [0, 1, 7, 4242])
def test_draw_below_matches_randrange(seed):
    """Same values and the same generator state as `randrange(n)`, for n
    that are powers of two (where half of all draws are rejected) and for
    the others."""
    for n in range(1, 131):
        ours, theirs = Random(seed), Random(seed)
        got = [draw_below(ours.getrandbits, n, n.bit_length())
               for _ in range(25)]
        assert got == [theirs.randrange(n) for _ in range(25)], n
        assert ours.getstate() == theirs.getstate(), n
