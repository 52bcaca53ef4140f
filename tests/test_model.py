import pytest
from hypothesis import given, strategies as st

from macc import (
    Bits,
    NetworkConfig,
    SubfileLibrary,
    accessible_caches,
    all_demand_vectors,
    library_from_int,
    make_scheme,
    mod_index,
    pack,
    random_library,
    split,
    split_library,
)


def test_bits_basic():
    b = Bits.from01("1011")
    assert b.n == 4 and b.v == 0b1011
    assert b.to01() == "1011"
    assert b.bit(0) == 1 and b.bit(1) == 0 and b.bit(3) == 1
    assert (b ^ Bits.from01("0110")).to01() == "1101"
    assert Bits.zeros(3).to01() == "000"


def test_bits_rejects_mismatched_xor():
    with pytest.raises(ValueError):
        Bits(3, 0) ^ Bits(4, 0)


def test_bits_rejects_overflow():
    with pytest.raises(ValueError):
        Bits(2, 4)


@pytest.mark.parametrize("n", [0, 1, 7, 64, 393_216])
def test_bits_accepts_exactly_zero_to_two_to_the_n_minus_one(n):
    assert Bits(n, 0).v == 0
    assert Bits(n, (1 << n) - 1).v == (1 << n) - 1
    for v in (1 << n, -1):
        with pytest.raises(ValueError, match="does not fit"):
            Bits(n, v)


def _comprehension_split(x, count, width):
    """``split`` in its earlier comprehension form, kept as the oracle of its fields."""
    mask = (1 << width) - 1
    rest = [(x >> (width * i)) & mask for i in range(count - 2, -1, -1)]
    return [x >> (width * (count - 1)), *rest] if count else []


@given(st.integers(0, 6), st.integers(0, 12), st.data())
def test_pack_split_round_trip(count, width, data):
    x = data.draw(st.integers(0, 2 ** (count * width + 3) - 1))
    fields = split(x, count, width)
    assert fields == _comprehension_split(x, count, width)
    assert len(fields) == count and pack(fields, width) == (x if count else 0)
    if x < 1 << (count * width):
        # In range, every field fits its width.
        assert all(0 <= f < 1 << width for f in fields)


@given(st.integers(1, 40), st.data())
def test_bits_slice_concat_inverse(n, data):
    # Cutting a Bits value into 1-bit fields follows Bits.bit order, and packing a head
    # and a tail cut at any point joins back to the whole value.
    v = data.draw(st.integers(0, 2**n - 1))
    cut = data.draw(st.integers(0, n))
    b = Bits(n, v)
    bits = split(b.v, n, 1)
    assert bits == [b.bit(i) for i in range(n)]
    head, tail = pack(bits[:cut], 1), pack(bits[cut:], 1)
    assert Bits(cut, head).to01() + Bits(n - cut, tail).to01() == b.to01()
    assert Bits(n, (head << (n - cut)) | tail) == b


def test_concat_and_xor_helpers():
    # Known layout: the first field sits in the top bits.
    parts = [Bits.from01("10"), Bits.from01("01"), Bits.from01("11")]
    assert Bits(6, pack([p.v for p in parts], 2)).to01() == "100111"
    assert split(0b100111, 3, 2) == [p.v for p in parts]
    acc = Bits.zeros(2)
    for p in parts:
        acc = acc ^ p
    assert acc.to01() == "00"


def test_mod_index_wraps_to_K_not_zero():
    assert mod_index(3, 3) == 3
    assert mod_index(4, 3) == 1
    assert mod_index(6, 3) == 3
    assert [mod_index(i, 5) for i in range(1, 11)] == [1, 2, 3, 4, 5, 1, 2, 3, 4, 5]


def test_accessible_caches_windows():
    cfg = NetworkConfig(5, 3, 2, 10, 5)
    assert accessible_caches(1, cfg) == [1, 2, 3]
    assert accessible_caches(4, cfg) == [4, 5, 1]
    assert accessible_caches(5, cfg) == [5, 1, 2]


def test_equal_network_configs_hash_equal_and_share_cached_plans():
    a, b = NetworkConfig(4, 2, 3, 8, 4), NetworkConfig(4, 2, 3, 8, 4)
    assert a is not b and a == b and hash(a) == hash(b)
    assert repr(a) == "NetworkConfig(K=4, L=2, N=3, F=8, subfiles_per_file=4)"
    assert a != NetworkConfig(4, 2, 2, 8, 4)
    with pytest.raises(AttributeError):
        a.N = 2  # frozen
    scheme, demands = make_scheme("cyclic-uncoded", 1), (1, 2, 3, 1)
    # One cache entry serves both configs: the second lookup returns the first's objects.
    assert scheme._plan(a, demands) is scheme._plan(b, demands)
    assert scheme._peel(a, demands) is scheme._peel(b, demands)


def test_network_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(3, 3, 2, 6, 3)  # L must be < K
    with pytest.raises(ValueError):
        NetworkConfig(3, 2, 2, 7, 3)  # F not divisible by subfile count


def test_split_and_lookup():
    lib = split_library([Bits.from01("101101"), Bits.from01("010010")], 3)
    assert lib.subfile(1, 1).to01() == "10"
    assert lib.subfile(1, 3).to01() == "01"
    assert lib.subfile(2, 2).to01() == "00"
    assert lib.file(1).to01() == "101101"


def test_random_library_deterministic():
    a = random_library(2, 12, 3, 7)
    b = random_library(2, 12, 3, 7)
    assert a == b
    assert a.file_bits == 12 and a.n_files == 2 and a.subfiles_per_file == 3


def test_library_from_int_file_one_in_high_bits():
    # 2 files, 1 subfile each, 2 bits: index 0b1101 puts 11 in file 1.
    lib = library_from_int(2, 1, 2, 0b1101)
    assert lib.file(1).to01() == "11"
    assert lib.file(2).to01() == "01"


def test_library_from_int_enumerates_all():
    seen = {library_from_int(2, 1, 1, x) for x in range(4)}
    assert len(seen) == 4


def test_all_demand_vectors():
    vecs = list(all_demand_vectors(2, 3))
    assert len(vecs) == 8
    assert vecs[0] == (1, 1, 1) and vecs[-1] == (2, 2, 2)
    assert len(set(vecs)) == 8
