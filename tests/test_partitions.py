import numpy as np
import pytest

from mutindep.partitions import (
    Bipartition,
    Partition,
    bell_number,
    bipartition_masks,
    entailed_dichotomies,
    entailed_masks,
    enumerate_bipartitions,
    enumerate_coarsenings,
    enumerate_partitions,
    format_partition,
    is_refinement,
    join,
    meet,
    meet_all,
    parse_partition,
    stirling2,
)

import oracles


def P(text):
    return parse_partition(text)


def random_partition(rng, n):
    return Partition(rng.integers(0, n, size=n))


# --- canonical representation ---------------------------------------------


def test_constructor_canonicalizes_labels():
    assert Partition([7, 7, "x", 3]).assignment == (0, 0, 1, 2)
    assert Partition("abab").assignment == (0, 1, 0, 1)


def test_equality_is_representation_equality():
    assert P("12|3|4") == Partition([0, 0, 1, 2])
    assert P("3|12|4") == P("12|3|4")  # block order is irrelevant
    assert hash(P("12|34")) == hash(Partition([5, 5, 9, 9]))


def test_blocks_ordered_by_least_element():
    assert P("4|3|12").blocks() == ((1, 2), (3,), (4,))


def test_empty_ground_set_rejected():
    with pytest.raises(ValueError):
        Partition([])


# --- parse / format --------------------------------------------------------


@pytest.mark.parametrize(
    "text,blocks",
    [
        ("12|3|4", ((1, 2), (3,), (4,))),
        ("1,2,3,5,6|4", ((1, 2, 3, 5, 6), (4,))),
        ("1 2|3 4", ((1, 2), (3, 4))),
        ("12356|4", ((1, 2, 3, 5, 6), (4,))),
        ("1", ((1,),)),
        ("1,2|3,10|4,5,6,7,8,9", ((1, 2), (3, 10), (4, 5, 6, 7, 8, 9))),
    ],
)
def test_parse_examples(text, blocks):
    assert parse_partition(text).blocks() == blocks


def test_parse_multidigit_indices():
    p = parse_partition("1,11|2,3,4,5,6,7,8,9,10,12")
    assert p.blocks()[0] == (1, 11)
    assert p.n == 12


@pytest.mark.parametrize(
    "bad",
    ["1|1|2", "1|3", "", "  ", "1||2", "1|a", "0|1", "1,2|2,3"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_partition(bad)


def test_format_roundtrip_exhaustive_small():
    for n in range(1, 8):
        for p in enumerate_partitions(n):
            assert parse_partition(format_partition(p)) == p


def test_format_uses_commas_above_nine():
    p = Partition.one_block(10)
    assert format_partition(p) == "1,2,3,4,5,6,7,8,9,10"
    assert format_partition(Partition.one_block(9)) == "123456789"


def test_format_roundtrip_random_large():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(10, 20))
        p = random_partition(rng, n)
        assert parse_partition(format_partition(p)) == p


# --- meet / join / refinement ----------------------------------------------


def test_meet_worked_example():
    step = meet(P("123|4"), P("124|3"))
    assert step == P("12|3|4")
    assert meet(step, P("12|34")) == P("12|3|4")


def test_meet_idempotent_and_bottom_absorbs():
    p = P("12|34")
    assert meet(p, p) == p
    bottom = Partition.singletons(4)
    assert meet(bottom, p) == bottom


def test_join_examples():
    assert join(P("12|3|4"), P("1|2|34")) == P("12|34")
    p = P("13|24")
    assert join(p, p) == p
    assert join(Partition.one_block(4), p) == Partition.one_block(4)


def test_refinement_examples():
    assert is_refinement(P("1|23|45|6"), P("123|45|6"))
    p = P("12|3|4")
    assert is_refinement(p, p)
    assert not is_refinement(P("123|45|6"), P("1|23|45|6"))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        meet(P("12"), P("12|3"))
    with pytest.raises(ValueError):
        join(P("12"), P("12|3"))
    with pytest.raises(ValueError):
        is_refinement(P("12"), P("12|3"))


def test_lattice_laws_random_triples():
    # commutativity, associativity, idempotence, absorption on 10^4 triples
    rng = np.random.default_rng(20260803)
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        p, q, r = (random_partition(rng, n) for _ in range(3))
        assert meet(p, q) == meet(q, p)
        assert join(p, q) == join(q, p)
        assert meet(meet(p, q), r) == meet(p, meet(q, r))
        assert join(join(p, q), r) == join(p, join(q, r))
        assert meet(p, p) == p and join(p, p) == p
        assert meet(p, join(p, q)) == p
        assert join(p, meet(p, q)) == p


def test_order_consistency_random_pairs():
    rng = np.random.default_rng(20260804)
    for _ in range(5_000):
        n = int(rng.integers(1, 9))
        p, q = random_partition(rng, n), random_partition(rng, n)
        ref = is_refinement(p, q)
        assert ref == (meet(p, q) == p)
        assert ref == (join(p, q) == q)


def test_against_set_algebra_oracle():
    rng = np.random.default_rng(20260805)
    for _ in range(2_000):
        n = int(rng.integers(1, 8))
        p, q = random_partition(rng, n), random_partition(rng, n)
        bp, bq = oracles.as_block_sets(p), oracles.as_block_sets(q)
        assert oracles.as_block_sets(meet(p, q)) == oracles.meet_blocks(bp, bq)
        assert oracles.as_block_sets(join(p, q)) == oracles.join_blocks(bp, bq)
        assert is_refinement(p, q) == oracles.is_refinement_blocks(bp, bq)


def test_meet_all():
    assert meet_all([P("123|4"), P("124|3"), P("12|34")]) == P("12|3|4")
    p = P("13|24")
    assert meet_all([p]) == p
    all_bips = [b.to_partition() for b in enumerate_bipartitions(4)]
    assert meet_all(all_bips) == Partition.singletons(4)
    with pytest.raises(ValueError):
        meet_all([])
    with pytest.raises(ValueError, match="ground sets differ: 4 vs 3"):
        meet_all([p, P("12|34"), P("12|3")])


def test_enumerations_refuse_more_than_max_variables():
    from mutindep._kernels import MAX_VARIABLES

    limit = MAX_VARIABLES
    assert len(bipartition_masks(limit)) == 2 ** (limit - 1) - 1
    for enumerate_all in (bipartition_masks, enumerate_bipartitions):
        with pytest.raises(ValueError, match=f"limited to {limit} variables"):
            enumerate_all(limit + 1)
    with pytest.raises(ValueError, match=f"limited to {limit} blocks"):
        entailed_dichotomies(Partition.singletons(limit + 1))
    # the limit is on blocks, not on variables
    wide = Partition([0] * 10 + [1] * 10 + [2] * 10)
    assert [str(b) for b in entailed_dichotomies(wide)] == [
        format_partition(Partition([0] * 10 + [1] * 20)),
        format_partition(Partition([0] * 20 + [1] * 10)),
        format_partition(Partition([0] * 10 + [1] * 10 + [0] * 10)),
    ]


# --- bipartitions -----------------------------------------------------------


def test_enumerate_bipartitions_counts():
    assert len(enumerate_bipartitions(4)) == 7
    assert len(enumerate_bipartitions(6)) == 31
    two = enumerate_bipartitions(2)
    assert len(two) == 1 and str(two[0]) == "1|2"


def test_enumerate_bipartitions_order_and_membership():
    bips = enumerate_bipartitions(5)
    masks = [b.members for b in bips]
    assert masks == sorted(masks)
    assert len(set(masks)) == len(masks)
    for b in bips:
        members, complement = b.to_partition().blocks()
        assert 1 in members
        assert complement


def test_bipartition_validation():
    with pytest.raises(ValueError):
        Bipartition(4, 0b0110)  # element 1 missing
    with pytest.raises(ValueError):
        Bipartition(4, 0b1111)  # empty complement
    with pytest.raises(ValueError):
        Bipartition(1, 0b1)
    with pytest.raises(ValueError):
        Bipartition(33, 1)
    with pytest.raises(ValueError):
        enumerate_bipartitions(33)


def test_bipartition_to_partition():
    b = Bipartition(4, 0b1011)
    assert b.to_partition() == P("124|3")
    assert b.sizes() == (3, 1)
    assert str(b) == "124|3"


# --- entailed dichotomies ---------------------------------------------------


def test_entailed_dichotomies_examples():
    got = {str(b) for b in entailed_dichotomies(P("12|3|4"))}
    assert got == {"123|4", "124|3", "12|34"}
    assert entailed_dichotomies(Partition.one_block(6)) == []
    assert set(entailed_dichotomies(Partition.singletons(6))) == set(
        enumerate_bipartitions(6)
    )


def test_entailed_dichotomies_count_property():
    for n in range(2, 9):
        for mu in enumerate_partitions(n):
            k = mu.block_count
            dichotomies = entailed_dichotomies(mu)
            assert len(dichotomies) == 2 ** (k - 1) - 1
            assert len(set(dichotomies)) == len(dichotomies)
            for b in dichotomies:
                assert is_refinement(mu, b.to_partition())


def test_dichotomy_reconstruction_exhaustive():
    # meeting all entailed dichotomies recovers the pattern (k >= 2 blocks)
    for n in range(2, 9):
        for mu in enumerate_partitions(n):
            if mu.block_count < 2:
                continue
            lifted = [b.to_partition() for b in entailed_dichotomies(mu)]
            assert meet_all(lifted) == mu


def test_entailed_masks_match_entailed_dichotomies():
    for n in range(2, 7):
        masks = bipartition_masks(n)
        assert masks.tolist() == [b.members for b in enumerate_bipartitions(n)]
        for mu in enumerate_partitions(n):
            expected = {b.members for b in entailed_dichotomies(mu)}
            got = entailed_masks(masks, mu)
            assert got.tolist() == [m in expected for m in masks.tolist()]


# --- coarsenings -------------------------------------------------------------


def test_enumerate_coarsenings_examples():
    got = {str(p) for p in enumerate_coarsenings(P("12|3|4"))}
    assert got == {"12|3|4", "123|4", "124|3", "12|34", "1234"}
    top = Partition.one_block(6)
    assert enumerate_coarsenings(top) == [top]
    assert len(enumerate_coarsenings(Partition.singletons(6))) == 203


def test_coarsening_meet_recovers_pattern():
    for n in range(1, 9):
        for mu in enumerate_partitions(n):
            coarser = enumerate_coarsenings(mu)
            assert len(coarser) == bell_number(mu.block_count)
            assert len(set(coarser)) == len(coarser)
            assert mu in coarser
            assert Partition.one_block(n) in coarser
            assert meet_all(coarser) == mu
            for p in coarser:
                assert is_refinement(mu, p)


def test_coarsening_block_guard():
    with pytest.raises(ValueError):
        enumerate_coarsenings(Partition.singletons(13))


# --- enumeration and counting ------------------------------------------------


def test_enumerate_partitions_counts():
    assert len(enumerate_partitions(1)) == 1
    assert len(enumerate_partitions(4)) == 15
    assert len(enumerate_partitions(10)) == 115_975


def test_enumerate_partitions_canonical_unique():
    for n in range(1, 9):
        parts = enumerate_partitions(n)
        assert len(set(parts)) == len(parts) == bell_number(n)
        for k in range(1, n + 1):
            count = sum(1 for p in parts if p.block_count == k)
            assert count == stirling2(n, k)


def test_enumerate_partitions_guard():
    with pytest.raises(ValueError):
        enumerate_partitions(11)
    with pytest.raises(ValueError):
        enumerate_partitions(0)


def test_bell_numbers():
    expected = [1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]
    assert [bell_number(n) for n in range(1, 11)] == expected
    assert bell_number(20) == 51_724_158_235_372


def test_stirling_numbers():
    assert stirling2(20, 2) == 524_287
    for n in range(1, 21):
        assert stirling2(n, 2) == 2 ** (n - 1) - 1
        assert stirling2(n, n) == 1
        assert stirling2(n, 1) == 1
    assert stirling2(5, 0) == 0
    assert stirling2(5, 6) == 0


def test_counting_guard():
    with pytest.raises(ValueError):
        bell_number(27)
    with pytest.raises(ValueError):
        stirling2(27, 3)
    with pytest.raises(ValueError):
        bell_number(0)
