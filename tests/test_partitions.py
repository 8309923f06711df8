import numpy as np
import pytest

from mutindep.inference import resolve_pattern
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
    meet_labels,
    parse_partition,
    stirling2,
)
from mutindep.randomness import RngStream, random_partition_with_k_blocks

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
    for empty in (lambda: Partition([]), lambda: Partition.one_block(0),
                  lambda: Partition.singletons(0)):
        with pytest.raises(ValueError, match="a partition needs a nonempty ground set"):
            empty()


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
    assert meet_all(enumerate_bipartitions(4)) == Partition.singletons(4)
    with pytest.raises(ValueError):
        meet_all([])
    with pytest.raises(ValueError, match="ground sets differ: 4 vs 3"):
        meet_all([p, P("12|34"), P("12|3")])
    # every input is checked, also past the point where the meet is 1|2|3|4
    with pytest.raises(ValueError, match="ground sets differ: 4 vs 3"):
        meet_all(enumerate_bipartitions(4) + [P("12|3")])


def test_meet_of_many_block_partitions():
    # element i goes with i mod a and with i mod b, so with i mod lcm(a, b)
    n = 3000
    p, q = Partition(i % 40 for i in range(n)), Partition(i % 75 for i in range(n))
    assert meet(p, q) == Partition(i % 600 for i in range(n))
    assert meet_all([p, q, Partition.singletons(n)]) == Partition.singletons(n)
    assert is_refinement(Partition.singletons(n), q)
    assert not is_refinement(p, q)


def test_meet_all_matches_the_oracle_on_mixed_inputs():
    rng = np.random.default_rng(20261019)
    for n in range(2, 13):
        bipartitions = enumerate_bipartitions(n)
        mixes = [bipartitions]  # the full enumeration meets to the singletons
        for _ in range(40):
            mixes.append([
                bipartitions[int(rng.integers(len(bipartitions)))] if rng.random() < 0.5
                else Partition(rng.integers(0, int(rng.integers(1, n + 1)), size=n))
                for _ in range(int(rng.integers(1, 9)))
            ])
        for inputs in mixes:
            expected = oracles.as_block_sets(inputs[0])
            for p in inputs[1:]:
                expected = oracles.meet_blocks(expected, oracles.as_block_sets(p))
            assert oracles.as_block_sets(meet_all(inputs)) == expected
        assert meet_all(bipartitions) == Partition.singletons(n)


def test_meet_labels_of_all_twenty_variable_dichotomies_match_the_oracle():
    # planted truths of 1, 3 and 6 blocks: their negatives, some of those
    # dropped, and a few positives added, as one stacked call over all
    # 524,287 dichotomies; then none and all of them kept
    n = 20
    rng = np.random.default_rng(20261020)
    masks = bipartition_masks(n)
    everything = frozenset(range(1, n + 1))
    kept = []
    for blocks in (1, 3, 6):
        truth = random_partition_with_k_blocks(n, blocks, RngStream(20261020, blocks))
        entailed = entailed_masks(masks, truth)
        added = np.zeros(masks.size, dtype=bool)
        added[rng.integers(masks.size, size=3)] = True
        kept += [entailed, entailed & (rng.random(masks.size) < 0.5), entailed | added]
    labels = meet_labels(masks, n, np.array(kept))
    for keep, row in zip(kept, labels.tolist()):
        expected = frozenset([everything])
        for members in masks[keep].tolist():
            side = frozenset(e for e in everything if members >> (e - 1) & 1)
            expected = oracles.meet_blocks(expected, {side, everything - side})
        assert oracles.as_block_sets(Partition(row)) == expected
        assert all(label == row.index(label) for label in row)
    assert meet_labels(masks, n, np.zeros(masks.size, dtype=bool)).tolist() == [0] * n
    assert meet_labels(masks, n, np.ones(masks.size, dtype=bool)).tolist() == list(range(n))


def test_enumerations_refuse_more_than_max_variables():
    from mutindep._kernels import MAX_VARIABLES

    limit = MAX_VARIABLES
    assert len(bipartition_masks(limit)) == 2 ** (limit - 1) - 1
    for enumerate_all in (bipartition_masks, enumerate_bipartitions):
        with pytest.raises(ValueError, match=f"n={limit + 1} variables: the limit is "
                                             f"2 <= n <= {limit}"):
            enumerate_all(limit + 1)
        with pytest.raises(ValueError, match="n=1 variables: the limit is 2 <= n"):
            enumerate_all(1)
    with pytest.raises(ValueError, match=f"n={limit + 1} blocks: the limit is "
                                         f"1 <= n <= {limit}"):
        entailed_dichotomies(Partition.singletons(limit + 1))
    # the limit is on blocks, not on variables
    wide = Partition([0] * 10 + [1] * 10 + [2] * 10)
    assert [str(b) for b in entailed_dichotomies(wide)] == [
        format_partition(Partition([0] * 10 + [1] * 20)),
        format_partition(Partition([0] * 20 + [1] * 10)),
        format_partition(Partition([0] * 10 + [1] * 10 + [0] * 10)),
    ]
    # and on elements, the Bipartition's, whichever size a block mask takes
    assert entailed_dichotomies(Partition.one_block(65)) == []
    with pytest.raises(ValueError, match="bipartitions support 2 <= n <= 32, got n=65"):
        entailed_dichotomies(Partition([0] + [1] * 64))


# --- bipartitions -----------------------------------------------------------


def test_enumerate_bipartitions_counts():
    assert len(enumerate_bipartitions(4)) == 7
    assert len(enumerate_bipartitions(6)) == 31
    two = enumerate_bipartitions(2)
    assert len(two) == 1 and str(two[0]) == "1|2"


def test_enumerate_bipartitions_shares_only_the_objects():
    def fresh(n):
        return [Bipartition(n, members) for members in range(1, 2**n - 1, 2)]

    lists = [enumerate_bipartitions(n) for n in (4, 5, 4)]
    for bips, n in zip(lists, (4, 5, 4)):
        assert bips == fresh(n)
        assert all(type(b.n) is int and b.n == n for b in bips)
    assert lists[0] is not lists[2]
    lists[2].clear()
    lists[2].append(Bipartition(4, 1))
    assert enumerate_bipartitions(4) == fresh(4)


def test_enumerate_bipartitions_order_and_membership():
    bips = enumerate_bipartitions(5)
    masks = [b.members for b in bips]
    assert masks == sorted(masks)
    assert len(set(masks)) == len(masks)
    for b in bips:
        members, complement = b.blocks()
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
    assert b.assignment == (0, 0, 1, 0)
    assert b.blocks() == ((1, 2, 4), (3,))
    assert Partition(b.assignment) == P("124|3")
    assert str(b) == "124|3" and repr(b) == "Bipartition('124|3')"


def _bipartitions_to_check():
    for n in range(2, 8):
        yield from enumerate_bipartitions(n)
    rng = np.random.default_rng(20260861)
    for n in (10, 11):
        for members in rng.integers(0, 2 ** (n - 1) - 1, size=40).tolist():
            yield Bipartition(n, 2 * members + 1)


def test_a_bipartition_reads_as_its_partition():
    # every lattice function and every text form gives the same for b as for
    # the Partition with b's assignment
    rng = np.random.default_rng(20260862)
    for b in _bipartitions_to_check():
        p = Partition(b.assignment)
        assert p.assignment == b.assignment and p.blocks() == b.blocks()
        assert format_partition(b) == format_partition(p) == str(b) == str(p)
        assert repr(b) == repr(p).replace("Partition", "Bipartition")
        other = Bipartition(b.n, 2 * int(rng.integers(0, 2 ** (b.n - 1) - 1)) + 1)
        pairs = [(q, q) for q in (random_partition(rng, b.n), Partition.singletons(b.n),
                                  Partition.one_block(b.n))]
        pairs += [(b, p), (other, Partition(other.assignment))]
        for q, q_as_p in pairs:
            assert meet(b, q) == meet(p, q_as_p)
            assert meet(q, b) == meet(q_as_p, p)
            assert meet_all([b, q]) == meet_all([p, q_as_p])
            assert is_refinement(b, q) == is_refinement(p, q_as_p)
            assert is_refinement(q, b) == is_refinement(q_as_p, p)
        assert meet_all([b]) == p


def test_resolve_pattern_meets_the_survivors_like_the_oracle():
    rng = np.random.default_rng(20260863)
    for n in (2, 3, 5, 8):
        bips = enumerate_bipartitions(n)
        everything = frozenset(range(1, n + 1))
        for trial in range(30):
            # a share of tiny p-values, so that anything from no rejection to
            # every rejection (the last trial: no survivors) comes out
            pvalues = rng.uniform(size=len(bips)) ** rng.uniform(1.0, 40.0)
            if trial == 29:
                pvalues[:] = 0.0
            rejected, mu_hat = resolve_pattern(n, bips, pvalues, 0.1, "fdr")
            expected = frozenset([everything])
            for b, rej in zip(bips, rejected):
                if not rej:
                    members = frozenset(i + 1 for i in range(n) if (b.members >> i) & 1)
                    expected = oracles.meet_blocks(expected, {members, everything - members})
            assert oracles.as_block_sets(mu_hat) == expected
            assert isinstance(mu_hat, Partition)
        assert all(rejected) and mu_hat == Partition.one_block(n)


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
                assert is_refinement(mu, b)


def test_dichotomy_reconstruction_exhaustive():
    # meeting all entailed dichotomies recovers the pattern (k >= 2 blocks)
    for n in range(2, 9):
        for mu in enumerate_partitions(n):
            if mu.block_count < 2:
                continue
            assert meet_all(entailed_dichotomies(mu)) == mu


def test_entailed_masks_match_entailed_dichotomies():
    # both against the set-algebra rule: a dichotomy is entailed when mu
    # refines it
    for n in range(2, 7):
        masks = bipartition_masks(n)
        bipartitions = enumerate_bipartitions(n)
        assert masks.tolist() == [b.members for b in bipartitions]
        for mu in enumerate_partitions(n):
            blocks = oracles.as_block_sets(mu)
            expected = [oracles.is_refinement_blocks(blocks, oracles.as_block_sets(b))
                        for b in bipartitions]
            assert entailed_masks(masks, mu).tolist() == expected
            assert entailed_dichotomies(mu) == [
                b for b, entailed in zip(bipartitions, expected) if entailed]


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
    # COUNT_LIMIT = 25 is the last n at which every count fits a signed
    # 64-bit int
    assert bell_number(25) == 4_638_590_332_229_999_353 < 2**63
    assert max(stirling2(25, k) for k in range(26)) < 2**63
    for too_many in (lambda: bell_number(26), lambda: stirling2(26, 13)):
        with pytest.raises(ValueError, match="limited to n <= 25"):
            too_many()
    with pytest.raises(ValueError):
        bell_number(27)
    with pytest.raises(ValueError):
        stirling2(27, 3)
    with pytest.raises(ValueError):
        bell_number(0)
