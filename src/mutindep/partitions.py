"""Set partitions of {1..n} and their refinement lattice.

A partition stands for a grouping of variables into mutually independent
blocks; a bipartition (2-block partition) is the unit hypothesis of a
dichotomy test.  Partitions are kept in canonical restricted-growth form,
so two equal partitions are representation-equal and hash-equal.
"""

import functools
import re

import numpy as np

from ._kernels import _integer, check_size

# Largest n accepted by the public counting functions.  Bell/Stirling values
# up to this point fit a signed 64-bit int (bell_number(26) does not); Python
# ints are exact regardless, the bound just keeps the contract portable.
COUNT_LIMIT = 25

_TOKEN_SPLIT = re.compile(r"[,\s]+")


class Partition:
    """A set partition of {1..n} in canonical restricted-growth form.

    The constructor accepts any sequence of n block labels (element i gets
    ``labels[i-1]``) and relabels them by first occurrence, which yields the
    canonical restricted-growth string: ``assignment[0] == 0`` and each id is
    at most one above the running maximum.  Blocks are therefore numbered by
    ascending least element.
    """

    __slots__ = ("_n", "_assignment")

    def __init__(self, labels):
        labels = tuple(labels)
        if not labels:
            raise ValueError("a partition needs a nonempty ground set")
        ids = {}
        assignment = []
        for lab in labels:
            if lab not in ids:
                ids[lab] = len(ids)
            assignment.append(ids[lab])
        self._assignment = tuple(assignment)
        self._n = len(assignment)

    @classmethod
    def singletons(cls, n):
        """The finest partition 1|2|...|n (bottom of the lattice)."""
        return cls(range(n))

    @classmethod
    def one_block(cls, n):
        """The coarsest partition 12...n (top of the lattice)."""
        return cls([0] * n)

    @classmethod
    def from_blocks(cls, blocks, n=None):
        """Build from an iterable of blocks of 1-based elements.

        The blocks must cover {1..n} exactly once; `n` defaults to the
        largest element mentioned.
        """
        blocks = [tuple(b) for b in blocks]
        elements = [e for b in blocks for e in b]
        if not elements:
            raise ValueError("a partition needs a nonempty ground set")
        if n is None:
            n = max(elements)
        seen = set()
        for e in elements:
            if not isinstance(e, int) or e < 1 or e > n:
                raise ValueError(f"element {e!r} out of range 1..{n}")
            if e in seen:
                raise ValueError(f"duplicate element {e}")
            seen.add(e)
        for e in range(1, n + 1):
            if e not in seen:
                raise ValueError(f"missing element {e}")
        labels = [0] * n
        for j, block in enumerate(blocks):
            if not block:
                raise ValueError("empty block")
            for e in block:
                labels[e - 1] = j
        return cls(labels)

    @property
    def n(self):
        return self._n

    @property
    def assignment(self):
        """Tuple of 0-based block ids, one per element, in restricted-growth form."""
        return self._assignment

    @property
    def least_elements(self):
        """Tuple naming each element's block by its least element, 0-based:
        the labels meet_labels gives and entailed_masks takes."""
        least = {}
        return tuple(least.setdefault(b, i) for i, b in enumerate(self._assignment))

    @property
    def block_count(self):
        return max(self._assignment) + 1

    def blocks(self):
        """Blocks as tuples of 1-based elements, ordered by least element."""
        out = [[] for _ in range(self.block_count)]
        for i, b in enumerate(self._assignment):
            out[b].append(i + 1)
        return tuple(tuple(b) for b in out)

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self._assignment == other._assignment

    def __hash__(self):
        return hash(self._assignment)

    def __repr__(self):
        return f"Partition({format_partition(self)!r})"

    def __str__(self):
        return format_partition(self)


class Bipartition:
    """A two-block partition a | complement of {1..n}.

    Stored as the bitmask of the block containing element 1 (bit i-1 stands
    for element i), which removes the a-versus-complement ambiguity.  The
    bitmask representation caps n at 32; general Partition operations carry
    no such cap.  It reads as a Partition (`n`, `assignment`, `blocks()`),
    so meet_all, meet, join, is_refinement and format_partition take it
    as it is.
    """

    __slots__ = ("_n", "_members")

    def __init__(self, n, members):
        if not 2 <= n <= 32:
            raise ValueError(f"bipartitions support 2 <= n <= 32, got n={n}")
        members = int(members)
        full = (1 << n) - 1
        if members & 1 == 0:
            raise ValueError("the members block must contain element 1")
        if members & ~full:
            raise ValueError("members bitmask has bits outside 1..n")
        if members == full:
            raise ValueError("the complement block must be nonempty")
        self._n = n
        self._members = members

    @property
    def n(self):
        return self._n

    @property
    def members(self):
        return self._members

    @property
    def assignment(self):
        """Block ids per element as in Partition.assignment: 0 for the
        members block (it holds element 1), 1 for the complement."""
        members = self._members
        return tuple((members >> i) & 1 ^ 1 for i in range(self._n))

    def blocks(self):
        """(members, complement) as tuples of 1-based elements."""
        members = self._members
        inside = tuple(i + 1 for i in range(self._n) if (members >> i) & 1)
        outside = tuple(i + 1 for i in range(self._n) if not (members >> i) & 1)
        return inside, outside

    def __eq__(self, other):
        if not isinstance(other, Bipartition):
            return NotImplemented
        return self._n == other._n and self._members == other._members

    def __hash__(self):
        return hash((self._n, self._members))

    def __repr__(self):
        return f"Bipartition({format_partition(self)!r})"

    def __str__(self):
        return format_partition(self)


def _check_same_n(p, q):
    if p.n != q.n:
        raise ValueError(f"ground sets differ: {p.n} vs {q.n}")


def meet(p, q):
    """Greatest lower bound: i and j share a block iff they do in both p and q."""
    return meet_all((p, q))


def join(p, q):
    """Least upper bound, via disjoint-set union over the two block relations."""
    _check_same_n(p, q)
    parent = list(range(p.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for part in (p, q):
        first = {}
        for i, lab in enumerate(part.assignment):
            if lab in first:
                ra, rb = find(first[lab]), find(i)
                if ra != rb:
                    parent[rb] = ra
            else:
                first[lab] = i
    return Partition(find(i) for i in range(p.n))


def is_refinement(p, q):
    """True iff every block of p lies inside a block of q (p <= q)."""
    return meet_all((p, q)).assignment == p.assignment


def meet_all(partitions):
    """Meet of a nonempty collection (order-independent): i and j share a
    block iff they do in every partition.  Bipartitions may be mixed in with
    Partitions; the meet is a Partition.

    One pass over the assignments: the Partitions' labels, and for the
    Bipartitions (n <= 32) their meet_labels.
    """
    partitions = list(partitions)
    if not partitions:
        raise ValueError("meet of an empty collection is undefined here")
    n = partitions[0].n
    cuts, assignments = [], []
    for p in partitions:
        if p.n != n:
            _check_same_n(partitions[0], p)
        if isinstance(p, Bipartition):
            cuts.append(p.members)
        else:
            assignments.append(p.assignment)
    if cuts:
        assignments.append(meet_labels(cuts, n, np.ones(len(cuts), dtype=bool)).tolist())
    return Partition(zip(*assignments))


def meet_labels(masks, n, kept):
    """The meet of the dichotomies that `(..., tests)` flags `kept` pick
    from `masks` (members bitmasks of n variables), as `(..., n)` labels:
    each element's block is named by its least element, 0-based.  With
    none kept, the meet is the one block.

    Two elements share a block when they lie on the same side of every kept
    dichotomy.  Each element's sides are read from its bit of the masks'
    little-endian bytes and packed eight dichotomies to a byte, masked by
    the packed `kept`; the signatures are compared one element at a time,
    so no temporary outgrows one byte a dichotomy or the signatures.
    """
    # byte j of mask m holds elements 8j+1..8j+8, bit e % 8 for element e+1
    octets = np.ascontiguousarray(masks, dtype="<u8").view(np.uint8).reshape(-1, 8).T
    sides = np.empty((n, (octets.shape[1] + 7) // 8), dtype=np.uint8)
    for e in range(n):
        sides[e] = np.packbits(octets[e // 8] & (1 << e % 8))
    signatures = sides & np.packbits(kept, axis=-1)[..., None, :]
    labels = np.zeros(signatures.shape[:-1], dtype=np.intp)
    # from the last element down, so the least element of a block labels it last
    for e in reversed(range(n)):
        same = (signatures[..., e:, :] == signatures[..., e, None, :]).all(axis=-1)
        labels[..., e:][same] = e
    return labels


def bipartition_masks(n):
    """Members bitmasks of all 2^(n-1) - 1 bipartitions of {1..n}, ascending.

    The bitmasks with bit 0 (element 1) set, except the full set: the odd
    numbers below 2^n - 1, as a uint64 array.  At most MAX_VARIABLES
    variables.
    """
    check_size(n)
    return np.arange(1, 2**n - 1, 2, dtype=np.uint64)


def enumerate_bipartitions(n):
    """All 2^(n-1) - 1 bipartitions of {1..n}, ascending by members bitmask.

    Each call returns a new list, but the Bipartitions in it (immutable) are
    built once and shared by the calls for the same n as the last one.
    """
    return list(_bipartitions(n))


# one entry: `infer` tests the dichotomies of one n (a campaign builds no
# Bipartition), and at n = MAX_VARIABLES (20) the entry holds about 42 MiB
@functools.lru_cache(maxsize=1, typed=True)
def _bipartitions(n):
    return tuple(Bipartition(n, members) for members in bipartition_masks(n).tolist())


def block_masks(mu):
    """The bitmask of each block of mu (bit i-1 for element i), blocks
    ordered by least element."""
    out = [0] * mu.block_count
    for i, b in enumerate(mu.assignment):
        out[b] |= 1 << i
    return out


def _entailed_members(mu):
    """Members bitmasks of the dichotomies entailed by mu, ascending.

    A dichotomy is entailed exactly when it splits no block of mu: its
    members block is the block of element 1 joined with a proper subset of
    the other blocks, 2^(k-1) - 1 choices for k blocks (none when k == 1).
    At most MAX_VARIABLES blocks, and n <= 32 as for a Bipartition.
    """
    blocks = block_masks(mu)
    check_size(len(blocks), "blocks", least=1)
    if len(blocks) == 1:
        return np.zeros(0, dtype=np.uint64)
    # blocks[0] is the least member; building it as a Bipartition refuses
    # n > 32 before the masks are made uint64
    Bipartition(mu.n, blocks[0])
    members = np.array(blocks[:1], dtype=np.uint64)
    for block in blocks[1:]:
        members = np.concatenate([members, members | np.uint64(block)])
    # the last union is every block, which leaves the complement empty
    return np.sort(members[:-1])


def entailed_masks(masks, labels):
    """Which members bitmasks are dichotomies entailed by the partitions
    whose `(..., n)` labels name each element's block by its least element
    (`Partition.least_elements`, or a stack of them), as `(..., tests)`
    flags: for one partition, the members masks of its entailed_dichotomies.

    A dichotomy is entailed when it splits no block: when each element lies
    on the side of its block's least element.
    """
    masks = np.asarray(masks, dtype=np.uint64)
    labels = np.asarray(labels, dtype=np.intp)
    entailed = np.ones(labels.shape[:-1] + masks.shape, dtype=bool)
    # sides[e] is element e+1's bit of each mask; the elements are compared
    # one at a time, so no temporary outgrows the flags or the sides
    sides = np.stack([masks >> np.uint64(e) & np.uint64(1) == 1
                      for e in range(labels.shape[-1])])
    for e, side in enumerate(sides):
        entailed &= sides[labels[..., e]] == side
    return entailed


def entailed_dichotomies(mu):
    """All bipartitions obtained by splitting mu's blocks into two groups.

    These are exactly the dichotomies entailed by the independence pattern
    mu; there are 2^(k-1) - 1 of them for k blocks (none when k == 1).
    Returned ascending by members bitmask.  At most MAX_VARIABLES blocks.
    """
    return [Bipartition(mu.n, m) for m in _entailed_members(mu).tolist()]


def enumerate_coarsenings(mu):
    """All partitions coarser than or equal to mu (Bell(k) of them for k blocks)."""
    k = mu.block_count
    if k > 12:
        raise ValueError(f"coarsening enumeration limited to 12 blocks, got {k}")
    out = []
    for rgs in _iter_restricted_growth(k):
        out.append(Partition(rgs[b] for b in mu.assignment))
    return out


def enumerate_partitions(n):
    """All Bell(n) partitions of {1..n}, canonical, lexicographic by assignment."""
    if not 1 <= n <= 10:
        raise ValueError(f"exhaustive enumeration limited to n <= 10, got n={n}")
    return [Partition(rgs) for rgs in _iter_restricted_growth(n)]


def _iter_restricted_growth(n):
    # Lexicographic restricted-growth strings; b[j] = 1 + max(a[:j]).
    a = [0] * n
    b = [1] * n
    while True:
        yield tuple(a)
        j = n - 1
        while j >= 1 and a[j] == b[j]:
            j -= 1
        if j < 1:
            return
        a[j] += 1
        grow = b[j] + 1 if a[j] == b[j] else b[j]
        for i in range(j + 1, n):
            a[i] = 0
            b[i] = grow


def _check_count_arg(n):
    n = _integer("n", n)
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if n > COUNT_LIMIT:
        raise ValueError(
            f"counting is limited to n <= {COUNT_LIMIT} to stay within 64-bit range"
        )
    return n


def bell_number(n):
    """Number of partitions of an n-element set (exact)."""
    n = _check_count_arg(n)
    return sum(_stirling2_exact(n, k) for k in range(n + 1))


def stirling2(n, k):
    """Number of partitions of an n-element set into exactly k blocks (exact)."""
    n, k = _check_count_arg(n), _integer("k", k)
    if k < 0 or k > n:
        return 0
    return _stirling2_exact(n, k)


@functools.lru_cache(maxsize=None)
def _stirling2_exact(n, k):
    # Unbounded helper (Python ints), also used by bell_number and the uniform
    # partition sampler; every caller, and the recursion, keeps k <= n.
    if k == 0:
        return 1 if n == 0 else 0
    if k == n or k == 1:
        return 1
    return k * _stirling2_exact(n - 1, k) + _stirling2_exact(n - 1, k - 1)


def format_partition(p):
    """Canonical text form: blocks by least element, elements ascending.

    Digit-run style ("12|3") when every index is a single digit, otherwise
    comma-separated ("1,2|3,10").
    """
    blocks = p.blocks()
    if p.n > 9:
        return "|".join(",".join(str(e) for e in b) for b in blocks)
    return "|".join("".join(str(e) for e in b) for b in blocks)


def parse_partition(text):
    """Parse the textual partition grammar.

    Blocks are separated by "|"; within a block, 1-based indices are
    separated by commas or whitespace.  A bare digit run such as "123" is
    read as the single digits 1, 2, 3 when that yields a valid partition
    (only possible for n <= 9); otherwise tokens are multi-digit numbers.
    """
    if not text or not text.strip():
        raise ValueError("empty partition string")
    token_blocks = []
    for block_text in text.strip().split("|"):
        tokens = [t for t in _TOKEN_SPLIT.split(block_text.strip()) if t]
        if not tokens:
            raise ValueError("empty block in partition string")
        for t in tokens:
            if not t.isdigit():
                raise ValueError(f"malformed token {t!r} in partition string")
        token_blocks.append(tokens)

    # Whole numbers first; the digit-run reading only exists for n <= 9, and
    # at most one of the two interpretations can form a valid partition.
    numbers = [[int(t) for t in toks] for toks in token_blocks]
    try:
        return Partition.from_blocks(numbers)
    except ValueError:
        tokens = [t for toks in token_blocks for t in toks]
        if all(len(t) == 1 for t in tokens) or any("0" in t for t in tokens):
            raise
    return Partition.from_blocks(
        [[int(ch) for t in toks for ch in t] for toks in token_blocks]
    )
