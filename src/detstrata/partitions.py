"""Integer partitions (Young diagrams) and dominant integer weights."""

from __future__ import annotations

from dataclasses import dataclass
from operator import ge, index
from typing import Iterator


def _size(name: str, value) -> int:
    """value as a plain int through ``operator.index``; a TypeError names the argument.

    A float, a string or None raises; a bool reads as 0 or 1.
    """
    try:
        return index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _ints(name: str, values, item=index) -> tuple:
    """tuple(map(item, values)); a TypeError names the argument.

    item reads each entry through ``operator.index``.  values that are not
    iterable or are a text or byte string or a memoryview, or an entry that
    item refuses (a float, a string, None), raise; a bool reads as 0 or 1.
    """
    try:
        if isinstance(values, (str, bytes, bytearray, memoryview)):
            raise TypeError
        return tuple(map(item, values))
    except TypeError:
        raise TypeError(f"{name} must hold only integers, got {values!r}") from None


def _instance(name: str, value, cls: type):
    """value, when it is a cls; a TypeError names the argument otherwise."""
    if not isinstance(value, cls):
        raise TypeError(f"{name} must be of type {cls.__name__}, got {value!r}")
    return value


@dataclass(frozen=True, order=True)
class Partition:
    """A weakly decreasing sequence of nonnegative integers, trailing zeros trimmed.

    The empty sequence is the zero partition.  Equality is structural, so the
    trimming makes ``Partition((3, 1, 0))`` and ``Partition((3, 1))`` the same
    value.  Ordering is lexicographic on the stored parts.  Parts go through
    ``operator.index``, so a float, a string or None raises a TypeError naming ``parts``.
    """

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        parts = _ints("parts", self.parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing: {parts}")
        if parts and parts[-1] < 0:
            raise ValueError(f"parts must be nonnegative: {parts}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        object.__setattr__(self, "parts", parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"

    @property
    def size(self) -> int:
        """Number of boxes of the Young diagram."""
        return sum(self.parts)

    def conjugate(self) -> Partition:
        """Transpose of the Young diagram: row i of the result counts parts >= i."""
        return Partition(_conjugate(self.parts))

    def pad(self, length: int) -> tuple[int, ...]:
        """Parts extended by zeros to the given length."""
        length = _size("length", length)
        if length < len(self.parts):
            raise ValueError(f"partition {self} has more than {length} parts")
        return self.parts + (0,) * (length - len(self.parts))

    def to_json(self) -> list[int]:
        return list(self.parts)


@dataclass(frozen=True)
class IntegerWeight:
    """A weakly decreasing integer sequence of fixed, explicit length.

    Entries go through ``operator.index``, so a float, a string or None raises a TypeError naming ``entries``.
    """

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = _ints("entries", self.entries)
        for a, b in zip(entries, entries[1:]):
            if a < b:
                raise ValueError(f"entries must be weakly decreasing: {entries}")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __repr__(self) -> str:
        return f"IntegerWeight({list(self.entries)})"


def _conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugate of weakly decreasing positive parts, unvalidated: row i counts parts >= i.

    Walking the parts from the last, columns parts[j] + 1 .. parts[j - 1] have
    exactly j boxes.
    """
    out: list[int] = []
    for j in range(len(parts), 0, -1):
        out += [j] * (parts[j - 1] - len(out))
    return tuple(out)


def _box_partitions(rows: int, cols: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """Parts of every partition inside the rows x cols box with lo <= size <= hi, one at a time.

    Unvalidated raw tuples without trailing zeros, for the enumeration route.
    One walk over the box: a prefix is yielded as soon as its size reaches
    lo, before its extensions, and larger parts come before smaller ones, so
    with lo == hi the partitions come lexicographically decreasing.  A part
    is tried only if it keeps the size at most hi and the rows left can still
    bring it to lo, so with lo <= hi every prefix walked leads to a partition
    yielded.  The parts chosen so far are the walk's only stack, so a long
    partition costs no recursion depth and the walk holds one partition at a
    time.
    """
    parts: list[int] = []
    total = 0
    a = min(cols, hi)  # the next part to try: at most the last part and what hi leaves
    while True:
        if lo <= total <= hi:
            yield tuple(parts)
        rows_left = rows - len(parts)
        # Back up until a part fits: within hi, and large enough that the rows left can reach lo.
        while not (rows_left > 0 and a > 0 and total + a * rows_left >= lo):
            if not parts:
                return
            a = parts.pop() - 1
            total -= a + 1
            rows_left += 1
        parts.append(a)
        total += a
        a = min(a, hi - total)


def _in_box(parts: tuple[int, ...], rows: int, cols: int) -> bool:
    """Whether raw parts form a partition (positive, weakly decreasing) inside the rows x cols box.

    A box with a negative side holds nothing, not even the empty partition.
    """
    if cols < 0 or len(parts) > rows:
        return False
    # each part at most the one before it (the first at most cols), and the last positive
    return all(map(ge, (cols,) + parts, parts)) and (not parts or parts[-1] > 0)


def _doubled_partitions(rows: int, cols: int) -> Iterator[tuple[int, ...]]:
    """Parts of every partition inside the rows x cols box with all rows and columns of even length.

    Columns of even length only means the rows come in equal pairs
    (parts[2i] == parts[2i + 1]), because parts[j - 1] - parts[j] columns
    have length exactly j.  With every row even as well, the partition is
    the 2 x 2 blow-up of beta_i = parts[2i] / 2, and beta lies in the
    floor(rows / 2) x floor(cols / 2) box.  So the blow-ups of that box's
    partitions are all of them, each once, yielded one at a time from one
    walk over that box.
    """
    half_rows, half_cols = rows // 2, cols // 2
    return (
        tuple(2 * b for b in beta for _ in (0, 1))
        for beta in _box_partitions(half_rows, half_cols, 0, half_rows * half_cols)
    )


def enumerate_in_rectangle(rows: int, cols: int, k: int) -> list[Partition]:
    """All partitions of size k inside the rows x cols box, lexicographically decreasing.

    They come from one walk over the box with the size window k..k.
    """
    rows, cols, k = _size("rows", rows), _size("cols", cols), _size("k", k)
    if rows < 0 or cols < 0 or k < 0:
        raise ValueError("rows, cols, k must be nonnegative")
    return [Partition(parts) for parts in _box_partitions(rows, cols, k, k)]
