"""Sparse word-addressable data memory.

The synthetic workloads manipulate arrays, hash tables, linked structures and
strings; a sparse dictionary keyed by word address is sufficient and keeps the
interpreter simple and fast.  Addresses are byte addresses but storage is per
64-bit word (the ``lb``/``sb`` byte forms operate on the low byte of the
addressed word), which is a deliberate simplification: the predictors only
see result *values*, so sub-word packing does not affect any experiment.
"""

from __future__ import annotations

from repro.errors import MemoryError_
from repro.isa.registers import wrap_value

#: Number of bytes per memory word.
WORD_SIZE = 8


def invalid_address(address: object) -> MemoryError_:
    """The error raised for an access to ``address`` (negative or not an int)."""
    return MemoryError_(f"invalid memory address {address!r}")


class SparseMemory:
    """A sparse, lazily-allocated data memory.

    Uninitialised locations read as zero, which mirrors the zero-filled BSS
    segments the original benchmarks rely on.
    """

    __slots__ = ("_words",)

    def __init__(self, initial: dict[int, int] | None = None) -> None:
        self._words: dict[int, int] = {}
        if initial:
            for address, value in initial.items():
                self.store_word(address, value)

    @staticmethod
    def _word_index(address: int) -> int:
        if not isinstance(address, int) or address < 0:
            raise invalid_address(address)
        return address // WORD_SIZE

    @property
    def words(self) -> dict[int, int]:
        """The live mapping of word index (``address // WORD_SIZE``) to value.

        The compiled interpreter accesses it directly; it must store only
        wrapped values and check addresses as :meth:`load_word` does.
        """
        return self._words

    def load_word(self, address: int) -> int:
        """Return the signed 64-bit word containing byte ``address``."""
        return self._words.get(self._word_index(address), 0)

    def store_word(self, address: int, value: int) -> int:
        """Store ``value`` (wrapped to 64 bits) at byte ``address``'s word."""
        wrapped = wrap_value(value)
        self._words[self._word_index(address)] = wrapped
        return wrapped

    def load_byte(self, address: int) -> int:
        """Return the low byte (0..255) of the word containing ``address``."""
        return self.load_word(address) & 0xFF

    def store_byte(self, address: int, value: int) -> int:
        """Store ``value & 0xFF`` into the low byte of the addressed word."""
        index = self._word_index(address)
        word = self._words.get(index, 0)
        new_word = wrap_value((word & ~0xFF) | (value & 0xFF))
        self._words[index] = new_word
        return new_word & 0xFF

    def footprint(self) -> int:
        """Return the number of distinct words ever written."""
        return len(self._words)

    def clear(self) -> None:
        """Discard all memory contents."""
        self._words.clear()

    def __contains__(self, address: int) -> bool:
        return self._word_index(address) in self._words

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SparseMemory(words={len(self._words)})"
