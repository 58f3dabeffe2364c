"""Architectural register file.

The ISA has 32 general purpose registers of 64 bits each.  Register 0 is
hard-wired to zero, as on MIPS.  Values are stored as Python integers in
two's-complement signed range ``[-2**63, 2**63)``; all writes are wrapped to
that range so arithmetic behaves like fixed-width hardware.
"""

from __future__ import annotations

from repro.errors import InvalidRegisterError

#: Number of architectural general purpose registers.
NUM_REGISTERS = 32

#: Width of a register in bits.
REGISTER_WIDTH = 64

_MASK = (1 << REGISTER_WIDTH) - 1
_SIGN_BIT = 1 << (REGISTER_WIDTH - 1)


def wrap_value(value: int) -> int:
    """Wrap ``value`` into signed two's-complement ``REGISTER_WIDTH`` range."""
    value &= _MASK
    if value & _SIGN_BIT:
        value -= 1 << REGISTER_WIDTH
    return value


def to_unsigned(value: int) -> int:
    """Return the unsigned interpretation of a wrapped register value."""
    return value & _MASK


class RegisterFile:
    """A 32-entry general purpose register file with ``r0`` fixed at zero."""

    __slots__ = ("_regs",)

    def __init__(self) -> None:
        self._regs: list[int] = [0] * NUM_REGISTERS

    def read(self, index: int) -> int:
        """Return the signed value stored in register ``index``."""
        self._check(index)
        return self._regs[index]

    def write(self, index: int, value: int) -> int:
        """Write ``value`` (wrapped to 64 bits) to register ``index``.

        Returns the value actually stored.  Writes to register 0 are ignored
        and return 0, matching the MIPS convention.
        """
        self._check(index)
        if index == 0:
            return 0
        wrapped = wrap_value(value)
        self._regs[index] = wrapped
        return wrapped

    @property
    def cells(self) -> list[int]:
        """The live list of register values, indexed by register number.

        The compiled interpreter reads and writes it directly instead of
        calling :meth:`read`/:meth:`write` per step, so it must keep the
        same invariants: every value wrapped, ``r0`` left at zero.
        """
        return self._regs

    def snapshot(self) -> tuple[int, ...]:
        """Return an immutable copy of all register values."""
        return tuple(self._regs)

    def reset(self) -> None:
        """Clear every register back to zero."""
        for i in range(NUM_REGISTERS):
            self._regs[i] = 0

    def _check(self, index: int) -> None:
        if not isinstance(index, int) or not 0 <= index < NUM_REGISTERS:
            raise InvalidRegisterError(f"register index {index!r} out of range [0, {NUM_REGISTERS})")

    def __getitem__(self, index: int) -> int:
        return self.read(index)

    def __setitem__(self, index: int, value: int) -> None:
        self.write(index, value)

    def __len__(self) -> int:
        return NUM_REGISTERS

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nonzero = {i: v for i, v in enumerate(self._regs) if v}
        return f"RegisterFile({nonzero})"
