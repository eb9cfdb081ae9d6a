"""Physical address mapping: RoRaBaVaCo (Table I).

From most to least significant: Row | Rank | Bank | Vault | Column, with the
64 B line offset below the column bits.  Putting the vault bits *low* (just
above the column) interleaves consecutive rows' worth of lines across vaults,
which is what gives the HMC its bank-level parallelism on streaming access -
and, crucially for CAMPS, keeps all 16 lines of one DRAM row inside one vault
so a whole-row prefetch captures the spatial locality of the stream.

All field extraction is mask/shift arithmetic; the mapping also offers
vectorized NumPy decode for trace preprocessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.hmc.config import MAPPING_ORDERS, HMCConfig


@dataclass(frozen=True)
class DecodedAddress:
    """The coordinates of one cache line inside the cube."""

    vault: int
    bank: int
    row: int
    column: int  # line index within the row (0 .. lines_per_row-1)

    def __str__(self) -> str:
        return f"v{self.vault}.b{self.bank}.r{self.row}.c{self.column}"


class AddressMapping:
    """Bidirectional address <-> (vault, bank, row, column) mapping.

    ``order`` selects the field layout; the default ``"RoBaVaCo"`` is the
    paper's RoRaBaVaCo with zero rank bits.  Other orders are provided for
    the mapping ablation - e.g. ``"RoCoBaVa"`` puts the column bits high,
    destroying the property that a row's 16 lines live in one vault (and
    with it most of whole-row prefetching's value).
    """

    def __init__(self, config: HMCConfig, order: Optional[str] = None) -> None:
        self.config = config
        order = order or config.address_mapping
        if order not in MAPPING_ORDERS:
            raise ValueError(
                f"unknown mapping order {order!r}; "
                f"available: {', '.join(MAPPING_ORDERS)}"
            )
        self.order = order
        self.offset_bits = (config.line_bytes - 1).bit_length()
        self.column_bits = (config.lines_per_row - 1).bit_length()
        self.vault_bits = (config.vaults - 1).bit_length()
        self.bank_bits = (config.banks_per_vault - 1).bit_length()
        self.rank_bits = config.rank_bits

        widths = {
            "column": self.column_bits,
            "vault": self.vault_bits,
            "bank": self.bank_bits,
        }
        shift = self.offset_bits
        shifts = {}
        for field in reversed(MAPPING_ORDERS[order]):  # LSB upward
            shifts[field] = shift
            shift += widths.get(field, 0)  # "row" takes all remaining bits
        self.column_shift = shifts["column"]
        self.vault_shift = shifts["vault"]
        self.bank_shift = shifts["bank"]
        self.rank_shift = shifts["row"]
        self.row_shift = shifts["row"] + self.rank_bits

        self.column_mask = config.lines_per_row - 1
        self.vault_mask = config.vaults - 1
        self.bank_mask = config.banks_per_vault - 1

    # ------------------------------------------------------------------
    # Scalar interface (hot path: one decode per memory request)
    # ------------------------------------------------------------------
    def decode(self, addr: int) -> DecodedAddress:
        """Decode a byte address into cube coordinates."""
        if addr < 0:
            raise ValueError(f"address must be non-negative, got {addr}")
        return DecodedAddress(
            vault=(addr >> self.vault_shift) & self.vault_mask,
            bank=(addr >> self.bank_shift) & self.bank_mask,
            row=addr >> self.row_shift,
            column=(addr >> self.column_shift) & self.column_mask,
        )

    def encode(self, vault: int, bank: int, row: int, column: int = 0) -> int:
        """Build the byte address of a line from its cube coordinates."""
        if not 0 <= vault < self.config.vaults:
            raise ValueError(f"vault {vault} out of range")
        if not 0 <= bank < self.config.banks_per_vault:
            raise ValueError(f"bank {bank} out of range")
        if not 0 <= column < self.config.lines_per_row:
            raise ValueError(f"column {column} out of range")
        if row < 0:
            raise ValueError("row must be non-negative")
        return (
            (row << self.row_shift)
            | (bank << self.bank_shift)
            | (vault << self.vault_shift)
            | (column << self.column_shift)
        )

    def line_address(self, addr: int) -> int:
        """Round a byte address down to its 64 B line base."""
        return addr & ~((1 << self.offset_bits) - 1)

    def row_key(self, addr: int) -> Tuple[int, int, int]:
        """(vault, bank, row) identity of the DRAM row holding ``addr``."""
        return (
            (addr >> self.vault_shift) & self.vault_mask,
            (addr >> self.bank_shift) & self.bank_mask,
            addr >> self.row_shift,
        )

    # ------------------------------------------------------------------
    # Vectorized interface (trace preprocessing)
    # ------------------------------------------------------------------
    def decode_many(
        self, addrs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized decode; returns (vault, bank, row, column) arrays."""
        a = np.asarray(addrs, dtype=np.int64)
        vault = (a >> self.vault_shift) & self.vault_mask
        bank = (a >> self.bank_shift) & self.bank_mask
        row = a >> self.row_shift
        column = (a >> self.column_shift) & self.column_mask
        return vault, bank, row, column

    def encode_many(
        self,
        vault: np.ndarray,
        bank: np.ndarray,
        row: np.ndarray,
        column: np.ndarray,
    ) -> np.ndarray:
        """Vectorized encode of coordinate arrays into byte addresses."""
        return (
            (np.asarray(row, dtype=np.int64) << self.row_shift)
            | (np.asarray(bank, dtype=np.int64) << self.bank_shift)
            | (np.asarray(vault, dtype=np.int64) << self.vault_shift)
            | (np.asarray(column, dtype=np.int64) << self.column_shift)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AddressMapping Ro[{self.row_shift}+]Ba[{self.bank_shift}"
            f"+{self.bank_bits}]Va[{self.vault_shift}+{self.vault_bits}]"
            f"Co[{self.column_shift}+{self.column_bits}]>"
        )
