"""Reference partition property for the buddy-pool bitmaps, kept with the
tests as the oracle that `rgkit.buddy.mem_part`, which checks one address
per run of equal block indices, is tested against.  It asks at every byte
of the pool how many existing blocks cover it.  `mem_part` below is that
function word for word."""

from __future__ import annotations

from rgkit.buddy import BuddyDims, is_memblock


def mem_part(dims: BuddyDims, bits: list[tuple[str, ...]]) -> bool:
    """Every relative address is covered by exactly one existing block;
    block (i, j) covers [j * (max_sz / 4^i), (j + 1) * (max_sz / 4^i))."""
    for addr in range(dims.total_bytes()):
        covered = 0
        for i in range(dims.n_levels):
            size = dims.level_size(i)
            if size == 0:
                return False
            j = addr // size
            if j < len(bits[i]) and is_memblock(bits[i][j]):
                covered += 1
        if covered != 1:
            return False
    return True
