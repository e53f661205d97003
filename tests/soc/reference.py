"""Full-scan occupancy over every set, the reference the touched-set
bookkeeping of :class:`repro.soc.cache.SetAssociativeCache` is pinned to."""

from repro.soc.cache import SetAssociativeCache


def resident_lines_full_scan(cache: SetAssociativeCache) -> int:
    """Valid lines, counted over every set of the tag store."""
    return sum(len(s) for s in cache._sets)


def dirty_lines_full_scan(cache: SetAssociativeCache) -> int:
    """Dirty lines, counted over every set of the tag store."""
    return sum(1 for s in cache._sets for dirty in s.values() if dirty)
