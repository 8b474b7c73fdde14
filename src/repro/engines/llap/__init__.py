"""LLAP-style persistent-daemon engine (see :mod:`repro.engines.llap.engine`)."""

from repro.engines.llap.cache import CacheEntry, StripeCache
from repro.engines.llap.engine import LlapEngine

__all__ = ["CacheEntry", "LlapEngine", "StripeCache"]
