"""Caches: the shared LLC, auxiliary tag stores, and the reference
set-associative cache the tag stores are tested against."""

from repro.cache.cache import AccessResult, SetAssocCache
from repro.cache.shared_cache import SharedCache
from repro.cache.auxtag import AuxiliaryTagStore
from repro.cache.bloom import CountingBloomFilter
from repro.cache.pollution_filter import PollutionFilter

__all__ = [
    "AccessResult",
    "SetAssocCache",
    "SharedCache",
    "AuxiliaryTagStore",
    "CountingBloomFilter",
    "PollutionFilter",
]
