"""Decorative-element tag taxonomy: TTS / Avatar / Music label catalog.

The default taxonomy ships as a data file (``data/decorative_tags.json``)
with 3, 14 and 2 subcategories for TTS, Avatar and Music and 98 label
entries in total. A label string may legitimately recur across
subcategories of one category (e.g. a color appearing both as a race and
a hair color under Avatar); membership checks use (category, label).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .jsonutil import field as json_field
from .jsonutil import loads, read_object

CATEGORIES = ("TTS", "Avatar", "Music")

# decoration-setting field -> taxonomy category
TAG_FIELD_CATEGORY = {
    "tts_tags": "TTS",
    "avatar_tags": "Avatar",
    "music_tags": "Music",
}


@dataclass(frozen=True)
class TagTaxonomy:
    """Immutable category -> subcategory -> label-list mapping."""

    categories: dict[str, dict[str, tuple[str, ...]]]
    _label_sets: dict[str, frozenset[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for cat, subs in self.categories.items():
            if cat not in CATEGORIES:
                raise ValueError(f"unknown category {cat!r}")
            for sub, labels in subs.items():
                if len(set(labels)) != len(labels):
                    raise ValueError(f"duplicate label in {cat}/{sub}")
        sets = {cat: frozenset(l for sub in subs.values() for l in sub) for cat, subs in self.categories.items()}
        object.__setattr__(self, "_label_sets", sets)

    def labels(self, category: str) -> frozenset[str]:
        """All labels of a category (distinct strings)."""
        return self._label_sets.get(category, frozenset())

    def __contains__(self, item: tuple[str, str]) -> bool:
        category, label = item
        return label in self.labels(category)

    def to_dict(self) -> dict:
        return {cat: {sub: list(labels) for sub, labels in subs.items()} for cat, subs in self.categories.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "TagTaxonomy":
        """The taxonomy of ``{category: {subcategory: [label, ...]}}``, each
        level read by :func:`~adcut.jsonutil.field`."""
        cats = {cat: json_field(data, cat, dict) for cat in data}
        return cls({cat: {s: tuple(json_field(subs, s, list, cat, str)) for s in subs} for cat, subs in cats.items()})

    @classmethod
    def load(cls, path: str | Path) -> "TagTaxonomy":
        return cls.from_dict(read_object(path))


@lru_cache(maxsize=1)
def default_taxonomy() -> TagTaxonomy:
    """Taxonomy bundled with the package (98 labels)."""
    return TagTaxonomy.from_dict(loads(resources.files("adcut").joinpath("data/decorative_tags.json").read_bytes()))
