"""Decorative-element tag taxonomy: TTS / Avatar / Music label catalog.

The default taxonomy ships as a data file (``data/decorative_tags.json``)
with 3, 14 and 2 subcategories for TTS, Avatar and Music and 98 label
entries in total. A label string may legitimately recur across
subcategories of one category (e.g. a color appearing both as a race and
a hair color under Avatar); membership checks use (category, label).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path

CATEGORIES = ("TTS", "Avatar", "Music")

# decoration-setting field -> taxonomy category
TAG_FIELD_CATEGORY = {
    "tts_tags": "TTS",
    "avatar_tags": "Avatar",
    "music_tags": "Music",
}


class TaxonomyError(ValueError):
    """Raised for a malformed taxonomy document."""


@dataclass(frozen=True)
class TagTaxonomy:
    """Immutable category -> subcategory -> label-list mapping."""

    categories: dict[str, dict[str, tuple[str, ...]]]
    _label_sets: dict[str, frozenset[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for cat, subs in self.categories.items():
            if cat not in CATEGORIES:
                raise TaxonomyError(f"unknown category {cat!r}")
            for sub, labels in subs.items():
                if len(set(labels)) != len(labels):
                    raise TaxonomyError(f"duplicate label in {cat}/{sub}")
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
        if not isinstance(data, dict):
            raise TaxonomyError("taxonomy document must be a JSON object")
        cats: dict[str, dict[str, tuple[str, ...]]] = {}
        for cat, subs in data.items():
            if not isinstance(subs, dict):
                raise TaxonomyError(f"category {cat!r} must map subcategories to label lists")
            cats[cat] = {}
            for sub, labels in subs.items():
                if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
                    raise TaxonomyError(f"{cat}/{sub} must be a list of strings")
                cats[cat][sub] = tuple(labels)
        return cls(cats)

    @classmethod
    def load(cls, path: str | Path) -> "TagTaxonomy":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@lru_cache(maxsize=1)
def default_taxonomy() -> TagTaxonomy:
    """Taxonomy bundled with the package (98 labels)."""
    text = resources.files("adcut").joinpath("data/decorative_tags.json").read_text("utf-8")
    return TagTaxonomy.from_dict(json.loads(text))
