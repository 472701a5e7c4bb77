"""Application model: categories, traffic demand, and OS updates."""

from repro.apps.categories import (
    AppCategory,
    CATEGORIES,
    CATEGORY_BY_NAME,
    category_name,
)
from repro.apps.demand import CategoryMix, DemandModel
from repro.apps.updates import UpdatePolicy, UpdateModel

__all__ = [
    "AppCategory",
    "CATEGORIES",
    "CATEGORY_BY_NAME",
    "category_name",
    "CategoryMix",
    "DemandModel",
    "UpdatePolicy",
    "UpdateModel",
]
