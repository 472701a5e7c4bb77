"""Statistical helpers: empirical distributions, growth rates, time series."""

from repro.stats.distributions import (
    Ecdf,
    ecdf,
    ccdf,
    pdf_histogram,
    percentile_band_mask,
)
from repro.stats.growth import annual_growth_rate, linear_fit
from repro.stats.timeseries import (
    HourlySeries,
    bytes_to_mbps,
)

__all__ = [
    "Ecdf",
    "ecdf",
    "ccdf",
    "pdf_histogram",
    "percentile_band_mask",
    "annual_growth_rate",
    "linear_fit",
    "HourlySeries",
    "bytes_to_mbps",
]
