"""Fixtures shared by the acceptance suite and the abstract's claims: the
bundled survey rows, their histograms and each law's fit, computed once
per session."""
import pytest

from genbenford import Benford, fit_pb, fit_tspb, goodness_of_fit, load_survey


@pytest.fixture(scope="session")
def rows():
    return {r.key: r for r in load_survey()}


@pytest.fixture(scope="session")
def histograms(rows):
    return {key: row.histogram() for key, row in rows.items()}


@pytest.fixture(scope="session")
def fits(rows, histograms):
    out = {}
    for key, row in rows.items():
        h = histograms[key]
        out[key] = {
            "benford": goodness_of_fit(h, Benford(), 0),
            "tspb": fit_tspb(h),
            "pb": fit_pb(h, m=row.series_m),
        }
    return out
