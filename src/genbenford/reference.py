"""Bundled reference survey of first-digit distributions.

The survey data file carries, for each classic integer sequence, the sample
size, the published percentage of each leading digit, and the series
truncation index used when replicating published Pareto-Benford fits.
Rows marked `generated` can be rebuilt exactly from the sequence
generators; rows marked `reconstructed` have no public construction and
are rebuilt from their percentages by largest-remainder rounding.

Set the BENFORD_DATA_DIR environment variable to override the bundled
data directory.
"""
from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

from .digits import DigitHistogram, histogram_from_percentages

__all__ = [
    "SurveyRow",
    "data_dir",
    "load_survey",
]

_ENV_VAR = "BENFORD_DATA_DIR"


def data_dir() -> Path:
    """Directory holding the bundled data files (env-overridable)."""
    override = os.environ.get(_ENV_VAR)
    if override:
        return Path(override)
    return Path(resources.files("genbenford") / "data")


@dataclass(frozen=True)
class SurveyRow:
    key: str
    label: str
    source: str          # "generated" | "reconstructed"
    kind: Optional[str]  # sequence kind for the generator, if any
    param: Optional[int]
    n: int
    percentages: tuple
    series_m: int

    def histogram(self) -> DigitHistogram:
        """The row's digit histogram: generated, or rebuilt from percentages."""
        if self.source != "generated":
            return histogram_from_percentages(self.percentages, self.n)
        from .sequences import SequenceSpec, digit_histogram_of

        return digit_histogram_of(SequenceSpec(kind=self.kind, param=self.param or 0))


def load_survey() -> list[SurveyRow]:
    with open(data_dir() / "digit_survey.csv", newline="") as fh:
        reader = csv.DictReader(line for line in fh if not line.startswith("#"))
        return [
            SurveyRow(
                key=rec["key"],
                label=rec["label"],
                source=rec["source"],
                kind=rec["kind"] or None,
                param=int(rec["param"]) if rec["param"] else None,
                n=int(rec["n"]),
                percentages=tuple(float(rec[f"pct{d}"]) for d in range(1, 10)),
                series_m=int(rec["series_m"]),
            )
            for rec in reader
        ]

