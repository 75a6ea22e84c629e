"""Experiment report rows with deterministic CSV/JSON emission."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

COLUMNS = ("experiment", "p", "d", "group_order", "statistic", "value", "bound", "samples", "seed")


@dataclass
class ReportRow:
    experiment: str
    p: int
    d: int
    group_order: int
    statistic: str
    value: float
    bound: float | None
    samples: int | str
    seed: int


class ExperimentReport:
    """Append-only list of rows; every sampled row carries its seed."""

    def __init__(self):
        self.rows: list[ReportRow] = []

    def add(
        self,
        experiment: str,
        statistic: str,
        value: float,
        p: int = 0,
        d: int = 0,
        group_order: int = 0,
        bound: float | None = None,
        samples: int | str = "exact",
        seed: int = 0,
    ) -> None:
        self.rows.append(
            ReportRow(
                experiment=experiment,
                p=p,
                d=d,
                group_order=group_order,
                statistic=statistic,
                value=float(value),
                bound=None if bound is None else float(bound),
                samples=samples,
                seed=seed,
            )
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(COLUMNS)
        for row in self.rows:
            writer.writerow(
                [
                    row.experiment,
                    row.p,
                    row.d,
                    row.group_order,
                    row.statistic,
                    repr(row.value),
                    "" if row.bound is None else repr(row.bound),
                    row.samples,
                    row.seed,
                ]
            )
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps([vars(row) for row in self.rows], indent=2) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ValueError(f"unknown format {fmt!r}")
