"""Run reports, traffic accounting helpers, and scaling fits."""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence


def duplicate_ratio(batches: Sequence[Sequence[bytes]]) -> float:
    """1 - unique/total over all requests in the delivered batches."""
    reqs = [r for batch in batches for r in batch]
    if not reqs:
        return 0.0
    return 1.0 - len(set(reqs)) / len(reqs)


def scaling_fit(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x); all values must be > 0."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two points")
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = math.fsum(lx) / len(lx)
    my = math.fsum(ly) / len(ly)
    sxx = math.fsum((a - mx) ** 2 for a in lx)
    if sxx == 0:
        raise ValueError("need at least two distinct x values")
    return math.fsum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sxx


@dataclass
class RunReport:
    config: dict
    stalled: bool
    steps: int
    messages: int  # envelopes sent by honest parties, counted at delivery
    bytes: int
    finalized_instances: int
    phases: Dict[int, int]  # instance -> max phases over honest parties
    rounds: Dict[str, int]  # "instance:slot" -> max decided round over honest
    decisions: Dict[str, int]  # "instance:slot" -> decided bit
    duplicate_ratios: Dict[int, float]
    delivered_total: int
    log_digest: str
    lemma: List[dict]
    censorship: Optional[dict]
    assertions: Dict[str, bool]
    failures: List[str] = field(default_factory=list)
    fairness_overrides: int = 0

    @property
    def ok(self) -> bool:
        return not self.stalled and all(self.assertions.values())

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        for name in ("phases", "duplicate_ratios"):  # int keys, as JSON strings
            d[name] = {str(k): v for k, v in sorted(d[name].items())}
        d["ok"] = self.ok
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def write_csv(path: str, rows: List[dict]) -> None:
    if not rows:
        raise ValueError("no rows to write")
    fields = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
