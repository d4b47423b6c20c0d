"""Output checks: every report is compared against what it must be.

* **pins** -- for the default seed, each request's report digest
  (per-class detected/total plus ``missed_faults``) must equal the one
  recorded in ``pins.json``;
* **totals** -- for any seed, the per-class totals must equal the
  counts of the request's standard universe;
* **oracle** -- outside the timed region, a seeded sample of faults per
  request (one the report says was missed, one it says was detected) is
  re-run through the interpreted engine
  (``run_coverage(..., engine="interpreted")``) and its verdicts must
  match the report's.

Any mismatch is returned as a message and counts toward ``error_rate``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

from workloads import DEFAULT_SEED, config_id

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "pins.json")


def digest(classes: dict, missed: list) -> str:
    """Digest of ``{class: (detected, total)}`` plus the missed faults."""
    canon = {"classes": {c: list(classes[c]) for c in sorted(classes)},
             "missed_faults": list(missed)}
    return hashlib.sha256(json.dumps(canon).encode("utf-8")).hexdigest()


def report_parts(report) -> tuple[dict, str]:
    """``(classes, missed)`` of a CoverageReport, the missed fault names
    joined by newlines into one string."""
    return ({c: (report.detected.get(c, 0), report.total[c])
             for c in report.total}, "\n".join(report.missed_faults))


def split_missed(joined: str) -> list[str]:
    """Undo the joining of :func:`report_parts`."""
    return joined.split("\n") if joined else []


def json_report_parts(report: dict) -> tuple[dict, list]:
    """``(classes, missed)`` of a ``POST /coverage`` response report."""
    return ({c: (row["detected"], row["total"])
             for c, row in report["classes"].items()},
            list(report["missed_faults"]))


def load_pins(workload: str) -> dict:
    """Pinned digests of one workload (lane-sharded shares lane-large's)."""
    if workload == "lane-sharded":
        workload = "lane-large"
    try:
        with open(PINS_PATH, encoding="utf-8") as handle:
            return json.load(handle).get(workload, {})
    except FileNotFoundError:
        return {}


class Checker:
    """Checks reports of one run; caches universes per geometry."""

    def __init__(self, workload: str, seed: int):
        self.seed = seed
        self.pins = load_pins(workload) if seed == DEFAULT_SEED else {}
        self._universes: dict[tuple[int, int], object] = {}

    def universe(self, n: int, m: int):
        from repro.faults.universe import standard_universe

        if (n, m) not in self._universes:
            self._universes[n, m] = standard_universe(n, m)
        return self._universes[n, m]

    def check(self, body: dict, classes: dict, missed: list) -> list[str]:
        """Every mismatch between one report and its references."""
        name = config_id(body)
        errors = []
        pinned = self.pins.get(name)
        if pinned is not None and pinned != digest(classes, missed):
            errors.append(f"{name}: report digest differs from pins.json")
        universe = self.universe(body["n"], body["m"])
        totals = {c: total for c, (_d, total) in classes.items()}
        if totals != universe.counts():
            errors.append(f"{name}: per-class totals {totals} != universe "
                          f"counts {universe.counts()}")
            return errors
        errors.extend(self._oracle(body, name, universe, set(missed)))
        return errors

    def _oracle(self, body, name, universe, missed) -> list[str]:
        from repro.analysis.coverage import run_coverage
        from repro.analysis.request import CampaignRequest, resolve_campaign

        rng = random.Random(f"{self.seed}:{name}")
        detected = [f for f in universe if f.name not in missed]
        escaped = [f for f in universe if f.name in missed]
        sample = [rng.choice(group) for group in (detected, escaped) if group]
        runner = resolve_campaign(CampaignRequest(
            test=body["test"], n=body["n"], m=body["m"])).runner
        oracle = run_coverage(runner, sample, body["n"], m=body["m"],
                              engine="interpreted")
        oracle_missed = set(oracle.missed_faults)
        return [f"{name}: {fault.name} verdict differs from the interpreted "
                f"oracle" for fault in sample
                if (fault.name in missed) != (fault.name in oracle_missed)]
