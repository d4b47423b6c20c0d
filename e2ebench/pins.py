"""Regenerate ``pins.json``: the report digests of the default seed.

Runs every request the default seed can send -- the whole request list
of each workload, not only the part one timed run reaches -- and records
each report's digest (see :func:`checks.digest`).  Run it only when a
change is *meant* to alter reports::

    python3 e2ebench/pins.py
"""

from __future__ import annotations

import json
import os
import sys

from checks import PINS_PATH, digest, report_parts, split_missed
from workloads import (DEFAULT_SEED, config_id, default_sweep, lane_large,
                       service_configs)


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from repro.analysis.request import CampaignRequest, execute_request

    pins = {}
    for name, bodies in (
            ("default-sweep", sum(default_sweep(DEFAULT_SEED), [])),
            ("lane-large", sum(lane_large(DEFAULT_SEED), [])),
            ("service-mix", service_configs())):
        pins[name] = {}
        for body in bodies:
            report = execute_request(CampaignRequest(**body),
                                     cache=False).report
            classes, missed = report_parts(report)
            pins[name][config_id(body)] = digest(classes,
                                                 split_missed(missed))
    with open(PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
