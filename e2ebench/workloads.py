"""Seeded request generation for the end-to-end benchmark.

Every workload is a fixed *shape* -- which selectors run, at which
geometry strata, in which popularity ranks -- and the seed chooses only
the order of the requests and the arrival schedule, so runs with
different seeds do the same work.  No request of a closed loop repeats,
so all of them are result-cache misses.

A request is a plain dict of :class:`repro.analysis.request.CampaignRequest`
fields (the JSON body of ``POST /coverage``); this module imports nothing
from the program.
"""

from __future__ import annotations

import random

#: Every selector of ``repro.analysis.request.known_tests()``.
SELECTORS = ("dual-port", "dual-schedule", "march-b", "march-c", "mats",
             "mats+", "prt3", "prt5", "quad-port", "quad-schedule")

#: The seed whose reports are pinned in ``pins.json``.
DEFAULT_SEED = 1

# Geometry strata as (m, base n, jitter step).  Steps are even: the
# quad-port schemes need an even n.
_SWEEP_STRATA = ((1, 24, 2), (1, 48, 2), (4, 16, 2))
_LANE_STRATA = ((1, 1024, 8), (8, 256, 4))
#: Round pairs per list: rounds use n = base +- k * step, k in 1..MAX_K.
#: One pair is the two rounds a 16-second run does.
MAX_K = 1


def _rounds(strata, rng: random.Random, extra: dict) -> list[list[dict]]:
    """Rounds of one request per (selector, stratum) pair.

    Every round is the full cross product in a seeded order, with one n
    per stratum shared by all selectors.  Rounds come in mirrored pairs,
    n = base + k * step and base - k * step for k = 1, 2, ..., so no
    request repeats.  The seed orders the requests of a round and the
    two rounds of a pair, but every seed runs the same set of requests
    in a given number of pairs: a seeded jitter size shifted the
    per-request median by up to 35% between seeds.
    """
    offsets = []
    for _m, _base, step in strata:
        per_stratum = []
        for k in range(1, MAX_K + 1):
            pair = [k * step, -k * step]
            rng.shuffle(pair)
            per_stratum.extend(pair)
        offsets.append(per_stratum)
    rounds = []
    for number in range(2 * MAX_K):
        pairs = [(selector, index) for selector in SELECTORS
                 for index in range(len(strata))]
        rng.shuffle(pairs)
        rounds.append([dict(test=selector,
                            n=strata[index][1] + offsets[index][number],
                            m=strata[index][0], **extra)
                       for selector, index in pairs])
    return rounds


def default_sweep(seed: int) -> list[list[dict]]:
    """Default-settings requests: every selector at small geometries."""
    return _rounds(_SWEEP_STRATA, random.Random(f"default-sweep:{seed}"), {})


def lane_large(seed: int, workers: int = 0) -> list[list[dict]]:
    """Batched full-universe requests at n ~ 1024 (m=1) and n ~ 256 (m=8)."""
    return _rounds(_LANE_STRATA, random.Random(f"lane-large:{seed}"),
                   {"engine": "batched", "workers": workers})


# service-mix popularity ranks, most popular first: (selector, m, base n,
# engine).  Small default-settings requests alternate with batched ones
# whose reports run from a few KB to ~240 KB of JSON, so the hit path is
# exercised at every response size on every seed.
_SERVICE_SLOTS = (
    ("march-c", 1, 32, "auto"), ("prt3", 1, 1024, "batched"),
    ("mats+", 1, 24, "auto"), ("dual-port", 8, 256, "batched"),
    ("prt5", 1, 32, "auto"), ("march-b", 1, 512, "batched"),
    ("quad-schedule", 1, 24, "auto"), ("march-c", 8, 256, "batched"),
    ("mats", 1, 32, "auto"), ("dual-schedule", 1, 1024, "batched"),
    ("dual-port", 1, 24, "auto"), ("quad-port", 8, 256, "batched"),
    ("march-c", 4, 16, "auto"), ("mats+", 1, 768, "batched"),
    ("prt3", 1, 24, "auto"), ("prt5", 8, 256, "batched"),
    ("quad-port", 1, 32, "auto"), ("march-c", 1, 1024, "batched"),
    ("dual-schedule", 1, 16, "auto"), ("mats", 8, 256, "batched"),
    ("march-b", 1, 24, "auto"), ("prt3", 4, 16, "auto"),
    ("mats", 1, 16, "auto"), ("quad-schedule", 4, 16, "auto"),
)

#: In-memory cache entries the service runs with -- fewer than the
#: distinct configs, so the tail of the mix is served from the disk tier.
SERVICE_CACHE_SIZE = 16
#: Zipf exponent of config popularity.
SERVICE_SKEW = 1.1
#: Share of ``POST /verify`` requests.
SERVICE_VERIFY_SHARE = 0.1
#: Requests per block of the open-loop schedule (one second at 100/s).
SERVICE_BLOCK = 100


def service_configs() -> list[dict]:
    """The distinct ``POST /coverage`` bodies of service-mix, by rank.

    Fixed: the seed drives the arrival schedule, not the configs, so the
    warm-up does the same work on every seed.
    """
    configs = []
    for test, m, n, engine in _SERVICE_SLOTS:
        body = {"test": test, "n": n, "m": m}
        if engine != "auto":
            body["engine"] = engine
        configs.append(body)
    return configs


def _block(weights: list[float], size: int) -> list[int]:
    """``size`` indices with counts proportional to ``weights``
    (largest remainder)."""
    total = sum(weights)
    exact = [w * size / total for w in weights]
    counts = [int(x) for x in exact]
    order = sorted(range(len(weights)), key=lambda i: counts[i] - exact[i])
    for index in order[:size - sum(counts)]:
        counts[index] += 1
    return [index for index, count in enumerate(counts) for _ in range(count)]


def service_schedule(seed: int, configs: list[dict], rate: float,
                     seconds: float) -> list[tuple[float, str, int]]:
    """Open-loop arrivals ``(due offset s, route, config index)``.

    Arrivals at ``rate`` per second for ``seconds``, each gap drawn
    uniformly from 0.5 to 1.5 mean gaps.  (Poisson gaps made the tail
    swing by 2-4x between seeds: their bursts queue the service.)
    Requests come in blocks of ``SERVICE_BLOCK``, each holding the same
    mix in a seeded order: ``/coverage`` picks with counts proportional
    to Zipf(``SERVICE_SKEW``) over the config ranks, and a share
    ``SERVICE_VERIFY_SHARE`` of ``/verify`` requests over the small
    default-settings configs (verifying an n ~ 1024 stream takes tens of
    milliseconds and would put the tail on the edge of that 10%).  Drawn
    independently, the number of large replies per second varied enough
    between seeds to move the p95 by 40%.
    """
    rng = random.Random(f"service-schedule:{seed}")
    weights = [1.0 / (rank + 1) ** SERVICE_SKEW
               for rank in range(len(configs))]
    small = [rank for rank in range(len(configs))
             if "engine" not in configs[rank]]
    verifies = round(SERVICE_BLOCK * SERVICE_VERIFY_SHARE)
    block = [("/coverage", rank)
             for rank in _block(weights, SERVICE_BLOCK - verifies)]
    block += [("/verify", small[i])
              for i in _block([weights[rank] for rank in small], verifies)]
    out: list[tuple[float, str, int]] = []
    order: list[tuple[str, int]] = []
    due = rng.uniform(0.5, 1.5) / rate
    while due < seconds:
        if not order:
            order = rng.sample(block, len(block))
        route, config = order.pop()
        out.append((due, route, config))
        due += rng.uniform(0.5, 1.5) / rate
    return out


def config_id(body: dict) -> str:
    """A stable, readable name for one request body."""
    return (f"{body['test']}:n={body['n']}:m={body['m']}:"
            f"{body.get('engine', 'auto')}")
