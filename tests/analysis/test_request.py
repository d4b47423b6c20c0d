"""CampaignRequest: the one shared resolver behind every entry point.

Two contracts are pinned here.  **Validation**: every malformed request
dies in :func:`resolve_campaign` with a pointed :class:`RequestError`,
identically no matter which surface (API, CLI, server) submitted it.
**Equivalence**: the request path is byte-identical to the legacy kwarg
forms -- same reports, same comparison rows -- over the full
``standard_universe(256)`` acceptance geometry, so the old surface can
be described as a shim with a straight face.
"""

import pickle

import pytest

from repro.analysis import (
    CampaignRequest,
    RequestError,
    compare_tests,
    execute_request,
    known_tests,
    march_runner,
    resolve_campaign,
    run_coverage,
    schedule_runner,
)
from repro.analysis.complexity import march_operations
from repro.analysis.request import run_request
from repro.faults.universe import UniverseSpec, standard_universe
from repro.march.library import MARCH_C_MINUS, MATS_PLUS
from repro.prt import extended_schedule, standard_schedule
from repro.server.cache import ResultCache
from tests.sim.conftest import assert_reports_identical


class TestValidation:
    def test_unknown_test(self):
        with pytest.raises(RequestError, match="unknown test 'nope'"):
            resolve_campaign(CampaignRequest(test="nope", n=8))

    def test_bad_geometry(self):
        with pytest.raises(RequestError, match="n must be a positive int"):
            resolve_campaign(CampaignRequest(test="mats", n=0))
        with pytest.raises(RequestError, match="m must be a positive int"):
            resolve_campaign(CampaignRequest(test="mats", n=8, m=-1))
        with pytest.raises(RequestError, match="n must be a positive int"):
            resolve_campaign(CampaignRequest(test="mats", n="8"))

    def test_bad_execution_options(self):
        with pytest.raises(RequestError, match="engine must be one of"):
            resolve_campaign(CampaignRequest(test="mats", n=8, engine="warp"))
        with pytest.raises(RequestError, match="workers must be"):
            resolve_campaign(CampaignRequest(test="mats", n=8, workers=-1))

    def test_bad_polynomial(self):
        with pytest.raises(RequestError, match="bad field polynomial"):
            resolve_campaign(CampaignRequest(test="prt3", n=8, m=4,
                                             poly="garbage"))

    def test_quad_schemes_need_even_n(self):
        for test in ("quad-port", "quad-schedule"):
            with pytest.raises(RequestError, match="even n >= 6"):
                resolve_campaign(CampaignRequest(test=test, n=13))
        resolve_campaign(CampaignRequest(test="quad-port", n=14))  # fine

    def test_universe_must_be_a_spec(self):
        with pytest.raises(RequestError, match="must be a UniverseSpec"):
            resolve_campaign(CampaignRequest(test="mats", n=8,
                                             universe="standard"))

    def test_unknown_universe_generator(self):
        spec = UniverseSpec.call("made_up", n=8)
        with pytest.raises(RequestError, match="unknown universe generator"):
            resolve_campaign(CampaignRequest(test="mats", n=8, universe=spec))

    def test_not_a_request(self):
        with pytest.raises(RequestError, match="expected a CampaignRequest"):
            resolve_campaign("march-c")

    def test_known_tests_resolve(self):
        """Every advertised selector resolves at a safe geometry."""
        for entry in known_tests():
            resolved = resolve_campaign(
                CampaignRequest(test=entry["test"], n=12))
            assert resolved.display_name == entry["display_name"]
            assert resolved.ports == entry["ports"]
            assert resolved.operations > 0


class TestResolution:
    def test_resolving_enumerates_no_faults(self, monkeypatch):
        """The default universe enters the cache key as a spec; only the
        cold path builds it."""
        builds = []
        original = UniverseSpec.build

        def counting(spec):
            builds.append(spec)
            return original(spec)

        monkeypatch.setattr(UniverseSpec, "build", counting)
        resolved = resolve_campaign(CampaignRequest(test="march-c", n=61))
        assert resolved.cache_key
        assert builds == []
        assert resolved.universe_spec == standard_universe(61).spec

    def test_memoized_on_equal_requests(self):
        a = resolve_campaign(CampaignRequest(test="march-c", n=32))
        b = resolve_campaign(CampaignRequest(test="march-c", n=32))
        assert a is b  # same runner -> same memoized compiled stream

    def test_scheme_reports_use_display_labels(self):
        """Legacy CLI labeled scheme reports by display name."""
        assert resolve_campaign(
            CampaignRequest(test="dual-port", n=12)).test_name == "dual-port π"
        assert resolve_campaign(
            CampaignRequest(test="march-c", n=12)).test_name == "march-c"

    def test_mixed_entry_forms_rejected(self):
        with pytest.raises(ValueError, match="no universe/n"):
            run_coverage(CampaignRequest(test="mats", n=8), n=8)
        with pytest.raises(ValueError, match="no universe/n"):
            compare_tests([CampaignRequest(test="mats", n=8)], n=8)
        with pytest.raises(TypeError, match="needs"):
            run_coverage(march_runner(MARCH_C_MINUS))


@pytest.fixture(scope="module")
def universe_256():
    from repro.faults import standard_universe

    return standard_universe(256)


class TestLegacyEquivalence:
    """Request path vs legacy kwargs, full standard_universe(256)."""

    def test_march_campaign_byte_identical(self, universe_256):
        legacy = run_coverage(march_runner(MARCH_C_MINUS), universe_256, 256,
                              test_name="march-c")
        request = run_coverage(CampaignRequest(test="march-c", n=256),
                               cache=False)
        assert_reports_identical(legacy, request)

    def test_schedule_campaign_byte_identical(self, universe_256):
        schedule = standard_schedule(n=256, verify=True)
        legacy = run_coverage(schedule_runner(schedule), universe_256, 256,
                              test_name="prt3")
        request = run_coverage(CampaignRequest(test="prt3", n=256),
                               cache=False)
        assert_reports_identical(legacy, request)

    def test_compare_rows_byte_identical(self):
        n = 28
        from repro.faults import standard_universe

        universe = standard_universe(n)
        verifying = standard_schedule(n=n, verify=True)
        extended = extended_schedule(n=n, verify=True)
        legacy = compare_tests(
            [
                ("PRT-3", schedule_runner(verifying),
                 verifying.operation_count(n)),
                ("PRT-5", schedule_runner(extended),
                 extended.operation_count(n)),
                ("MATS+", march_runner(MATS_PLUS),
                 march_operations(MATS_PLUS, n)),
                ("March C-", march_runner(MARCH_C_MINUS),
                 march_operations(MARCH_C_MINUS, n)),
            ],
            universe, n,
        )
        requests = [CampaignRequest(test=test, n=n)
                    for test in ("prt3", "prt5", "mats+", "march-c")]
        modern = compare_tests(requests, cache=False)
        assert [r.name for r in modern] == [r.name for r in legacy]
        assert [r.operations for r in modern] == [r.operations for r in legacy]
        assert [r.ops_per_cell for r in modern] == [
            r.ops_per_cell for r in legacy]
        for old, new in zip(legacy, modern, strict=True):
            assert_reports_identical(old.report, new.report)


class TestCachedExecution:
    def test_hit_is_byte_identical_and_runs_engine_once(self, monkeypatch):
        import repro.analysis.request as request_module

        calls = []
        original = request_module._run_resolved

        def spying(resolved, name, pool, progress):
            calls.append(resolved.request)
            return original(resolved, name, pool, progress)

        monkeypatch.setattr(request_module, "_run_resolved", spying)
        cache = ResultCache()
        request = CampaignRequest(test="march-c", n=24)
        cold = execute_request(request, cache=cache)
        warm = execute_request(request, cache=cache)
        assert len(calls) == 1  # the engine ran exactly once
        assert cold.cached is False and warm.cached is True
        assert cold.cache_key == warm.cache_key == request.cache_key()
        assert pickle.dumps(warm.report) == pickle.dumps(cold.report)
        assert warm.report is not cold.report  # fresh copy per hit

    def test_each_request_counts_one_lookup(self):
        cache = ResultCache()
        request = CampaignRequest(test="march-c", n=64)
        execute_request(request, cache=cache)
        stats = cache.stats()
        assert (stats["misses"], stats["hits"]) == (1, 0)
        execute_request(request, cache=cache)
        stats = cache.stats()
        assert (stats["misses"], stats["hits"]) == (1, 1)

    def test_cache_false_disables_caching(self, monkeypatch):
        import repro.analysis.request as request_module

        calls = []
        original = request_module._run_resolved

        def spying(resolved, name, pool, progress):
            calls.append(resolved.request)
            return original(resolved, name, pool, progress)

        monkeypatch.setattr(request_module, "_run_resolved", spying)
        request = CampaignRequest(test="mats", n=12)
        run_request(request, cache=False)
        run_request(request, cache=False)
        assert len(calls) == 2

    def test_workers_share_a_cache_entry(self):
        """workers is excluded from the key: a sharded rerun of a cached
        campaign is served from cache."""
        cache = ResultCache()
        serial = execute_request(CampaignRequest(test="march-c", n=24),
                                 cache=cache)
        sharded = execute_request(
            CampaignRequest(test="march-c", n=24, workers=4), cache=cache)
        assert sharded.cached is True
        assert pickle.dumps(sharded.report) == pickle.dumps(serial.report)

    def test_compare_and_coverage_share_entries(self):
        """compare relabels rows from the same cache entries coverage
        fills -- one campaign each, two labels."""
        cache = ResultCache()
        report = run_request(CampaignRequest(test="march-c", n=20),
                             cache=cache)
        rows = compare_tests([CampaignRequest(test="march-c", n=20)],
                             cache=cache)
        assert rows[0].name == "March C-"
        assert rows[0].report.test_name == "March C-"
        assert report.test_name == "march-c"
        assert rows[0].report.detected == report.detected
        assert rows[0].report.total == report.total
        assert cache.stats()["misses"] >= 1
        assert cache.stats()["hits"] >= 1


class TestDefaultEngineIsLane:
    """A default request reaches the lane engine, and the oracles agree.

    Every selector at one bit- and one word-oriented geometry: the
    default ``engine="auto"`` must resolve the whole universe in lane
    passes (no scalar fallback), and the report must be byte-identical
    to the ``compiled`` and ``interpreted`` oracle engines.
    """

    @pytest.mark.parametrize("n,m", [(22, 1), (14, 4)])
    @pytest.mark.parametrize("test", [t["test"] for t in known_tests()])
    def test_default_request_runs_lane_passes(self, monkeypatch, test, n,
                                              m):
        import repro.analysis.coverage as coverage_module

        results = []
        original = coverage_module.run_campaign_batched

        def spying(*args, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(coverage_module, "run_campaign_batched", spying)
        request = CampaignRequest(test=test, n=n, m=m)
        default = execute_request(request, cache=False).report
        assert len(results) == 1
        universe = resolve_campaign(request).build_universe()
        assert results[0].faults_batched == len(universe)
        for engine in ("compiled", "interpreted"):
            oracle = execute_request(request.replace(engine=engine),
                                     cache=False).report
            assert_reports_identical(default, oracle)
        assert len(results) == 1  # the oracles never take the lane path
