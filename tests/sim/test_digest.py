"""OpStream.digest(): content addressing for compiled streams.

The digest is the identity the whole serving layer hangs off --
broadcast dedup in :class:`WorkerPool`, the
:meth:`CampaignRequest.cache_key` content address, and the on-disk
result cache shared between processes.  These tests pin the exact hex
value (any accidental change to the hashed representation invalidates
every existing cache directory, so it must be a *deliberate* change
that shows up in this file) and check stability across recompiles,
pickling, and a real process boundary.
"""

import pickle

import pytest

from repro.analysis.request import ENGINES, CampaignRequest
from repro.faults import single_cell_universe
from repro.march.library import MARCH_C_MINUS, MATS
from repro.prt import standard_schedule
from repro.sim import WorkerPool, run_campaign
from repro.sim.compilers import compile_march, compile_schedule

# Pinned content addresses.  If these change, every cache directory in
# the wild is invalidated -- bump them only for deliberate changes to
# the stream representation, and say so in the commit message.
MATS_8_DIGEST = (
    "188eb55669d72ee1ab717e822895998101599271726ac2eeead943ea85d9bd1f"
)
MATS_8_CACHE_KEY = (
    "278028552b91181169dd90381b20abe19086c3e749de41054e800df68c5fe5ce"
)


def _digest_of_fresh_compile(_index):
    """Module-level so WorkerPool can pickle it (fork or spawn)."""
    return compile_march(MATS, 8).digest()


class TestDigestIdentity:
    def test_pinned_vector(self):
        assert compile_march(MATS, 8).digest() == MATS_8_DIGEST

    def test_pinned_cache_key(self):
        assert CampaignRequest(test="mats", n=8).cache_key() == MATS_8_CACHE_KEY

    def test_structurally_equal_streams_share_a_digest(self):
        first = compile_march(MARCH_C_MINUS, 16)
        second = compile_march(MARCH_C_MINUS, 16)
        assert first.digest() == second.digest()

    def test_different_content_different_digest(self):
        base = compile_march(MATS, 8)
        assert base.digest() != compile_march(MATS, 9).digest()
        assert base.digest() != compile_march(MARCH_C_MINUS, 8).digest()
        assert base.digest() != compile_schedule(
            standard_schedule(n=8), 8).digest()

    def test_digest_ignores_mutable_bookkeeping(self):
        stream = compile_march(MATS, 8)
        before = stream.digest()
        stream.reference_verified = not stream.reference_verified
        # the cached value must not mask a representation change either:
        stream.__dict__.pop("_digest", None)
        assert stream.digest() == before

    def test_digest_survives_pickling(self):
        stream = compile_march(MARCH_C_MINUS, 12)
        clone = pickle.loads(pickle.dumps(stream))
        assert clone == stream
        assert clone.digest() == stream.digest()

    def test_memoized_on_the_instance(self):
        stream = compile_march(MATS, 8)
        assert stream.digest() is stream.digest()


class TestDigestAcrossProcesses:
    def test_worker_processes_agree(self):
        """Each worker compiles its own stream; all digests match ours."""
        with WorkerPool(2) as pool:
            digests = set(pool.imap(_digest_of_fresh_compile, range(4)))
        assert digests == {MATS_8_DIGEST}

    def test_broadcast_dedups_structurally_equal_streams(self):
        """Two equal-content compiles share one broadcast token -- the
        dedup keys on content, not object identity."""
        first = compile_march(MARCH_C_MINUS, 16)
        second = pickle.loads(pickle.dumps(first))  # equal, distinct object
        assert first is not second
        universe = single_cell_universe(16, classes=("SAF",))
        with WorkerPool(2) as pool:
            run_campaign(first, universe, workers=2, pool=pool)
            run_campaign(second, universe, workers=2, pool=pool)
            assert pool.streams_broadcast == 1
            token_a = pool.broadcast_stream(first)
            token_b = pool.broadcast_stream(second)
        assert token_a == token_b


class TestCacheKeySemantics:
    def test_workers_excluded_from_cache_key(self):
        base = CampaignRequest(test="march-c", n=16)
        sharded = base.replace(workers=4)
        assert base.cache_key() == sharded.cache_key()

    def test_engine_excluded_from_cache_key(self):
        # Every engine produces a byte-identical report, so the engine
        # name must not split one campaign into several cache entries.
        base = CampaignRequest(test="march-c", n=16)
        keys = {base.replace(engine=engine).cache_key() for engine in ENGINES}
        assert keys == {base.cache_key()}

    def test_geometry_in_cache_key(self):
        base = CampaignRequest(test="march-c", n=16)
        assert base.cache_key() != base.replace(n=17).cache_key()
        assert base.cache_key() != base.replace(m=4).cache_key()

    def test_cache_key_is_hex(self):
        key = CampaignRequest(test="prt3", n=12).cache_key()
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")

    def test_invalid_request_has_no_key(self):
        from repro.analysis.request import RequestError

        with pytest.raises(RequestError):
            CampaignRequest(test="nope", n=8).cache_key()
