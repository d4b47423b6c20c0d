"""Unit tests for the benchmark-guard and trend-plot tools.

``tools/`` is not a package; the modules are loaded by file path.  The
``--from-artifacts`` mode is tested against a fake ``gh`` runner -- no
network, no GitHub CLI required.
"""

import importlib.util
import io
import json
import os
import zipfile

import pytest

_TOOLS = os.path.join(os.path.dirname(__file__), "..", "tools")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(_TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_bench = _load("check_bench")
plot_bench_trend = _load("plot_bench_trend")


def _zip_bytes(payload: dict, member: str = "BENCH_full.json") -> bytes:
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr(member, json.dumps(payload))
    return buffer.getvalue()


class _FakeGh:
    """Canned `gh` responses keyed by the first two CLI words."""

    def __init__(self, artifacts, zips):
        self.artifacts = artifacts
        self.zips = zips
        self.calls = []

    def __call__(self, args):
        self.calls.append(args)
        if args[0] == "repo":
            return b"acme/repro\n"
        if args[1].endswith("/actions/artifacts"):
            lines = [json.dumps(entry) for entry in self.artifacts]
            return ("\n".join(lines) + "\n").encode()
        for artifact_id, payload in self.zips.items():
            if args[1].endswith(f"/artifacts/{artifact_id}/zip"):
                return payload
        raise AssertionError(f"unexpected gh call: {args}")


@pytest.fixture
def fake_gh():
    artifacts = [
        {"id": 3, "name": "bench-full-cccc", "expired": False,
         "created_at": "2026-07-03T00:00:00Z"},
        {"id": 1, "name": "bench-full-aaaa", "expired": False,
         "created_at": "2026-07-01T00:00:00Z"},
        {"id": 2, "name": "bench-full-bbbb", "expired": True,
         "created_at": "2026-07-02T00:00:00Z"},
        {"id": 4, "name": "coverage-html", "expired": False,
         "created_at": "2026-07-04T00:00:00Z"},
    ]
    zips = {
        1: _zip_bytes({"rows": [{"test": "March C-", "n": 64,
                                 "compiled_s": 0.4}]}),
        3: _zip_bytes({"rows": [{"test": "March C-", "n": 64,
                                 "compiled_s": 0.5}]}),
    }
    return _FakeGh(artifacts, zips)


class TestFetchArtifactSeries:
    def test_filters_sorts_and_extracts(self, fake_gh, tmp_path):
        paths = plot_bench_trend.fetch_artifact_series(
            "acme/repro", str(tmp_path), run=fake_gh)
        # Expired and foreign artifacts dropped; oldest..newest order.
        assert [os.path.basename(p) for p in paths] == \
            ["bench-full-aaaa-1.json", "bench-full-cccc-3.json"]
        with open(paths[0]) as handle:
            assert json.load(handle)["rows"][0]["compiled_s"] == 0.4

    def test_rerun_same_name_keeps_newest_once(self, fake_gh, tmp_path):
        # A re-run workflow uploads a second bench-full-<sha> artifact:
        # only the newest contributes, and it is actually downloaded
        # (the cache keys on the artifact id, not the name).
        fake_gh.artifacts.append(
            {"id": 9, "name": "bench-full-cccc", "expired": False,
             "created_at": "2026-07-05T00:00:00Z"})
        fake_gh.zips[9] = _zip_bytes(
            {"rows": [{"test": "March C-", "n": 64, "compiled_s": 0.6}]})
        paths = plot_bench_trend.fetch_artifact_series(
            "acme/repro", str(tmp_path), run=fake_gh)
        assert [os.path.basename(p) for p in paths] == \
            ["bench-full-aaaa-1.json", "bench-full-cccc-9.json"]
        with open(paths[1]) as handle:
            assert json.load(handle)["rows"][0]["compiled_s"] == 0.6

    def test_cache_skips_downloaded_artifacts(self, fake_gh, tmp_path):
        plot_bench_trend.fetch_artifact_series("acme/repro", str(tmp_path),
                                               run=fake_gh)
        downloads = sum(1 for call in fake_gh.calls
                        if call[-1].endswith("/zip")
                        or "/zip" in call[1])
        plot_bench_trend.fetch_artifact_series("acme/repro", str(tmp_path),
                                               run=fake_gh)
        again = sum(1 for call in fake_gh.calls
                    if call[-1].endswith("/zip") or "/zip" in call[1])
        assert downloads == 2
        assert again == downloads  # second fetch served from cache

    def test_limit_keeps_newest(self, fake_gh, tmp_path):
        paths = plot_bench_trend.fetch_artifact_series(
            "acme/repro", str(tmp_path), limit=1, run=fake_gh)
        assert [os.path.basename(p) for p in paths] == \
            ["bench-full-cccc-3.json"]

    def test_no_artifacts_is_a_pointed_error(self, tmp_path):
        empty = _FakeGh([], {})
        with pytest.raises(RuntimeError, match="no unexpired"):
            plot_bench_trend.fetch_artifact_series(
                "acme/repro", str(tmp_path), run=empty)

    def test_zip_without_summary_is_a_pointed_error(self, tmp_path):
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w") as archive:
            archive.writestr("README.txt", "nope")
        gh = _FakeGh(
            [{"id": 1, "name": "bench-full-aaaa", "expired": False,
              "created_at": "2026-07-01T00:00:00Z"}],
            {1: buffer.getvalue()},
        )
        with pytest.raises(RuntimeError, match="no JSON summary"):
            plot_bench_trend.fetch_artifact_series(
                "acme/repro", str(tmp_path), run=gh)

    def test_missing_gh_cli_degrades(self, monkeypatch):
        def boom(*args, **kwargs):
            raise FileNotFoundError("gh")

        monkeypatch.setattr(plot_bench_trend.subprocess, "run", boom)
        with pytest.raises(RuntimeError, match="GitHub CLI"):
            plot_bench_trend._run_gh(["api", "whatever"])

    def test_main_from_artifacts_renders_trend(self, fake_gh, tmp_path,
                                               monkeypatch, capsys):
        monkeypatch.setattr(plot_bench_trend, "_run_gh", fake_gh)
        code = plot_bench_trend.main([
            "--from-artifacts", "--repo", "acme/repro",
            "--artifacts-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fetched 2 summaries from acme/repro" in out
        assert "March C- n=64" in out

    def test_main_rejects_files_with_from_artifacts(self, tmp_path):
        with pytest.raises(SystemExit):
            plot_bench_trend.main(["--from-artifacts", "x.json"])
        with pytest.raises(SystemExit):
            plot_bench_trend.main([])


class TestCheckBenchWordlaneRows:
    def test_wordlane_rows_are_gated(self):
        base = {"wordlane_rows": [
            {"test": "March C-", "n": 1024, "universe": "standard m=8",
             "compiled_s": 10.0, "batched_s": 1.0},
        ]}
        current = {"wordlane_rows": [
            {"test": "March C-", "n": 1024, "universe": "standard m=8",
             "compiled_s": 10.0, "batched_s": 9.0},
        ]}
        lines, regressions = check_bench.compare(base, current,
                                                 max_slowdown=3.0,
                                                 min_seconds=0.05)
        assert any("batched_s" in r for r in regressions)
        assert any("standard m=8" in line for line in lines)

    def test_wordlane_section_distinct_from_rows(self):
        # Same (test, n) identity in two sections must not cross-match.
        base = {"rows": [{"test": "March C-", "n": 64, "compiled_s": 1.0}],
                "wordlane_rows": [{"test": "March C-", "n": 64,
                                   "universe": "standard m=8",
                                   "compiled_s": 8.0}]}
        current = {"wordlane_rows": [{"test": "March C-", "n": 64,
                                      "universe": "standard m=8",
                                      "compiled_s": 8.5}]}
        lines, regressions = check_bench.compare(base, current, 3.0, 0.05)
        assert not regressions
        assert len(lines) == 1


class TestCheckBenchCacheRows:
    @staticmethod
    def _cache_row(**overrides):
        row = {"test": "March C-", "n": 1024,
               "universe": "standard (result cache)",
               "cold_s": 0.5, "warm_s": 0.0001, "speedup_warm": 5000.0}
        row.update(overrides)
        return row

    def test_slow_warm_hit_is_a_regression(self):
        # The speedup floor gates the *current* run alone: a baseline
        # predating cache_rows must not disable the gate.
        base = {"rows": [{"test": "March C-", "n": 64, "compiled_s": 1.0}]}
        current = {"rows": [{"test": "March C-", "n": 64,
                             "compiled_s": 1.0}],
                   "cache_rows": [self._cache_row(speedup_warm=12.0)]}
        lines, regressions = check_bench.compare(base, current, 3.0, 0.05)
        assert any("warm cache hit only 12.0x" in r for r in regressions)

    def test_fast_warm_hit_passes(self):
        base = {"cache_rows": [self._cache_row()]}
        current = {"cache_rows": [self._cache_row(speedup_warm=2300.0)]}
        lines, regressions = check_bench.compare(base, current, 3.0, 0.05)
        assert not regressions
        assert any("speedup_warm" in line and "ok" in line
                   for line in lines)

    def test_cold_campaign_timing_is_gated(self):
        base = {"cache_rows": [self._cache_row(cold_s=0.5)]}
        current = {"cache_rows": [self._cache_row(cold_s=5.0)]}
        lines, regressions = check_bench.compare(base, current, 3.0, 0.05)
        assert any("cold_s" in r for r in regressions)

    def test_warm_timing_below_noise_floor_not_gated(self):
        # warm_s (~1e-4s) sits far below --min-seconds; only the ratio
        # and the cold path carry the signal.
        base = {"cache_rows": [self._cache_row(warm_s=0.0001)]}
        current = {"cache_rows": [self._cache_row(warm_s=0.01)]}
        lines, regressions = check_bench.compare(base, current, 3.0, 0.05)
        assert not regressions

    def test_custom_speedup_floor(self):
        base = {"cache_rows": [self._cache_row()]}
        current = {"cache_rows": [self._cache_row(speedup_warm=150.0)]}
        _, ok = check_bench.compare(base, current, 3.0, 0.05,
                                    min_cache_speedup=100.0)
        _, bad = check_bench.compare(base, current, 3.0, 0.05,
                                     min_cache_speedup=500.0)
        assert not ok
        assert any("floor 500x" in r for r in bad)


class TestCheckBenchSchedulerGates:
    """The current-run-only parallel-scheduler gates."""

    @staticmethod
    def _shared():
        return [{"test": "March C-", "n": 64, "compiled_s": 1.0}]

    @staticmethod
    def _balance_row(strategy, imbalance):
        return {"test": "March C-", "n": 256,
                "universe": f"skewed NPSF tail [{strategy}]",
                "strategy": strategy, "faults": 2048, "shards": 8,
                "max_shard_s": 0.1, "mean_shard_s": 0.05,
                "imbalance": imbalance}

    @staticmethod
    def _lane_row(**overrides):
        row = {"test": "March C-", "n": 1024,
               "universe": "standard lane-sharded", "faults": 27000,
               "workers": 2, "batched_s": 0.6, "sharded_s": 0.3,
               "sharded_vs_serial": 2.0}
        row.update(overrides)
        return row

    def test_stealing_losing_to_fixed_is_a_regression(self):
        base = {"rows": self._shared()}
        current = {"rows": self._shared(),
                   "shard_balance_rows": [
                       self._balance_row("fixed-128", 1.4),
                       self._balance_row("cost-model", 1.2),
                       self._balance_row("stealing", 1.4)]}
        _, regressions = check_bench.compare(base, current, 3.0, 0.05)
        assert any("stealing imbalance" in r for r in regressions)

    def test_stealing_beating_fixed_passes(self):
        base = {"rows": self._shared()}
        current = {"rows": self._shared(),
                   "shard_balance_rows": [
                       self._balance_row("fixed-128", 3.1),
                       self._balance_row("stealing", 1.2)]}
        lines, regressions = check_bench.compare(base, current, 3.0, 0.05)
        assert not regressions
        assert any("shard balance" in line and "ok" in line
                   for line in lines)

    def test_balance_shard_timings_diff_against_baseline(self):
        # shard_balance_rows are also ordinary *_s rows for the
        # slowdown diff, keyed by their strategy-qualified universe.
        base = {"shard_balance_rows": [self._balance_row("fixed-128", 3.0)]}
        current = {"shard_balance_rows": [
            {**self._balance_row("fixed-128", 3.0), "max_shard_s": 0.9}]}
        _, regressions = check_bench.compare(base, current, 3.0, 0.05)
        assert any("max_shard_s" in r for r in regressions)

    def test_lane_sharded_slowdown_gated_on_multicore(self):
        base = {"rows": self._shared()}
        current = {"rows": self._shared(), "cpus": 4,
                   "sharded_rows": [self._lane_row(sharded_vs_serial=0.8)]}
        _, regressions = check_bench.compare(base, current, 3.0, 0.05)
        assert any("0.80x the serial batched engine" in r
                   for r in regressions)

    def test_lane_sharded_gate_skipped_on_one_cpu(self):
        base = {"rows": self._shared()}
        current = {"rows": self._shared(), "cpus": 1,
                   "sharded_rows": [self._lane_row(sharded_vs_serial=0.8)]}
        _, regressions = check_bench.compare(base, current, 3.0, 0.05)
        assert not regressions

    def test_sub_threshold_lane_row_is_exempt(self):
        # Quick mode's n=64 row never engages the pool (below the
        # lane-shard fault threshold): overhead by design, not gated.
        base = {"rows": self._shared()}
        current = {"rows": self._shared(), "cpus": 4,
                   "sharded_rows": [self._lane_row(
                       n=64, faults=1738, sharded_vs_serial=0.5)]}
        _, regressions = check_bench.compare(base, current, 3.0, 0.05)
        assert not regressions

    def test_custom_sharded_floor(self):
        base = {"rows": self._shared()}
        current = {"rows": self._shared(), "cpus": 4,
                   "sharded_rows": [self._lane_row(sharded_vs_serial=2.0)]}
        _, ok = check_bench.compare(base, current, 3.0, 0.05,
                                    min_sharded_speedup=1.5)
        _, bad = check_bench.compare(base, current, 3.0, 0.05,
                                     min_sharded_speedup=3.0)
        assert not ok
        assert any("floor 3.0x" in r for r in bad)


class TestLintContracts:
    """The repo-wide invariant linter runs clean on the real tree and
    still has teeth on synthetic violations."""

    def setup_method(self):
        self.lint = _load("lint_contracts")

    def test_repo_is_clean(self):
        assert self.lint.run() == []

    def test_main_exit_code(self, capsys):
        assert self.lint.main([]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def _tree(self, tmp_path, batched="", pool="", remote="",
              campaign="def _fits_geometry(d, n, m, p):\n    return True\n",
              fault=""):
        src = tmp_path / "src" / "repro"
        (src / "sim").mkdir(parents=True)
        (src / "faults").mkdir()
        (src / "sim" / "batched.py").write_text(
            batched or "_MODELS = {}\n")
        (src / "sim" / "pool.py").write_text(pool)
        (src / "sim" / "remote.py").write_text(remote)
        (src / "sim" / "campaign.py").write_text(campaign)
        (src / "faults" / "demo.py").write_text(fault)
        return str(tmp_path)

    def test_flags_private_attribute_access(self, tmp_path):
        root = self._tree(tmp_path, batched=(
            "_MODELS = {}\n"
            "def f(memory):\n    return memory._replicate\n"))
        assert any("packed-surface" in f for f in self.lint.run(root))

    def test_flags_lambda_in_pool(self, tmp_path):
        root = self._tree(tmp_path, pool="f = lambda x: x\n")
        assert any("picklable-payloads" in f for f in self.lint.run(root))

    def test_flags_nested_def_in_remote(self, tmp_path):
        root = self._tree(tmp_path, remote=(
            "def outer():\n    def inner():\n        pass\n    return inner\n"))
        assert any("picklable-payloads" in f for f in self.lint.run(root))

    def test_flags_hook_without_flag(self, tmp_path):
        root = self._tree(tmp_path, batched=(
            "_MODELS = {}\n"
            "class LaneFaultModel:\n    pass\n"
            "class Broken(LaneFaultModel):\n"
            "    def settle(self):\n        pass\n"))
        assert any("hook-flags" in f for f in self.lint.run(root))

    def test_flag_via_base_class_is_fine(self, tmp_path):
        root = self._tree(tmp_path, batched=(
            "_MODELS = {}\n"
            "class LaneFaultModel:\n    pass\n"
            "class Base(LaneFaultModel):\n    settles = True\n"
            "class Ok(Base):\n"
            "    def settle(self):\n        pass\n"))
        assert not any("hook-flags" in f for f in self.lint.run(root))

    def test_flags_unregistered_kind(self, tmp_path):
        root = self._tree(
            tmp_path,
            batched="_MODELS = {'stuck': object}\n",
            fault="s = VectorSemantics('mystery', ())\n")
        findings = self.lint.run(root)
        assert any("kind-registry" in f and "mystery" in f
                   for f in findings)

    def test_flags_stale_fits_geometry_branch(self, tmp_path):
        root = self._tree(
            tmp_path,
            batched="_MODELS = {'stuck': object}\n",
            campaign=("def _fits_geometry(d, n, m, p):\n"
                      "    return d.kind == 'ghost'\n"),
            fault="s = VectorSemantics('stuck', ())\n")
        assert any("ghost" in f for f in self.lint.run(root))


class TestVerifyCorpus:
    """The verifier's acceptance gate: compilers in, mutations out."""

    def setup_method(self):
        self.corpus = _load("check_verify_corpus")

    def test_corpus_is_large_enough(self):
        assert len(self.corpus.MUTATIONS) >= 20

    def test_compiler_streams_accepted(self):
        assert self.corpus.accept_failures() == []

    def test_all_mutations_rejected(self):
        assert self.corpus.reject_failures() == []

    def test_main_exit_code(self, capsys):
        assert self.corpus.main() == 0
        assert "0 failure(s)" in capsys.readouterr().out
