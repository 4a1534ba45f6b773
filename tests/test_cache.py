"""Tests for the content-addressed run-result cache."""

import dataclasses
import json
import logging
import os

import pytest

from repro import cache as run_cache
from repro.cache import (
    MODEL_VERSION,
    RunCache,
    _encode_line,
    cacheable,
    config_key,
    migrate,
)
from repro.core.config import RunConfig
from repro.core.runner import run
from repro.machines import JAGUARPF, YONA


@pytest.fixture
def cfg():
    return RunConfig(machine=JAGUARPF, implementation="bulk", cores=24,
                     threads_per_task=6, steps=2)


@pytest.fixture
def cache(tmp_path):
    c = run_cache.configure(str(tmp_path / "cache"))
    yield c
    run_cache.configure(None)


class TestKey:
    def test_stable_across_equal_configs(self, cfg):
        assert config_key(cfg) == config_key(cfg.with_())

    def test_differs_across_any_field(self, cfg):
        assert config_key(cfg) != config_key(cfg.with_(steps=3))
        assert config_key(cfg) != config_key(cfg.with_(threads_per_task=12))
        assert config_key(cfg) != config_key(cfg.with_(domain=(64, 64, 64)))

    def test_machine_spec_is_part_of_the_key(self, cfg):
        import dataclasses

        warped_node = dataclasses.replace(
            cfg.machine.node, memcpy_bandwidth_gbs=cfg.machine.node.memcpy_bandwidth_gbs * 2
        )
        warped = dataclasses.replace(cfg.machine, node=warped_node)
        assert config_key(cfg) != config_key(cfg.with_(machine=warped))

    def test_model_version_is_part_of_the_key(self, cfg):
        assert config_key(cfg) != config_key(cfg, model_version="other-version")

    def test_functional_and_trace_runs_are_not_cacheable(self, cfg):
        assert cacheable(cfg)
        assert not cacheable(cfg.with_(trace=True))
        assert not cacheable(
            cfg.with_(functional=True, network="full", domain=(12, 12, 12))
        )


class TestRoundTrip:
    def test_hit_is_bit_identical(self, cfg, cache):
        cold = run(cfg)
        assert cache.stats() == {"hits": 0, "misses": 1, "stores": 1}
        warm = run(cfg)
        assert cache.stats()["hits"] == 1
        assert warm.elapsed_s == cold.elapsed_s  # exact, not approx
        assert warm.phases == cold.phases
        assert warm.comm_stats == cold.comm_stats
        assert warm.config == cold.config

    def test_gpu_run_round_trips(self, cache):
        cfg = RunConfig(machine=YONA, implementation="hybrid_overlap",
                        cores=12, threads_per_task=6, box_thickness=2)
        cold = run(cfg)
        warm = run(cfg)
        assert cache.stats()["hits"] == 1
        assert warm.elapsed_s == cold.elapsed_s
        assert warm.gflops == cold.gflops

    def test_uncacheable_runs_bypass(self, cfg, cache):
        traced = cfg.with_(trace=True)
        r = run(traced)
        assert r.tracer is not None
        assert cache.stats() == {"hits": 0, "misses": 0, "stores": 0}
        r2 = run(traced)
        assert r2.tracer is not None  # simulated again, artifacts intact

    def test_no_cache_installed_means_no_files(self, cfg, tmp_path):
        assert run_cache.active_cache() is None
        run(cfg)
        assert list(tmp_path.iterdir()) == []


def _log_path(cache, key):
    """The shard log holding ``key``'s lines."""
    return os.path.join(cache.directory, f"{key[:2]}.jsonl")


def _read_lines(path):
    with open(path, "rb") as fh:
        return [line for line in fh.read().split(b"\n") if line]


def _rewrite_entry(cache, key, new_line, newline=True):
    """Replace ``key``'s line in its log with raw bytes; reopen the cache.

    The fresh handle re-indexes the log from disk, as a later process
    would.
    """
    path = _log_path(cache, key)
    lines = [new_line if key.encode() in line else line
             for line in _read_lines(path)]
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines) + (b"\n" if newline else b""))
    return run_cache.configure(cache.directory)


def _stale_line(key):
    return _encode_line(key, {"elapsed_s": 1.0, "phases": {}, "comm_stats": {}},
                        "pr0-ancient")


class TestInvalidation:
    def test_model_version_bump_invalidates(self, cfg, cache, monkeypatch):
        run(cfg)
        assert cache.stats()["stores"] == 1
        monkeypatch.setattr(run_cache, "MODEL_VERSION", "pr999-bumped")
        run(cfg)
        # Different version -> different key -> miss + fresh store.
        assert cache.stats()["misses"] == 2
        assert cache.stats()["stores"] == 2

    def test_prune_removes_foreign_versions(self, cfg, cache):
        run(cfg)
        key = config_key(cfg)
        # Forge a line from an older model version in the same shard.
        stale_key = key[:2] + "0" * 62
        with open(_log_path(cache, key), "ab") as fh:
            fh.write(_stale_line(stale_key))
        assert len(cache) == 2
        assert cache.prune() == 1
        assert len(cache) == 1
        assert [json.loads(line)["key"]
                for line in _read_lines(_log_path(cache, key))] == [key]
        run_cache.reset_stats()
        run(cfg)
        assert cache.stats()["hits"] == 1

    def test_prune_drops_an_all_stale_log(self, cache):
        path = os.path.join(cache.directory, "ab.jsonl")
        with open(path, "wb") as fh:
            fh.write(_stale_line("ab" + "1" * 62) + _stale_line("ab" + "2" * 62))
        assert cache.prune() == 2
        assert not os.path.exists(path)
        assert cache.prune() == 0

    def test_corrupt_entry_is_a_miss(self, cfg, cache):
        run(cfg)
        key = config_key(cfg)
        cache = _rewrite_entry(cache, key, b"{not json")
        r = run(cfg)  # falls back to simulation, re-stores
        assert r.elapsed_s > 0
        assert cache.stats() == {"hits": 0, "misses": 1, "stores": 1}
        last = json.loads(_read_lines(_log_path(cache, key))[-1])
        assert last["key"] == key and last["model_version"] == MODEL_VERSION

    def test_wrong_version_payload_is_a_miss(self, cfg, cache):
        run(cfg)
        key = config_key(cfg)
        doc = json.loads(_read_lines(_log_path(cache, key))[0])
        doc["model_version"] = "pr0-forged"
        cache = _rewrite_entry(cache, key, json.dumps(doc).encode())
        run(cfg)
        assert cache.stats()["hits"] == 0
        assert cache.tallies["wrong_version"] == 1


class TestExperimentIntegration:
    def test_warm_regeneration_is_identical_and_hits(self, tmp_path):
        from repro.experiments import run_experiment

        run_cache.configure(str(tmp_path / "c"))
        try:
            cold = run_experiment("sec5e", fast=True)
            stats_cold = run_cache.stats()
            assert stats_cold["hits"] == 0 and stats_cold["stores"] > 0
            run_cache.reset_stats()
            warm = run_experiment("sec5e", fast=True)
            stats_warm = run_cache.stats()
            assert stats_warm["hits"] > 0 and stats_warm["stores"] == 0
            assert cold.rows == warm.rows
            assert cold.series == warm.series
        finally:
            run_cache.configure(None)

    def test_cross_experiment_sharing(self, tmp_path):
        """Configs shared between experiments hit on the second figure."""
        from repro.experiments import run_experiment

        run_cache.configure(str(tmp_path / "c"))
        try:
            run_experiment("fig9", fast=True)
            run_cache.reset_stats()
            run_experiment("fig11", fast=True)  # Lens again: shared configs
            assert run_cache.stats()["hits"] > 0
        finally:
            run_cache.configure(None)

    def test_run_experiments_parallel_uses_cache(self, tmp_path):
        from repro.experiments import run_experiments

        d = str(tmp_path / "c")
        a = run_experiments(["fig9", "sec5e"], fast=True, jobs=2, cache_dir=d)
        warm_stats_before = run_cache.stats()
        assert warm_stats_before["stores"] > 0  # merged from workers
        b = run_experiments(["fig9", "sec5e"], fast=True, jobs=2, cache_dir=d)
        assert run_cache.stats()["hits"] > warm_stats_before["hits"]
        assert [r.rows for r in a] == [r.rows for r in b]
        run_cache.configure(None)


class TestCanonicalErrors:
    def test_type_error_names_the_field_path(self):
        from repro.cache import _canonical

        class Opaque:
            pass

        with pytest.raises(TypeError) as exc:
            _canonical({"outer": [1, {"inner": Opaque()}]})
        msg = str(exc.value)
        assert "Opaque" in msg
        assert "config['outer'][1]['inner']" in msg

    def test_dataclass_field_in_path(self):
        import dataclasses

        from repro.cache import _canonical

        @dataclasses.dataclass
        class Holder:
            payload: object

        with pytest.raises(TypeError) as exc:
            _canonical(Holder(payload=object()))
        assert "config.payload" in str(exc.value)


class TestCorruptEntries:
    def test_truncated_json_is_a_miss(self, cfg, cache):
        run(cfg)  # store
        key = config_key(cfg)
        line = _read_lines(_log_path(cache, key))[0]
        # A torn write: half the line, no newline.
        cache = _rewrite_entry(cache, key, line[: len(line) // 2],
                               newline=False)
        result = run(cfg)  # must re-simulate, not crash
        assert cache.stats()["misses"] == 1
        assert cache.stats()["stores"] == 1  # rewritten
        assert result.elapsed_s > 0
        # A partial last line is neither consumed nor counted as torn.
        assert cache.tallies["torn"] == 0

    def test_garbage_bytes_are_a_miss(self, cfg, cache):
        run(cfg)
        cache = _rewrite_entry(cache, config_key(cfg), b"\x00\xff\x00 not json")
        assert run(cfg).elapsed_s > 0
        assert cache.stats()["misses"] == 1
        assert cache.tallies["torn"] == 1

    def test_good_line_after_a_garbage_line_still_hits(self, cfg, cache):
        cold = run(cfg)
        key = config_key(cfg)
        path = _log_path(cache, key)
        good = _read_lines(path)[0]
        with open(path, "wb") as fh:
            fh.write(b"\xff\xfe garbage\n" + good + b"\n")
        cache = run_cache.configure(cache.directory)
        warm = run(cfg)
        assert cache.stats() == {"hits": 1, "misses": 0, "stores": 0}
        assert warm.elapsed_s == cold.elapsed_s
        assert cache.tallies == {"torn": 1, "wrong_version": 0,
                                 "ill_shaped": 0}

    def test_wrong_shape_json_is_a_miss(self, cfg, cache):
        run(cfg)
        key = config_key(cfg)
        for doc in (
            [1, 2, 3],  # not a dict
            {"v": 1, "key": key, "model_version": MODEL_VERSION},  # no fields
            {"v": 1, "key": key, "model_version": MODEL_VERSION,
             "elapsed_s": "NaN?", "phases": 7, "comm_stats": {}},  # phases
        ):
            # Rewrite the whole log: the key may no longer be in the line.
            with open(_log_path(cache, key), "wb") as fh:
                fh.write(json.dumps(doc).encode() + b"\n")
            cache = run_cache.configure(cache.directory)
            assert run(cfg).elapsed_s > 0
            assert cache.stats()["misses"] == 1
            assert cache.tallies["ill_shaped"] == 1

    def test_entry_matching_baseline_still_hits(self, cfg, cache):
        cold = run(cfg)
        run_cache.reset_stats()
        warm = run(cfg)
        assert cache.stats()["hits"] == 1
        assert warm.elapsed_s == cold.elapsed_s


class TestShardedLayout:
    def test_entries_land_in_prefix_shards(self, cfg, cache):
        run(cfg)
        key = config_key(cfg)
        assert os.listdir(cache.directory) == [f"{key[:2]}.jsonl"]
        (line,) = _read_lines(_log_path(cache, key))
        doc = json.loads(line)
        assert doc["key"] == key
        assert doc["model_version"] == MODEL_VERSION
        assert doc["v"] == 1

    def test_each_put_appends_one_line(self, cfg, cache):
        result = run(cfg)
        cache.put(cfg, result)
        cache.put(cfg, result)
        assert len(_read_lines(_log_path(cache, config_key(cfg)))) == 3

    def test_a_fresh_handle_hits_bit_identically(self, cfg, cache):
        cold = run(cfg)
        fresh = run_cache.configure(cache.directory)
        warm = run(cfg)
        assert fresh.stats() == {"hits": 1, "misses": 0, "stores": 0}
        assert warm.elapsed_s == cold.elapsed_s
        assert warm.phases == cold.phases
        assert warm.comm_stats == cold.comm_stats

    def test_last_write_wins(self, cfg, cache):
        cold = run(cfg)
        forged = dataclasses.replace(cold, elapsed_s=cold.elapsed_s * 2)
        cache.put(cfg, forged)
        run_cache.configure(cache.directory)
        assert run(cfg).elapsed_s == forged.elapsed_s

    def test_len_counts_across_shards(self, cfg, cache):
        run(cfg)
        run(cfg.with_(steps=3))
        run(cfg.with_(steps=4))
        assert len(cache) == 3

    def test_len_counts_a_duplicated_key_once(self, cfg, cache):
        result = run(cfg)
        cache.put(cfg, result)
        assert len(run_cache.configure(cache.directory)) == 1

    def test_probe_keys_counts_existence_without_counters(self, cfg, cache):
        run(cfg)
        key = config_key(cfg)
        run_cache.reset_stats()
        assert cache.probe_keys([key, "0" * 64]) == 1
        assert cache.warm_keys([key, "0" * 64]) == {key}
        assert cache.has_key(key) and not cache.has_key("1" * 64)
        assert cache.stats() == {"hits": 0, "misses": 0, "stores": 0}


def _to_old_layout(directory):
    """Rewrite a shard-log cache into the old per-file layouts.

    Alternate entries go to the flat v1 layout (``<dir>/<key>.json``) and
    to per-file shard directories (``<dir>/<key[:2]>/<key>.json``), in
    the old entry format; the logs are removed. Returns the entry count.
    """
    count = 0
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        for line in _read_lines(path):
            doc = json.loads(line)
            key = doc["key"]
            entry = {"model_version": doc["model_version"], "machine": "m",
                     "implementation": "i", "cores": 1,
                     "elapsed_s": doc["elapsed_s"], "phases": doc["phases"],
                     "comm_stats": doc["comm_stats"]}
            if count % 2:
                target = os.path.join(directory, f"{key}.json")
            else:
                os.makedirs(os.path.join(directory, key[:2]), exist_ok=True)
                target = os.path.join(directory, key[:2], f"{key}.json")
            with open(target, "w") as fh:
                json.dump(entry, fh)
            count += 1
        os.unlink(path)
    return count


class TestMigrate:
    def test_migrated_cache_replays_fig9_warm(self, tmp_path, capsys, caplog):
        from repro.cli import main

        d = str(tmp_path / "c")
        try:
            assert main(["experiment", "fig9", "--fast", "--cache-dir", d]) == 0
            cold = capsys.readouterr().out
            entries = _to_old_layout(d)
            assert entries > 0
            with open(os.path.join(d, "ab" + "0" * 62 + ".json"), "w") as fh:
                json.dump({"model_version": "pr0-ancient", "elapsed_s": 1.0,
                           "phases": {}, "comm_stats": {}}, fh)
            with open(os.path.join(d, "cd" + "0" * 62 + ".json"), "wb") as fh:
                fh.write(b"\xff\xfe garbage")

            # Before migrating: one warning naming the command, and the
            # old files are not read.
            with caplog.at_level(logging.WARNING, logger="repro.cache"):
                before = RunCache(d)
            (record,) = caplog.records
            assert "advection-repro cache migrate" in record.getMessage()
            assert len(before) == 0

            assert main(["cache", "migrate", d]) == 0
            out = capsys.readouterr().out
            assert f"{entries} migrated, 1 stale, 1 corrupt" in out
            assert sorted(os.listdir(d)) == sorted(
                n for n in os.listdir(d) if n.endswith(".jsonl"))
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="repro.cache"):
                assert len(RunCache(d)) == entries
            assert caplog.records == []

            assert main(["experiment", "fig9", "--fast", "--cache-dir", d]) == 0
            warm = capsys.readouterr().out
            stats_line = [l for l in warm.splitlines()
                          if l.startswith("run cache:")]
            assert stats_line and " 0 misses " in stats_line[0]
            assert " 0 stored " in stats_line[0]
            strip = lambda text: [l for l in text.splitlines()  # noqa: E731
                                  if not l.startswith("run cache:")]
            assert strip(warm) == strip(cold)

            assert main(["cache", "migrate", d]) == 0
            assert "0 migrated, 0 stale, 0 corrupt" in capsys.readouterr().out
        finally:
            run_cache.configure(None)

    def test_half_migrated_key_is_folded_once(self, cfg, tmp_path):
        d = str(tmp_path / "c")
        c = run_cache.configure(d)
        try:
            run(cfg)
            assert _to_old_layout(d) == 1
            key = config_key(cfg)
            # The same entry in both old layouts.
            with open(os.path.join(d, key[:2], f"{key}.json")) as src, \
                    open(os.path.join(d, f"{key}.json"), "w") as dst:
                dst.write(src.read())
            assert migrate(d) == {"migrated": 1, "stale": 0, "corrupt": 0}
            assert os.listdir(d) == [f"{key[:2]}.jsonl"]
            assert len(_read_lines(os.path.join(d, f"{key[:2]}.jsonl"))) == 1
            c = run_cache.configure(d)
            run(cfg)
            assert c.stats() == {"hits": 1, "misses": 0, "stores": 0}
        finally:
            run_cache.configure(None)

    def test_corrupt_old_files_are_counted_never_fatal(self, tmp_path):
        d = tmp_path / "c"
        (d / "ab").mkdir(parents=True)
        (d / "ab" / ("ab" + "1" * 62 + ".json")).write_bytes(b"{torn")
        (d / "ab" / "tmpx.tmp").write_bytes(b"leftover")
        (d / ("cd" + "2" * 62 + ".json")).write_text("[1, 2]")
        (d / ("ef" + "3" * 62 + ".json")).write_text(json.dumps(
            {"model_version": MODEL_VERSION, "elapsed_s": 1.0, "phases": 3,
             "comm_stats": {}}))
        assert migrate(str(d)) == {"migrated": 0, "stale": 0, "corrupt": 3}
        assert os.listdir(d) == []


class TestWorkloadKeys:
    """The workload axis vs the cache key.

    At the default workload the key must equal the pre-workload-layer
    key bit for bit (``_KEY_OMIT_DEFAULTS``): the four pinned digests
    below were computed on the pre-refactor tree.
    """

    # (config kwargs beyond machine, expected sha256) — machines by name.
    PINS = [
        (dict(machine="jaguarpf", implementation="bulk", cores=1536,
              threads_per_task=6),
         "0a81d49b9427fde1af567a036720b763ed1911e1731700e275ca587e832cef35"),
        (dict(machine="yona", implementation="hybrid_overlap", cores=12,
              threads_per_task=6, box_thickness=3),
         "762b633fc45d660d804c12a3b1c675e3964b0baa8454c0f679d96783f02ee51a"),
        (dict(machine="jaguarpf", implementation="nonblocking", cores=384,
              threads_per_task=1, seed=11),
         "f600e096d8cb30406e097b6626a7d4dde3ba23a8601a87c2ac3dbdeaf9020252"),
        (dict(machine="a100-sxm", implementation="gpu_streams", cores=64,
              threads_per_task=16),
         "5977cf28ed1a8d7b34235f2cfb1e06bfc7674aa27bcee87cfdc623a300e6f8f1"),
    ]

    @pytest.mark.parametrize("kwargs,expect", PINS)
    def test_pre_workload_keys_unchanged(self, kwargs, expect):
        from repro.machines import get_machine

        kwargs = dict(kwargs, machine=get_machine(kwargs["machine"]))
        assert config_key(RunConfig(**kwargs)) == expect

    def test_explicit_default_workload_hashes_identically(self, cfg):
        assert config_key(cfg) == config_key(
            cfg.with_(workload="advection", workload_params=())
        )

    def test_non_default_workload_enters_the_key(self, cfg):
        spmv = cfg.with_(workload="spmv")
        assert config_key(spmv) != config_key(cfg)
        assert config_key(spmv) != config_key(
            spmv.with_(workload_params=(("rows", 1 << 16),))
        )

    def test_spmv_runs_round_trip(self, cache):
        cfg = RunConfig(machine=JAGUARPF, implementation="nonblocking",
                        cores=24, threads_per_task=6, steps=2,
                        workload="spmv",
                        workload_params=(("rows", 1 << 15),))
        cold = run(cfg)
        warm = run(cfg)
        assert cache.stats()["hits"] == 1
        assert warm.elapsed_s == cold.elapsed_s
        assert warm.phases == cold.phases


class TestKeyMemoization:
    def test_key_memoized_on_the_instance(self, cfg):
        k1 = config_key(cfg)
        memo = cfg.__dict__.get("_key_memo")
        assert memo == (MODEL_VERSION, k1)
        assert config_key(cfg) is memo[1]  # returned without rehashing

    def test_with_builds_a_fresh_memo(self, cfg):
        config_key(cfg)
        derived = cfg.with_(steps=cfg.steps + 1)
        assert "_key_memo" not in derived.__dict__
        assert config_key(derived) != config_key(cfg)

    def test_model_version_override_bypasses_memo(self, cfg):
        k_default = config_key(cfg)
        k_other = config_key(cfg, model_version="other")
        assert k_other != k_default
        # And the default version still resolves correctly afterwards.
        assert config_key(cfg) == k_default

    def test_machine_canonical_memoized_at_catalog_load(self):
        # warm_machine_digests ran at repro.machines import, so every
        # registry spec already carries its canonical form.
        from repro.machines import MACHINES

        for spec in MACHINES.values():
            assert "_canonical_memo" in spec.__dict__

    def test_memo_does_not_leak_into_equality_or_repr(self, cfg):
        config_key(cfg)
        assert cfg == cfg.with_()
        assert "_key_memo" not in repr(cfg)


class TestSeedNoiseKeys:
    def test_noiseless_key_ignores_new_fields(self, cfg):
        # seed=None must hash exactly like the pre-perturbation config so
        # existing cache entries stay addressable.
        canon_key = config_key(cfg)
        assert canon_key == config_key(cfg.with_(seed=None, noise=None))

    def test_seed_and_noise_enter_the_key(self, cfg):
        from repro.perturb import NoiseSpec

        spec = NoiseSpec.preset("medium")
        k0 = config_key(cfg)
        k1 = config_key(cfg.with_(seed=1, noise=spec))
        k2 = config_key(cfg.with_(seed=2, noise=spec))
        k3 = config_key(cfg.with_(seed=1, noise=spec.scaled(0.5)))
        assert len({k0, k1, k2, k3}) == 4

    def test_seeded_runs_cache_and_replay_bit_identically(self, cfg, cache):
        from repro.perturb import NoiseSpec

        noisy = cfg.with_(seed=7, noise=NoiseSpec.preset("medium"))
        cold = run(noisy)
        warm = run(noisy)
        assert cache.stats()["hits"] == 1
        assert warm.elapsed_s == cold.elapsed_s
        assert warm.phases == cold.phases
