"""Persistent calibration cache: hits, structural invalidation, atomicity."""

import dataclasses
import json
import os

import pytest

from repro.gemm import FP64, Blocking
from repro.gpu import HYPOTHETICAL_4SM
from repro.model import calibrate
from repro.model.paramcache import (
    CALIBRATION_CACHE_VERSION,
    calibrate_cached,
    clear_memory_cache,
    gpu_fingerprint,
    load_cached_params,
    store_params,
    wipe_calibration_cache,
)
from repro.obs.counters import get_counter, reset_counters

BLOCKING = Blocking(16, 16, 8)


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memory_cache()
    yield
    clear_memory_cache()


class TestRoundTrip:
    def test_store_then_load(self, tmp_path):
        params = calibrate(HYPOTHETICAL_4SM, BLOCKING, FP64)
        path = store_params(params, HYPOTHETICAL_4SM, cache_dir=str(tmp_path))
        assert path is not None and os.path.isfile(path)
        loaded = load_cached_params(
            HYPOTHETICAL_4SM, BLOCKING, FP64, cache_dir=str(tmp_path)
        )
        assert loaded is not None
        assert (loaded.a, loaded.b, loaded.c, loaded.d) == (
            params.a, params.b, params.c, params.d,
        )

    def test_calibrate_cached_skips_recalibration(self, tmp_path):
        p1 = calibrate_cached(HYPOTHETICAL_4SM, BLOCKING, FP64, cache_dir=str(tmp_path))
        # Cold process simulation: clear the memo, keep the disk store.
        clear_memory_cache()
        p2 = calibrate_cached(HYPOTHETICAL_4SM, BLOCKING, FP64, cache_dir=str(tmp_path))
        assert (p1.a, p1.b, p1.c, p1.d) == (p2.a, p2.b, p2.c, p2.d)
        # Exactly one entry on disk.
        files = os.listdir(tmp_path / "calibration")
        assert len(files) == 1

    def test_equals_direct_calibration(self, tmp_path):
        cached = calibrate_cached(
            HYPOTHETICAL_4SM, BLOCKING, FP64, cache_dir=str(tmp_path)
        )
        direct = calibrate(HYPOTHETICAL_4SM, BLOCKING, FP64)
        assert (cached.a, cached.b, cached.c, cached.d) == (
            direct.a, direct.b, direct.c, direct.d,
        )


class TestInvalidation:
    def test_gpu_fingerprint_covers_every_field(self):
        fp = gpu_fingerprint(HYPOTHETICAL_4SM)
        changed = dataclasses.replace(HYPOTHETICAL_4SM, num_sms=5)
        assert gpu_fingerprint(changed) != fp
        renamed = dataclasses.replace(HYPOTHETICAL_4SM, name="other")
        assert gpu_fingerprint(renamed) != fp

    def test_a100_fingerprint_is_pinned(self):
        # Calibration files and plan-cache shards embed this digest in
        # their names; computing it once per spec must not change it.
        from repro.gpu.spec import A100

        assert gpu_fingerprint(A100) == (
            "a4b3c65c1ad3c281000fec62ad40fa419faaa1adb66f17259b6dce1e4971df22"
        )

    def test_fingerprint_survives_copies_and_round_trips(self):
        import copy
        import pickle

        from repro.gpu.spec import A100, GpuSpec

        for spec in (A100, A100.with_sms(54)):
            for twin in (
                GpuSpec.from_json(spec.to_json()),
                pickle.loads(pickle.dumps(spec)),
                copy.deepcopy(spec),
                dataclasses.replace(spec),
            ):
                assert twin == spec
                assert twin.to_json() == spec.to_json()
                assert gpu_fingerprint(twin) == gpu_fingerprint(spec)

    def test_rate_table_is_frozen(self):
        from repro.gpu.spec import A100

        with pytest.raises(TypeError):
            A100.macs_per_sm_per_cycle["fp64"] = 1.0
        rates = {"fp64": 4.0}
        spec = dataclasses.replace(HYPOTHETICAL_4SM, macs_per_sm_per_cycle=rates)
        before = gpu_fingerprint(spec)
        rates["fp64"] = 8.0  # the spec holds its own copy
        assert spec.macs_per_sm_per_cycle["fp64"] == 4.0
        assert gpu_fingerprint(spec) == before

    def test_stale_fingerprint_misses(self, tmp_path):
        params = calibrate(HYPOTHETICAL_4SM, BLOCKING, FP64)
        path = store_params(params, HYPOTHETICAL_4SM, cache_dir=str(tmp_path))
        doc = json.load(open(path))
        doc["gpu_fingerprint"] = "0" * 64
        json.dump(doc, open(path, "w"))
        assert load_cached_params(
            HYPOTHETICAL_4SM, BLOCKING, FP64, cache_dir=str(tmp_path)
        ) is None

    def test_stale_version_misses(self, tmp_path):
        params = calibrate(HYPOTHETICAL_4SM, BLOCKING, FP64)
        path = store_params(params, HYPOTHETICAL_4SM, cache_dir=str(tmp_path))
        doc = json.load(open(path))
        doc["version"] = CALIBRATION_CACHE_VERSION + 999
        json.dump(doc, open(path, "w"))
        assert load_cached_params(
            HYPOTHETICAL_4SM, BLOCKING, FP64, cache_dir=str(tmp_path)
        ) is None

    def test_corrupt_file_misses(self, tmp_path):
        params = calibrate(HYPOTHETICAL_4SM, BLOCKING, FP64)
        path = store_params(params, HYPOTHETICAL_4SM, cache_dir=str(tmp_path))
        with open(path, "w") as fh:
            fh.write("{not json")
        assert load_cached_params(
            HYPOTHETICAL_4SM, BLOCKING, FP64, cache_dir=str(tmp_path)
        ) is None
        # calibrate_cached degrades to recomputation, then overwrites.
        p = calibrate_cached(HYPOTHETICAL_4SM, BLOCKING, FP64, cache_dir=str(tmp_path))
        assert p is not None
        assert load_cached_params(
            HYPOTHETICAL_4SM, BLOCKING, FP64, cache_dir=str(tmp_path)
        ) is not None


class TestQuarantine:
    """Corrupt artifacts are renamed aside and counted, never re-parsed."""

    def _stored(self, tmp_path):
        params = calibrate(HYPOTHETICAL_4SM, BLOCKING, FP64)
        return store_params(params, HYPOTHETICAL_4SM, cache_dir=str(tmp_path))

    def test_unparsable_json_is_quarantined(self, tmp_path):
        reset_counters()
        path = self._stored(tmp_path)
        with open(path, "w") as fh:
            fh.write("{not json")
        assert load_cached_params(
            HYPOTHETICAL_4SM, BLOCKING, FP64, cache_dir=str(tmp_path)
        ) is None
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")
        assert get_counter("paramcache.corrupt_quarantined") == 1
        # The quarantined file is never matched again: next lookup is a
        # clean miss, not another quarantine.
        assert load_cached_params(
            HYPOTHETICAL_4SM, BLOCKING, FP64, cache_dir=str(tmp_path)
        ) is None
        assert get_counter("paramcache.corrupt_quarantined") == 1

    def test_mistyped_fields_are_quarantined(self, tmp_path):
        reset_counters()
        path = self._stored(tmp_path)
        doc = json.load(open(path))
        del doc["a"]
        json.dump(doc, open(path, "w"))
        assert load_cached_params(
            HYPOTHETICAL_4SM, BLOCKING, FP64, cache_dir=str(tmp_path)
        ) is None
        assert os.path.exists(path + ".corrupt")
        assert get_counter("paramcache.corrupt_quarantined") == 1

    def test_stale_entry_is_not_quarantined(self, tmp_path):
        """Version/fingerprint mismatches are legitimate misses — the
        entry stays in place to be overwritten by the next store."""
        reset_counters()
        path = self._stored(tmp_path)
        doc = json.load(open(path))
        doc["version"] = CALIBRATION_CACHE_VERSION + 999
        json.dump(doc, open(path, "w"))
        assert load_cached_params(
            HYPOTHETICAL_4SM, BLOCKING, FP64, cache_dir=str(tmp_path)
        ) is None
        assert os.path.exists(path)
        assert not os.path.exists(path + ".corrupt")
        assert get_counter("paramcache.corrupt_quarantined") == 0

    def test_quarantine_then_recompute_and_overwrite(self, tmp_path):
        path = self._stored(tmp_path)
        with open(path, "w") as fh:
            fh.write("garbage")
        p = calibrate_cached(
            HYPOTHETICAL_4SM, BLOCKING, FP64, cache_dir=str(tmp_path)
        )
        assert p is not None
        # Recomputed and re-stored under the original name.
        assert os.path.exists(path)
        assert load_cached_params(
            HYPOTHETICAL_4SM, BLOCKING, FP64, cache_dir=str(tmp_path)
        ) is not None

    def test_wipe_removes_quarantined_files(self, tmp_path):
        path = self._stored(tmp_path)
        with open(path, "w") as fh:
            fh.write("garbage")
        load_cached_params(
            HYPOTHETICAL_4SM, BLOCKING, FP64, cache_dir=str(tmp_path)
        )
        assert wipe_calibration_cache(cache_dir=str(tmp_path)) == 1
        assert os.listdir(tmp_path / "calibration") == []


class TestHousekeeping:
    def test_wipe(self, tmp_path):
        params = calibrate(HYPOTHETICAL_4SM, BLOCKING, FP64)
        store_params(params, HYPOTHETICAL_4SM, cache_dir=str(tmp_path))
        assert wipe_calibration_cache(cache_dir=str(tmp_path)) == 1
        assert wipe_calibration_cache(cache_dir=str(tmp_path)) == 0

    def test_no_disk_env_disables_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        calibrate_cached(HYPOTHETICAL_4SM, BLOCKING, FP64, cache_dir=str(tmp_path))
        assert not (tmp_path / "calibration").exists()

    def test_unwritable_dir_degrades_silently(self, tmp_path):
        target = tmp_path / "file-not-dir"
        target.write_text("occupied")
        # cache_dir points *into* a file: store fails, calibration still works
        p = calibrate_cached(
            HYPOTHETICAL_4SM, BLOCKING, FP64,
            cache_dir=str(target / "sub"),
        )
        assert p is not None

    def test_atomic_store_leaves_no_temp_files(self, tmp_path):
        params = calibrate(HYPOTHETICAL_4SM, BLOCKING, FP64)
        store_params(params, HYPOTHETICAL_4SM, cache_dir=str(tmp_path))
        leftovers = [
            f for f in os.listdir(tmp_path / "calibration") if f.endswith(".tmp")
        ]
        assert leftovers == []


class TestMultiBackendFingerprints:
    """Every registered preset must calibrate into its own cache slot."""

    def test_presets_have_pairwise_distinct_fingerprints(self):
        from repro.gpu.spec import GPU_PRESETS

        fps = {name: gpu_fingerprint(spec) for name, spec in GPU_PRESETS.items()}
        assert len(set(fps.values())) == len(fps), fps

    def test_each_preset_gets_its_own_cache_entry(self, tmp_path):
        from repro.gpu.spec import A100, H100_SXM, RTX3090

        paths = set()
        for gpu in (A100, H100_SXM, RTX3090):
            params = calibrate(gpu, BLOCKING, FP64)
            paths.add(store_params(params, gpu, cache_dir=str(tmp_path)))
        assert len(paths) == 3
        for gpu in (A100, H100_SXM, RTX3090):
            loaded = load_cached_params(gpu, BLOCKING, FP64, cache_dir=str(tmp_path))
            assert loaded == calibrate(gpu, BLOCKING, FP64)

    def test_custom_json_device_fingerprint_matches_original(self):
        from repro.gpu.spec import GpuSpec, RTX3090

        # JSON round trip is fingerprint-preserving: a custom device file
        # hits the same calibration entries as the in-process spec.
        assert gpu_fingerprint(GpuSpec.from_json(RTX3090.to_json())) == (
            gpu_fingerprint(RTX3090)
        )
