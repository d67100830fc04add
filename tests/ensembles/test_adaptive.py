"""Stream-K++ adaptive selector: differential and safety contracts.

The two tentpole-level guarantees (ISSUE 9, satellite 2):

* **Zero-capacity parity** — an :class:`AdaptiveSelector` built on the
  degenerate ``bits=0`` always-miss filter is *bitwise identical* to
  plain :func:`plan_query` on every GPU preset (provenance excluded by
  plan equality, like every other cache tier).
* **False positives are harmless** — a filter false positive can only
  cost one winner-table probe; selection still returns the correct
  fresh evaluation, never a stale or wrong plan.

Plus the selector mechanics those guarantees rest on: winner-table LRU
eviction mirrored into the filter, foreign-plan refusal, counter
accounting, and the serving integration (``ServeConfig(adaptive=True)``
hot path ahead of the LRU).
"""

import dataclasses

from repro.ensembles.adaptive import (
    AdaptiveConfig,
    AdaptiveSelector,
    Winner,
    analytic_evaluator,
    ensemble_evaluator,
)
from repro.gemm.dtypes import get_dtype_config
from repro.gpu.spec import available_gpus, resolve_gpu
from repro.obs.counters import get_counter, reset_counters
from repro.plan.core import plan_query
from repro.plan.service import PlanService, ServeConfig

_DTYPE = get_dtype_config("fp16_fp32")

# Shapes crossing all three planning regimes on every preset.
_SHAPES = [
    (512, 512, 512),
    (640, 384, 2048),
    (96, 96, 7168),
    (3072, 3072, 256),
]

_ZERO_CAP = AdaptiveConfig(filter_bits=0)


def _selector(gpu_name="a100", config=None, evaluator=None):
    return AdaptiveSelector(
        _DTYPE, resolve_gpu(gpu_name), config or AdaptiveConfig(), evaluator
    )


class TestZeroCapacityParity:
    def test_bitwise_identical_to_plan_query_on_all_presets(self):
        for gpu_name in available_gpus():
            gpu = resolve_gpu(gpu_name)
            selector = AdaptiveSelector(_DTYPE, gpu, _ZERO_CAP)
            for m, n, k in _SHAPES:
                sel = selector.select(m, n, k)
                assert sel.source == "model", gpu_name
                assert sel.plan == plan_query(m, n, k, _DTYPE, gpu), (
                    "zero-capacity selector diverged from plan_query "
                    "for %s on %s" % ((m, n, k), gpu_name)
                )

    def test_repeats_still_fall_through_with_zero_capacity(self):
        selector = _selector(config=_ZERO_CAP)
        first = selector.select(*_SHAPES[0])
        second = selector.select(*_SHAPES[0])
        assert first.source == second.source == "model"
        assert first.plan == second.plan
        assert len(selector) == 0  # max-winner table never populated

    def test_probe_plan_never_hits_with_zero_capacity(self):
        selector = _selector(config=_ZERO_CAP)
        selector.select(*_SHAPES[0])
        assert selector.probe_plan(*_SHAPES[0]) is None


class TestFalsePositiveSafety:
    def test_fp_costs_only_a_table_probe_never_a_wrong_plan(self):
        # One slot, one hash: after any insert, EVERY key false-positives
        # in the filter — the adversarial worst case.
        reset_counters()
        gpu = resolve_gpu("a100")
        selector = _selector(
            config=AdaptiveConfig(filter_bits=1, num_hashes=1)
        )
        selector.select(*_SHAPES[0])
        for m, n, k in _SHAPES[1:]:
            before = get_counter("adaptive.filter_fp")
            sel = selector.select(m, n, k)
            # The filter said "seen", the table said no: counted FP,
            # then a fresh, correct evaluation — never a wrong plan.
            assert get_counter("adaptive.filter_fp") == before + 1
            assert sel.source == "model"
            assert sel.plan == plan_query(m, n, k, _DTYPE, gpu)

    def test_evicted_shape_re_evaluates_correctly(self):
        gpu = resolve_gpu("a100")
        selector = _selector(config=AdaptiveConfig(max_winners=2))
        for m, n, k in _SHAPES[:3]:  # third insert evicts the first
            selector.select(m, n, k)
        assert len(selector) == 2
        sel = selector.select(*_SHAPES[0])
        assert sel.source == "model"
        assert sel.plan == plan_query(*_SHAPES[0], _DTYPE, gpu)


class TestSelectorMechanics:
    def test_repeat_shape_served_from_winner_table(self):
        reset_counters()
        selector = _selector()
        first = selector.select(*_SHAPES[0])
        second = selector.select(*_SHAPES[0])
        assert first.source == "model" and second.source == "winner"
        assert first.winner == second.winner
        assert get_counter("adaptive.hit") == 1
        assert get_counter("adaptive.miss") == 1

    def test_probe_plan_stamps_adaptive_provenance(self):
        gpu = resolve_gpu("a100")
        selector = _selector()
        selector.select(*_SHAPES[0])
        plan = selector.probe_plan(*_SHAPES[0])
        assert plan is not None
        assert plan.provenance == "cache:adaptive"
        # Provenance is excluded from equality: still equals a cold plan.
        assert plan == plan_query(*_SHAPES[0], _DTYPE, gpu)

    def test_lru_eviction_mirrors_into_filter(self):
        reset_counters()
        selector = _selector(config=AdaptiveConfig(max_winners=2))
        for m, n, k in _SHAPES[:3]:
            selector.select(m, n, k)
        assert get_counter("adaptive.evicted") == 1
        # The evicted key's filter membership is deleted (no overflow at
        # this scale), so the probe misses at the filter, not the table.
        before_fp = get_counter("adaptive.filter_fp")
        assert selector.probe(*_SHAPES[0]) is None
        assert get_counter("adaptive.filter_fp") == before_fp

    def test_retouch_promotes_against_eviction(self):
        selector = _selector(config=AdaptiveConfig(max_winners=2))
        selector.select(*_SHAPES[0])
        selector.select(*_SHAPES[1])
        selector.select(*_SHAPES[0])  # touch: now most-recently used
        selector.select(*_SHAPES[2])  # evicts _SHAPES[1], not [0]
        assert selector.probe(*_SHAPES[0]) is not None
        assert selector.probe(*_SHAPES[1]) is None

    def test_forget_removes_filter_and_table(self):
        selector = _selector()
        selector.select(*_SHAPES[0])
        selector.forget(*_SHAPES[0])
        assert selector.probe(*_SHAPES[0]) is None
        assert len(selector) == 0

    def test_foreign_plans_are_refused(self):
        selector = _selector("a100")
        plan = plan_query(*_SHAPES[0], _DTYPE, resolve_gpu("h100_sxm"))
        selector.remember_plan(plan)
        assert len(selector) == 0
        wrong_dtype = dataclasses.replace(
            plan_query(*_SHAPES[0], _DTYPE, resolve_gpu("a100")),
            dtype_name="fp64",
        )
        selector.remember_plan(wrong_dtype)
        assert len(selector) == 0

    def test_ensemble_winner_never_slower_than_analytic(self):
        gpu = resolve_gpu("a100")
        ens = _selector(evaluator=ensemble_evaluator(_DTYPE, gpu))
        ana = _selector(evaluator=analytic_evaluator(_DTYPE, gpu))
        for m, n, k in _SHAPES:
            w_ens = ens.select(m, n, k).winner
            w_ana = ana.select(m, n, k).winner
            assert w_ens.time_s <= w_ana.time_s
            # Both evaluators attach the same analytic plan.
            assert w_ens.plan == w_ana.plan


class TestServiceIntegration:
    def _service(self, **kw):
        return PlanService(
            ServeConfig(warm=False, persist=False, adaptive=True, **kw)
        )

    def test_adaptive_hot_path_ahead_of_lru(self):
        reset_counters()
        with self._service() as svc:
            cold = svc.submit(*_SHAPES[0])
            warm = svc.submit(*_SHAPES[0])
        assert cold.provenance == "model"
        assert warm.provenance == "cache:adaptive"
        assert warm == cold
        assert get_counter("serve.adaptive_hit") == 1
        assert get_counter("serve.adaptive_miss") == 1

    def test_adaptive_disabled_by_default(self):
        reset_counters()
        with PlanService(
            ServeConfig(warm=False, persist=False)
        ) as svc:
            svc.submit(*_SHAPES[0])
            plan = svc.submit(*_SHAPES[0])
        assert plan.provenance == "cache:hot"
        assert get_counter("serve.adaptive_hit") == 0
        assert get_counter("serve.adaptive_miss") == 0
        assert svc.stats()["adaptive"] is None

    def test_zero_capacity_service_matches_plain_service(self):
        with self._service(adaptive_filter_bits=0) as svc:
            a = svc.submit(*_SHAPES[1])
            b = svc.submit(*_SHAPES[1])
        with PlanService(
            ServeConfig(warm=False, persist=False)
        ) as plain:
            c = plain.submit(*_SHAPES[1])
        assert a == b == c  # provenance differs; plan decision identical

    def test_stats_report_adaptive_block(self):
        with self._service() as svc:
            svc.submit(*_SHAPES[0])
            stats = svc.stats()
        assert stats["adaptive"]["winners"] == 1
        assert stats["adaptive"]["filter_memory_bytes"] > 0
