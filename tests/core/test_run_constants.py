"""Differential tests for the per-run model constants computed once.

Three memos sit below the implementations: the mirror's node plan
(``simmpi.mirror._node_plan``), the per-node and per-GPU cost tables behind
``RankContext``'s helpers, and the per-GPU block-efficiency table
(``simgpu.blockmodel._block_table``). Each test keeps the uncached code the
memo replaced as a reference and asserts exact equality: same
representative and per-tag dicts, same best ``(block, eff)``, same kernel
rates, same charged durations and whole-run results, bit for bit.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Dict

import pytest

import repro.core.runner as runner
from repro.core import context as context_mod
from repro.core.config import RunConfig
from repro.core.context import RankContext
from repro.core.data import RankData
from repro.decomp.partition import Decomposition
from repro.des import Environment
from repro.machines import A100_SXM, EFA_CLOUD, JAGUARPF, LENS, MACHINES, YONA
from repro.machines.cpu_model import memcpy_time, task_compute_time
from repro.machines.calibration import COPY_BYTES_PER_POINT
from repro.perturb import NoiseSpec
from repro.simgpu import blockmodel
from repro.simgpu.blockmodel import (
    _coalesce_factor,
    _occupancy,
    _sweet_spot,
    admissible_blocks,
    best_block,
    block_efficiency,
    kernel_rate_gflops,
    stencil_kernel_time,
)
from repro.simgpu.device import Gpu
from repro.simmpi import mirror as mirror_mod
from repro.simmpi.api import halo_tag
from repro.simmpi.mirror import MirrorProfile
from repro.stencil.coefficients import FLOPS_PER_POINT

CATALOG = sorted(set(MACHINES.values()), key=lambda m: m.name)
GPUS = sorted({m.gpu for m in CATALOG if m.gpu is not None}, key=lambda g: g.name)


# -- references: the uncached code each memo replaced -------------------------

def reference_profile(machine, decomp, tasks_per_node):
    """``MirrorProfile.for_decomposition`` before the node plan was memoized."""
    tpn = min(tasks_per_node, decomp.ntasks)
    node_ranks = list(range(min(tpn, decomp.ntasks)))
    off = {r: decomp.offnode_dims(r, tpn) for r in node_ranks}

    def n_off(r):
        return sum(int(b) for d in off[r].values() for b in d)

    rep = max(node_ranks, key=n_off)
    offnode_by_tag: Dict[int, bool] = {}
    nic_share_by_tag: Dict[int, float] = {}
    for dim in range(3):
        node_sends = sum(int(b) for r in node_ranks for b in off[r][dim])
        for side in (-1, 1):
            tag = halo_tag(dim, side)
            is_off = off[rep][dim][0 if side < 0 else 1]
            offnode_by_tag[tag] = is_off
            nic_share_by_tag[tag] = max(1.0, float(node_sends))
    return MirrorProfile(
        interconnect=machine.interconnect,
        node=machine.node,
        nranks=decomp.ntasks,
        tasks_per_node=tpn,
        offnode_by_tag=offnode_by_tag,
        nic_share_by_tag=nic_share_by_tag,
        representative_rank=rep,
    )


def reference_block_efficiency(gpu, block, shape=(420, 420, 420)):
    """``block_efficiency`` before the per-GPU prefix table."""
    bx, by = block
    nx, ny = int(shape[0]), int(shape[1])
    if bx * by > gpu.max_threads_per_block or bx < 1 or by < 1:
        return 0.0
    occ = _occupancy(gpu, bx, by)
    if occ == 0.0:
        return 0.0
    threads = bx * by
    warp_util = threads / (math.ceil(threads / gpu.warp_size) * gpu.warp_size)
    halo_util = threads / ((bx + 2) * (by + 2))
    cover_x = nx / (math.ceil(nx / bx) * bx)
    cover_y = ny / (math.ceil(ny / by) * by)
    return (
        _coalesce_factor(gpu, bx)
        * warp_util
        * halo_util
        * (occ**0.35)
        * cover_x
        * cover_y
        * _sweet_spot(gpu, by)
    )


def reference_best(gpu, shape):
    """The full scan of every admissible block."""
    best, best_eff = None, 0.0
    for blk in admissible_blocks(gpu):
        eff = reference_block_efficiency(gpu, blk, shape)
        if eff > best_eff:
            best, best_eff = blk, eff
    return best, best_eff


def reference_kernel_rate(gpu, block, shape=(420, 420, 420)):
    _, ref_eff = reference_best(gpu, (420, 420, 420))
    eff = reference_block_efficiency(gpu, block, tuple(int(s) for s in shape))
    flop_rate = gpu.stencil_gflops_best * eff / ref_eff
    mem_rate = gpu.mem_bandwidth_gbs * (eff / ref_eff) / 20.0 * FLOPS_PER_POINT
    return min(flop_rate, mem_rate)


class ReferenceContext(RankContext):
    """``RankContext`` with the uncached cost helpers."""

    def compute(self, points, *, boundary=False, guided=False, efficiency=None,
                pieces=1, phase="compute"):
        eff = efficiency if efficiency is not None else (
            self.node.boundary_loop_efficiency if boundary else 1.0
        )
        t = task_compute_time(
            self.node, self.threads, points, efficiency=eff, guided=guided
        )
        if pieces > 1:
            from repro.machines.cpu_model import omp_region_overhead

            t += (pieces - 1) * omp_region_overhead(self.node, self.threads)
        return self._charge(phase, t)

    def copy_state_cost(self, points):
        t = task_compute_time(
            self.node, self.threads, points,
            bytes_per_point=COPY_BYTES_PER_POINT, flops_per_point=0.25,
        )
        return self._charge("copy", t)

    def memcpy(self, nbytes, stride_penalty=1.0, phase="pack", threads=None):
        return self._charge(
            phase,
            memcpy_time(
                self.node, nbytes,
                threads if threads is not None else self.threads,
                stride_penalty,
            ),
        )

    def stencil_kernel(self, stream, points, shape=None, action=None,
                       name="stencil"):
        gpu = self._require_gpu()
        t = stencil_kernel_time(
            gpu.spec, points, self.cfg.block, tuple(shape or self.sub.shape)
        )
        return gpu.launch_kernel(stream, t * self.gpu_share, action, name)

    def neighbor(self, dim, side):
        return self.decomp.neighbor(self.sub.rank, dim, side)

    def face_bytes(self, dim):
        from repro.decomp.halo import face_message_bytes

        return face_message_bytes(self.sub.shape, dim)


@pytest.fixture
def cold_tables():
    """Start from empty memos, so a run exercises the misses, then the hits."""
    for fn in (mirror_mod._node_plan, context_mod._host_cost_tables,
               context_mod._kernel_cost_table, blockmodel._block_table,
               blockmodel._best_block_cached):
        fn.cache_clear()


def reference_run(cfg, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(runner, "RankContext", ReferenceContext)
        return runner._run_uncached(cfg)


def assert_same_result(a, b):
    assert a.elapsed_s == b.elapsed_s
    assert a.phases == b.phases
    assert list(a.phases) == list(b.phases)
    assert a.comm_stats == b.comm_stats
    assert a.stats == b.stats
    assert a.gflops == b.gflops
    if a.tracer is not None or b.tracer is not None:
        assert a.tracer.events == b.tracer.events
        assert a.tracer.counters == b.tracer.counters


def assert_same_profile(got, want):
    assert got.representative_rank == want.representative_rank
    assert got.nranks == want.nranks
    assert got.tasks_per_node == want.tasks_per_node
    assert got.interconnect is want.interconnect
    assert got.node is want.node
    for name in ("offnode_by_tag", "nic_share_by_tag"):
        g, w = getattr(got, name), getattr(want, name)
        assert type(g) is dict
        assert [(k, type(v), v) for k, v in g.items()] == [
            (k, type(v), v) for k, v in w.items()
        ]


# -- mirror node plan -----------------------------------------------------------

PROFILE_CASES = [
    # (ntasks, domain, tasks_per_node)
    (64, (420, 420, 420), 1),  # tpn == 1: every face off-node
    (64, (420, 420, 420), 4),
    (48, (420, 420, 420), 48),  # tpn == ntasks: one node
    (8, (420, 420, 420), 12),  # tpn > ntasks
    (1, (420, 420, 420), 24),
    (7, (420, 420, 420), 4),  # primes: self-neighbours
    (13, (420, 420, 420), 12),
    (97, (420, 420, 420), 24),
    (96, (64, 32, 16), 12),  # non-cubic domains
    (60, (420, 100, 7), 6),
    (31, (5, 5, 400), 16),
    (3072, (420, 420, 420), 12),
]


class TestMirrorNodePlan:
    @pytest.mark.parametrize("ntasks,domain,tpn", PROFILE_CASES)
    def test_matches_reference_on_every_machine(self, cold_tables, ntasks, domain, tpn):
        decomp = Decomposition(ntasks, domain)
        for machine in CATALOG:
            want = reference_profile(machine, decomp, tpn)
            assert_same_profile(
                MirrorProfile.for_decomposition(machine, decomp, tpn), want
            )
            # Second call: served from the plan.
            assert_same_profile(
                MirrorProfile.for_decomposition(machine, decomp, tpn), want
            )

    def test_plan_keyed_on_grid_not_domain(self, cold_tables):
        # Same task count and grid on two domains: one plan, equal profiles.
        a = Decomposition(64, (420, 420, 420))
        b = Decomposition(64, (64, 64, 64))
        assert a.task_grid == b.task_grid
        MirrorProfile.for_decomposition(JAGUARPF, a, 4)
        MirrorProfile.for_decomposition(JAGUARPF, b, 4)
        info = mirror_mod._node_plan.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert_same_profile(
            MirrorProfile.for_decomposition(JAGUARPF, b, 4),
            reference_profile(JAGUARPF, b, 4),
        )

    def test_profiles_never_share_a_mutable_dict(self, cold_tables):
        decomp = Decomposition(64, (420, 420, 420))
        first = MirrorProfile.for_decomposition(JAGUARPF, decomp, 4)
        for tag in first.offnode_by_tag:
            first.offnode_by_tag[tag] = not first.offnode_by_tag[tag]
            first.nic_share_by_tag[tag] = 99.0
        second = MirrorProfile.for_decomposition(JAGUARPF, decomp, 4)
        assert second.offnode_by_tag is not first.offnode_by_tag
        assert second.nic_share_by_tag is not first.nic_share_by_tag
        assert_same_profile(second, reference_profile(JAGUARPF, decomp, 4))

    def test_plan_is_bounded(self):
        assert mirror_mod._node_plan.cache_info().maxsize == 256

    def test_rejects_a_grid_the_task_count_does_not_have(self):
        with pytest.raises(ValueError):
            mirror_mod._node_plan.__wrapped__(12, (3, 2, 2), 4)


# -- block-efficiency table ------------------------------------------------------

SHAPES = [
    (420, 420, 420),
    (32, 32, 32),
    (140, 105, 60),
    (421, 419, 7),
    (17, 3, 5),
    (1, 1, 1),
]


class TestBlockTable:
    @pytest.mark.parametrize("gpu", GPUS, ids=lambda g: g.name)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_best_block_matches_reference_scan(self, cold_tables, gpu, shape):
        want = reference_best(gpu, shape)
        assert blockmodel._best_block_cached.__wrapped__(gpu, shape) == want
        assert blockmodel._best_block_cached(gpu, shape) == want
        assert best_block(gpu, shape) == want[0]

    @pytest.mark.parametrize("gpu", GPUS, ids=lambda g: g.name)
    def test_efficiency_and_rate_of_every_block(self, gpu):
        for shape in SHAPES:
            for blk in admissible_blocks(gpu):
                want = reference_block_efficiency(gpu, blk, shape)
                assert block_efficiency(gpu, blk, shape) == want
                if want > 0.0:
                    assert kernel_rate_gflops(gpu, blk, shape) == (
                        reference_kernel_rate(gpu, blk, shape)
                    )
        # Outside the sweep: non-candidate x extents, over the thread
        # limit, empty extents.
        for blk in [(10, 10), (48, 3), (2 * gpu.max_threads_per_block, 1),
                    (32, gpu.max_threads_per_block), (0, 8), (32, 0)]:
            for shape in SHAPES:
                assert block_efficiency(gpu, blk, shape) == (
                    reference_block_efficiency(gpu, blk, shape)
                )

    @pytest.mark.parametrize("gpu", GPUS, ids=lambda g: g.name)
    def test_stencil_kernel_time(self, gpu):
        for shape in SHAPES:
            points = shape[0] * shape[1] * shape[2]
            blk = reference_best(gpu, shape)[0]
            want = points * FLOPS_PER_POINT / (
                reference_kernel_rate(gpu, blk, shape) * 1e9
            )
            assert stencil_kernel_time(gpu, points, None, shape) == want

    def test_variant_gets_its_own_table(self, cold_tables):
        gpu = YONA.gpu
        variant = replace(gpu, by_sweet_spot=11.0)
        assert variant.name == gpu.name
        assert blockmodel._block_table(variant) != blockmodel._block_table(gpu)
        for shape in SHAPES:
            assert blockmodel._best_block_cached(variant, shape) == (
                reference_best(variant, shape)
            )
        assert best_block(variant) != best_block(gpu)


# -- per-context cost tables -----------------------------------------------------

def make_ctx(cls, machine, gpu_share=1, **cfg_kw):
    kw = dict(machine=machine, implementation="bulk", cores=machine.node.cores,
              threads_per_task=2, domain=(64, 48, 40))
    kw.update(cfg_kw)
    cfg = RunConfig(**kw)
    env = Environment()
    decomp = Decomposition(cfg.ntasks, cfg.domain)
    sub = decomp.subdomain(0)
    gpu = Gpu(env, machine.gpu) if machine.gpu is not None else None
    return cls(env, cfg, sub, decomp, None, RankData(cfg, sub), gpu, gpu_share)


def run_charges(ctx, charges):
    """Run the events ``charges(ctx)`` returns to completion."""

    def prog():
        for event in charges(ctx):
            yield event

    ctx.env.process(prog())
    ctx.env.run()


def charge_everything(ctx):
    """Every memoized helper, with repeated and distinct arguments."""
    for _ in range(2):
        yield ctx.compute(10_000)
        yield ctx.compute(10_000, boundary=True)
        yield ctx.compute(10_000, boundary=True, pieces=6)
        yield ctx.compute(10_000, guided=True)
        yield ctx.compute(3_000, guided=True, efficiency=0.7, phase="inner")
        yield ctx.compute(0)
        yield ctx.copy_state_cost(12_345)
        yield ctx.memcpy(80_000, 0.5)
        yield ctx.memcpy(80_000, 0.5, phase="unpack", threads=1)
        yield ctx.memcpy(0)
        if ctx.gpu is not None:
            stream = ctx.gpu.stream("s")
            yield ctx.stencil_kernel(stream, 50_000)
            yield ctx.stencil_kernel(stream, 7_000, shape=(10, 20, 35))
    return [ctx.neighbor(d, s) for d in range(3) for s in (-1, 1)] + [
        ctx.face_bytes(d) for d in range(3)
    ]


class TestCostTables:
    @pytest.mark.parametrize("machine", CATALOG, ids=lambda m: m.name)
    @pytest.mark.parametrize("gpu_share", [1, 3])
    def test_helpers_match_uncached(self, cold_tables, machine, gpu_share):
        results = []
        for cls in (RankContext, RankContext, ReferenceContext):
            ctx = make_ctx(cls, machine, gpu_share)
            proc = ctx.env.process(charge_everything(ctx))
            ctx.env.run()
            results.append((proc.value, ctx.env.now, dict(ctx.phases)))
        assert results[0] == results[2]
        assert results[1] == results[2]

    def test_block_override_is_part_of_the_key(self, cold_tables):
        durations = []
        for block in (None, (32, 4), (64, 2)):
            ctx = make_ctx(RankContext, YONA, block=block)
            ref = make_ctx(ReferenceContext, YONA, block=block)
            for c in (ctx, ref):
                run_charges(c, lambda c: [c.stencil_kernel(c.gpu.stream("s"), 9_000)])
            assert ctx.env.now == ref.env.now
            durations.append(ctx.env.now)
        assert len(set(durations)) == 3

    def test_bad_side_still_raises(self):
        ctx = make_ctx(RankContext, JAGUARPF)
        with pytest.raises(ValueError):
            ctx.neighbor(0, 0)

    def test_tables_are_bounded(self, cold_tables, monkeypatch):
        monkeypatch.setattr(context_mod, "COST_TABLE_ENTRIES", 4)
        ctx = make_ctx(RankContext, JAGUARPF)
        ref = make_ctx(ReferenceContext, JAGUARPF)
        for c in (ctx, ref):
            run_charges(c, lambda c: [c.compute(1_000 + i) for i in range(10)])
        assert len(ctx._compute_costs) <= 4
        assert ctx.env.now == ref.env.now
        assert ctx.phases == ref.phases


RUN_CASES = [
    RunConfig(machine=JAGUARPF, implementation="bulk", cores=96, threads_per_task=2),
    RunConfig(machine=JAGUARPF, implementation="nonblocking", cores=48),
    RunConfig(machine=JAGUARPF, implementation="thread_overlap", cores=96,
              threads_per_task=6),
    RunConfig(machine=JAGUARPF, implementation="bulk_direct", cores=36,
              domain=(96, 64, 40)),
    RunConfig(machine=JAGUARPF, implementation="single", cores=12, threads_per_task=12,
              domain=(40, 40, 40)),
    RunConfig(machine=YONA, implementation="gpu_resident", cores=12, threads_per_task=12),
    RunConfig(machine=YONA, implementation="gpu_bulk", cores=48),
    RunConfig(machine=YONA, implementation="gpu_streams", cores=48, threads_per_task=12),
    RunConfig(machine=YONA, implementation="hybrid_bulk", cores=48, threads_per_task=6),
    RunConfig(machine=YONA, implementation="hybrid_overlap", cores=96,
              threads_per_task=6, box_thickness=3),
    RunConfig(machine=LENS, implementation="hybrid_overlap", cores=64,
              threads_per_task=4, block=(32, 8)),
    RunConfig(machine=A100_SXM, implementation="gpu_streams", cores=64,
              threads_per_task=4),
    # progress-thread model: the tax multiplies every memoized duration
    RunConfig(machine=EFA_CLOUD, implementation="nonblocking", cores=192,
              threads_per_task=4),
    RunConfig(machine=EFA_CLOUD, implementation="thread_overlap", cores=96,
              threads_per_task=8),
    # the full backend: one context per rank
    RunConfig(machine=JAGUARPF, implementation="nonblocking", cores=24,
              domain=(48, 36, 30), network="full"),
    RunConfig(machine=YONA, implementation="hybrid_overlap", cores=24,
              threads_per_task=6, domain=(48, 36, 30), network="full"),
]
NOISE = NoiseSpec.preset("high")


def _case_id(cfg):
    return f"{cfg.machine.name}-{cfg.implementation}-{cfg.cores}-{cfg.network}"


class TestWholeRuns:
    @pytest.mark.parametrize("cfg", RUN_CASES, ids=_case_id)
    def test_bit_identical_to_uncached(self, cold_tables, monkeypatch, cfg):
        want = reference_run(cfg, monkeypatch)
        assert_same_result(runner._run_uncached(cfg), want)  # misses
        assert_same_result(runner._run_uncached(cfg), want)  # hits

    @pytest.mark.parametrize("cfg", RUN_CASES[:13:3], ids=_case_id)
    def test_seeded_noise_and_traces(self, cold_tables, monkeypatch, cfg):
        for variant in (cfg.with_(seed=11, noise=NOISE), cfg.with_(trace=True),
                        cfg.with_(seed=5, noise=NOISE, trace=True)):
            want = reference_run(variant, monkeypatch)
            assert_same_result(runner._run_uncached(variant), want)
            assert_same_result(runner._run_uncached(variant), want)


# -- isolation -------------------------------------------------------------------

def _scaled(machine, component, field, factor):
    """A same-name machine variant, as experiments/sensitivity.py builds them."""
    part = getattr(machine, component)
    return replace(machine, **{component: replace(part, **{field: getattr(part, field) * factor})})


class TestIsolation:
    @pytest.mark.parametrize("machine,component,field,impl", [
        (YONA, "node", "stencil_flop_efficiency", "nonblocking"),
        (YONA, "node", "numa_bandwidth_gbs", "hybrid_overlap"),
        (JAGUARPF, "node", "boundary_loop_efficiency", "nonblocking"),
        (YONA, "gpu", "stencil_gflops_best", "gpu_streams"),
        (YONA, "gpu", "by_sweet_spot", "hybrid_bulk"),
        (JAGUARPF, "interconnect", "bandwidth_gbs", "bulk"),
    ])
    def test_same_name_variants_do_not_share(self, monkeypatch, machine, component,
                                             field, impl):
        variant = _scaled(machine, component, field, 0.5)
        assert variant.name == machine.name
        cfg = RunConfig(machine=machine, implementation=impl, cores=48,
                        threads_per_task=6)
        base = runner._run_uncached(cfg)
        moved = runner._run_uncached(cfg.with_(machine=variant))
        assert moved.elapsed_s != base.elapsed_s
        assert_same_result(moved, reference_run(cfg.with_(machine=variant), monkeypatch))
        assert_same_result(runner._run_uncached(cfg), base)

    def test_variant_profiles_carry_their_own_specs(self):
        variant = _scaled(JAGUARPF, "interconnect", "latency_us", 2.0)
        decomp = Decomposition(96, (420, 420, 420))
        a = MirrorProfile.for_decomposition(JAGUARPF, decomp, 12)
        b = MirrorProfile.for_decomposition(variant, decomp, 12)
        assert a.interconnect is JAGUARPF.interconnect
        assert b.interconnect is variant.interconnect
        assert_same_profile(b, reference_profile(variant, decomp, 12))

    @pytest.mark.parametrize("cfg", [RUN_CASES[1], RUN_CASES[9], RUN_CASES[12]],
                             ids=_case_id)
    def test_concurrent_runs_are_bit_equal(self, cold_tables, cfg):
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(runner._run_uncached, cfg) for _ in range(8)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(old)
        for result in results[1:]:
            assert_same_result(result, results[0])
        assert_same_result(results[0], runner._run_uncached(cfg))
