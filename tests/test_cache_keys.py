"""Differential test of ``config_key`` against its full-encoding reference.

``config_key`` splices a per-machine memoized JSON string into the key
document and renders scalar fields inline. The reference below is the
earlier body that canonicalizes and encodes the whole document every
time; the two must agree byte for byte on every key.
"""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cache as run_cache
from repro.cache import MODEL_VERSION, _canonical, config_key
from repro.core.config import RunConfig
from repro.machines import MACHINES, JAGUARPF, YONA, ProgressModel
from repro.perturb import NoiseSpec


def reference_key(cfg, model_version=None):
    """``config_key`` as it encoded the whole document (no memo, no splice)."""
    if model_version is None:
        model_version = MODEL_VERSION
    canon = {}
    omit = getattr(type(cfg), "_KEY_OMIT_DEFAULTS", None) or {}
    for f in dataclasses.fields(cfg):
        if f.name in omit and getattr(cfg, f.name) == omit[f.name]:
            continue
        if f.name == "machine":
            canon["machine"] = _canonical(cfg.machine, "config.machine")
        else:
            canon[f.name] = _canonical(getattr(cfg, f.name), f"config.{f.name}")
    if canon.get("seed") is None and canon.get("noise") is None:
        canon.pop("seed", None)
        canon.pop("noise", None)
    doc = {"model_version": model_version, "config": canon}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def assert_same_key(cfg):
    fresh = cfg.with_()  # no key memo on the instance
    assert config_key(fresh) == reference_key(cfg)


@pytest.fixture(scope="module")
def fast_experiment_configs():
    """Every config the ``--fast`` experiments simulate (uncached)."""
    import repro.core.runner as runner
    from repro.experiments import EXPERIMENTS, run_experiments

    seen = []
    inner = runner._run_uncached

    def record(cfg):
        seen.append(cfg)
        return inner(cfg)

    runner._run_uncached = record
    try:
        run_experiments(sorted(EXPERIMENTS), fast=True, jobs=1, cache_dir=None)
    finally:
        runner._run_uncached = inner
    return seen


def test_every_fast_experiment_config(fast_experiment_configs):
    assert len(fast_experiment_configs) > 1000
    for cfg in fast_experiment_configs:
        assert_same_key(cfg)


@pytest.fixture
def cfg():
    return RunConfig(machine=JAGUARPF, implementation="bulk", cores=24,
                     threads_per_task=6, steps=2)


def test_seeded_and_noisy_configs(cfg):
    for seed in (0, 7, 2**40):
        assert_same_key(cfg.with_(seed=seed))
        for preset in ("off", "low", "medium", "high"):
            assert_same_key(cfg.with_(seed=seed, noise=NoiseSpec.preset(preset)))
        assert_same_key(cfg.with_(
            seed=seed, noise=NoiseSpec.preset("medium").scaled(0.37)))


def test_spmv_workload_params(cfg):
    spmv = cfg.with_(workload="spmv")
    assert_same_key(spmv)
    assert_same_key(spmv.with_(workload_params=(("rows", 1 << 16),)))
    assert_same_key(spmv.with_(workload_params=(
        ("band", 64), ("density", 0.015625), ("pattern", "banded"),
        ("symmetric", True))))


def test_non_default_interconnect_knobs():
    for machine in (JAGUARPF, YONA):
        ic = machine.interconnect
        for changes in (
            {"progress": ProgressModel.PROGRESS_THREAD},
            {"progress": ProgressModel.HARDWARE_OFFLOAD,
             "progress_overlap_fraction": 0.5},
            {"gpudirect": True},
            {"nics_per_node": 4},
        ):
            spec = dataclasses.replace(
                machine, interconnect=dataclasses.replace(ic, **changes))
            cfg = RunConfig(machine=spec, implementation="nonblocking",
                            cores=machine.node.cores, steps=2)
            assert_same_key(cfg)
            assert config_key(cfg) != config_key(cfg.with_(machine=machine))


def test_model_version_override(cfg):
    assert config_key(cfg.with_(), model_version="other") == reference_key(
        cfg, model_version="other")


def test_placeholder_in_a_field_falls_back_to_the_full_encoding(cfg):
    # ``implementation`` sorts before ``machine``: a field holding the
    # machine stand-in must not receive the spliced machine JSON.
    for changes in ({"implementation": run_cache._MACHINE_SLOT},
                    {"workload": run_cache._MACHINE_SLOT},
                    {"workload_params": (("x", run_cache._MACHINE_SLOT),)}):
        odd = cfg.with_(**changes)
        assert_same_key(odd)
        assert config_key(odd) != config_key(cfg)


def test_unencodable_field_names_its_path(cfg):
    object.__setattr__(cfg, "domain", (420, object(), 420))
    with pytest.raises(TypeError, match=r"config\.domain\[1\]"):
        config_key(cfg)


_ints = st.integers(min_value=-(2**63), max_value=2**63)
_floats = st.floats(allow_nan=False)


@st.composite
def run_configs(draw):
    machine = draw(st.sampled_from(sorted(MACHINES.values(),
                                          key=lambda m: m.name)))
    cores = machine.node.cores
    threads = draw(st.sampled_from(
        [t for t in range(1, cores + 1) if cores % t == 0]))
    nodes = draw(st.integers(min_value=1, max_value=64))
    seed = draw(st.one_of(st.none(), _ints))
    noise = None
    if seed is not None:
        noise = draw(st.one_of(
            st.none(),
            st.sampled_from(["off", "low", "medium", "high"]).map(
                NoiseSpec.preset)))
    params = draw(st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(st.booleans(), _ints, _floats, st.text()), max_size=3))
    return RunConfig(
        machine=machine,
        implementation=draw(st.text(max_size=20)),
        cores=cores * nodes,
        threads_per_task=threads,
        steps=draw(st.integers(min_value=1, max_value=10**9)),
        domain=draw(st.tuples(_ints, _ints, _ints)),
        velocity=draw(st.tuples(_floats, _floats, _floats)),
        nu_fraction=draw(_floats),
        sigma=draw(_floats),
        block=draw(st.one_of(st.none(), st.tuples(_ints, _ints))),
        box_thickness=draw(_ints),
        network=draw(st.sampled_from(["mirror", "full"])),
        trace=draw(st.booleans()),
        seed=seed,
        noise=noise,
        disable_stream_overlap=draw(st.booleans()),
        disable_mpi_overlap=draw(st.booleans()),
        workload=draw(st.one_of(st.just("advection"), st.text(min_size=1))),
        workload_params=tuple(params.items()),
    )


@settings(max_examples=300, deadline=None)
@given(run_configs())
def test_any_run_config(cfg):
    assert_same_key(cfg)
