"""RunRequest: identity, serialization, and the key-stability contract.

The property tests here lock the refactor's central promise: a
default-fidelity, timed-warm-up ``RunRequest`` produces *byte-identical*
store keys to the pre-refactor plumbing.  The pre-refactor payloads are
reimplemented inline (not imported) so a drift in ``repro.store.keys``
or ``RunRequest`` cannot silently rewrite both sides of the comparison.
"""

import hashlib
import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import RunConfig, SystemConfig
from repro.core.request import (
    DEFAULT_WORKLOAD_SEED,
    FIDELITY_FULL,
    FIDELITY_TIERS,
    RunRequest,
    WorkloadSpec,
    effective_config,
    execute_request,
    format_failure,
)
from repro.store.keys import run_key, warm_key
from repro.system.checkpoint import WARMUP_PERTURBATION_SEED
from repro.workloads import make_workload


def pre_refactor_run_key(config, run, wspec, checkpoint_ref):
    """The run-key payload exactly as the pre-RunRequest plumbing built it
    (no warmup_mode fold for "timed", no fidelity field at all)."""
    payload = {
        "v": 1,
        "system": config.to_dict(),
        "run": run.to_dict(),
        "workload": {
            "name": wspec.name,
            "seed": wspec.seed,
            "scale": wspec.scale,
            "params": wspec.params_dict,
        },
        "checkpoint": checkpoint_ref,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def pre_refactor_warm_key(config, wspec, *, warmup_transactions, max_time_ns):
    """The warm-key payload as it was before fidelity existed."""
    payload = {
        "v": 1,
        "kind": "warm-checkpoint",
        "system": config.to_dict(),
        "workload": {
            "name": wspec.name,
            "seed": wspec.seed,
            "scale": wspec.scale,
            "params": wspec.params_dict,
        },
        "warmup_transactions": warmup_transactions,
        "warmup_seed": WARMUP_PERTURBATION_SEED,
        "max_time_ns": max_time_ns,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def configs():
    base = SystemConfig()
    return st.sampled_from(
        [
            base,
            base.with_dram_latency(120),
            base.with_l2_associativity(2),
            base.with_rob_entries(64),
        ]
    )


def workload_specs():
    return st.builds(
        WorkloadSpec,
        name=st.sampled_from(["oltp", "barnes", "slash"]),
        seed=st.integers(min_value=0, max_value=2**31),
        scale=st.sampled_from([0.5, 1.0, 2.0]),
        params=st.sampled_from([(), (("think_time_ns", 500),)]),
    )


def run_configs():
    return st.builds(
        RunConfig,
        measured_transactions=st.integers(min_value=1, max_value=10_000),
        warmup_transactions=st.integers(min_value=0, max_value=1_000),
        seed=st.integers(min_value=0, max_value=2**31),
    )


checkpoint_refs = st.sampled_from([None, "abc123", "warm:" + "0" * 32])


class TestKeyStability:
    @settings(max_examples=50, deadline=None)
    @given(
        config=configs(),
        run=run_configs(),
        wspec=workload_specs(),
        ckpt=checkpoint_refs,
    )
    def test_default_request_keys_byte_identical_to_pre_refactor(
        self, config, run, wspec, ckpt
    ):
        request = RunRequest(
            config=config, workload=wspec, run=run, checkpoint_ref=ckpt
        )
        expected = pre_refactor_run_key(config, run, wspec, ckpt)
        assert request.run_key == expected
        # ...and the store-side function agrees with both.
        assert run_key(config, run, wspec, checkpoint_digest=ckpt) == expected

    @settings(max_examples=50, deadline=None)
    @given(config=configs(), run=run_configs(), wspec=workload_specs())
    def test_default_warm_key_byte_identical_to_pre_refactor(
        self, config, run, wspec
    ):
        request = RunRequest(config=config, workload=wspec, run=run)
        expected = pre_refactor_warm_key(
            config,
            wspec,
            warmup_transactions=run.warmup_transactions,
            max_time_ns=run.max_time_ns,
        )
        assert request.warm_checkpoint_key() == expected
        assert (
            warm_key(
                config,
                wspec,
                warmup_transactions=run.warmup_transactions,
                warmup_seed=WARMUP_PERTURBATION_SEED,
                max_time_ns=run.max_time_ns,
            )
            == expected
        )

    @settings(max_examples=25, deadline=None)
    @given(config=configs(), run=run_configs(), wspec=workload_specs())
    def test_tier_and_mode_combinations_never_collide(self, config, run, wspec):
        """Every (fidelity, warmup_mode, sampling_mode) combination keys
        distinctly -- the never-mix rule, as injectivity of the key
        function."""
        keys = {}
        for fidelity in FIDELITY_TIERS:
            for mode in ("timed", "functional"):
                for sampling in ("fixed", "live"):
                    request = RunRequest(
                        config=config,
                        workload=wspec,
                        run=run,
                        warmup_mode=mode,
                        fidelity=fidelity,
                        sampling_mode=sampling,
                    )
                    keys[(fidelity, mode, sampling)] = request.run_key
        assert len(set(keys.values())) == len(keys)

    @settings(max_examples=50, deadline=None)
    @given(
        config=configs(),
        run=run_configs(),
        wspec=workload_specs(),
        ckpt=checkpoint_refs,
    )
    def test_live_sampling_folds_into_run_key_only(
        self, config, run, wspec, ckpt
    ):
        """``sampling_mode="live"`` re-keys the run (an estimate must never
        alias the exhaustively-timed result) but leaves the warm key alone
        (warm state is sampling-independent); the ``"fixed"`` default stays
        byte-identical to the pre-livesample payload."""
        fixed = RunRequest(
            config=config, workload=wspec, run=run, checkpoint_ref=ckpt
        )
        live = RunRequest(
            config=config,
            workload=wspec,
            run=run,
            checkpoint_ref=ckpt,
            sampling_mode="live",
        )
        assert fixed.run_key == pre_refactor_run_key(config, run, wspec, ckpt)
        assert live.run_key != fixed.run_key
        assert live.warm_checkpoint_key() == fixed.warm_checkpoint_key()

    def test_simple_tier_warm_key_separates_via_effective_config(self):
        """Warm keys have no fidelity parameter; a simple-tier request over
        an OOO config still warm-keys differently because the warm-up runs
        under the substituted model."""
        config = SystemConfig().with_rob_entries(64)
        run = RunConfig(measured_transactions=10, warmup_transactions=20)
        wspec = WorkloadSpec.resolve("oltp")
        full = RunRequest(config=config, workload=wspec, run=run)
        simple = full.with_fidelity("simple")
        assert full.warm_checkpoint_key() != simple.warm_checkpoint_key()
        # ...but on a config already using the simple model, the tiers
        # share warm state (same effective configuration).
        base = SystemConfig()
        full_b = RunRequest(config=base, workload=wspec, run=run)
        assert (
            full_b.warm_checkpoint_key()
            == full_b.with_fidelity("simple").warm_checkpoint_key()
        )


class TestWorkloadSpec:
    def test_resolve_name_uses_registry_default_seed(self):
        spec = WorkloadSpec.resolve("oltp")
        assert spec == WorkloadSpec(name="oltp", seed=DEFAULT_WORKLOAD_SEED)

    def test_resolve_instance_carries_overrides(self):
        workload = make_workload("oltp", seed=99, scale=2.0)
        spec = WorkloadSpec.resolve(workload)
        assert spec.name == "oltp"
        assert spec.seed == 99
        assert spec.scale == 2.0

    def test_resolve_conflicting_seed_rejected(self):
        workload = make_workload("oltp", seed=99)
        with pytest.raises(ValueError, match="drop one"):
            WorkloadSpec.resolve(workload, workload_seed=7)

    def test_round_trip(self):
        spec = WorkloadSpec(
            name="oltp", seed=3, scale=0.5, params=(("think_time_ns", 10),)
        )
        assert WorkloadSpec.from_dict(spec.to_dict()) == spec

    def test_params_sorted_regardless_of_input_order(self):
        a = WorkloadSpec.resolve("oltp", workload_params={"b": 2, "a": 1})
        b = WorkloadSpec.resolve("oltp", workload_params={"a": 1, "b": 2})
        assert a == b


class TestRunRequest:
    def request(self, **kwargs):
        return RunRequest(
            config=SystemConfig(),
            workload=WorkloadSpec.resolve("oltp"),
            run=RunConfig(measured_transactions=10),
            **kwargs,
        )

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError, match="fidelity"):
            self.request(fidelity="quantum")

    def test_unknown_warmup_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown warmup_mode 'psychic'"):
            self.request(warmup_mode="psychic")

    def test_unknown_sampling_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown sampling_mode 'psychic'"):
            self.request(sampling_mode="psychic")

    def test_with_seed_changes_only_the_seed(self):
        request = self.request()
        reseeded = request.with_seed(42)
        assert reseeded.run.seed == 42
        assert reseeded.config == request.config
        assert reseeded.run_key != request.run_key

    def test_round_trip_default_and_non_default(self):
        for request in (
            self.request(),
            self.request(warmup_mode="functional", fidelity="simple"),
            self.request(checkpoint_ref="warm:" + "a" * 32),
            self.request(sampling_mode="live"),
        ):
            assert RunRequest.from_dict(request.to_dict()) == request
            # through actual JSON text, as the wire carries it
            assert (
                RunRequest.from_dict(json.loads(json.dumps(request.to_dict())))
                == request
            )

    def test_default_fields_fold_out_of_wire_form(self):
        data = self.request().to_dict()
        assert "warmup_mode" not in data
        assert "fidelity" not in data
        assert "sampling_mode" not in data

    def test_picklable(self):
        request = self.request(fidelity="simple")
        assert pickle.loads(pickle.dumps(request)) == request

    def test_effective_config_substitutes_model_only_for_simple(self):
        ooo = SystemConfig().with_rob_entries(64)
        assert effective_config(ooo, "ooo") is ooo
        simple = effective_config(ooo, "simple")
        assert simple.processor.model == "simple"
        assert simple.memory == ooo.memory
        with pytest.raises(ValueError, match="fidelity"):
            effective_config(ooo, "turbo")


class TestExecuteRequest:
    def test_checkpoint_ref_without_checkpoint_rejected(self):
        request = RunRequest(
            config=SystemConfig(),
            workload=WorkloadSpec.resolve("oltp"),
            run=RunConfig(measured_transactions=5),
            checkpoint_ref="abc123",
        )
        with pytest.raises(ValueError, match="materialized checkpoint"):
            execute_request(request)


class TestFormatFailure:
    def test_includes_innermost_frames(self):
        def inner():
            raise KeyError("boom")

        def outer():
            inner()

        try:
            outer()
        except KeyError as exc:
            message = format_failure(exc)
        assert message.startswith("KeyError: 'boom'")
        assert "in inner" in message
        assert "test_request.py:" in message

    def test_no_traceback_degrades_gracefully(self):
        assert format_failure(ValueError("bare")) == "ValueError: bare"
