"""End-to-end tests for the distributed campaign service.

The load-bearing property is the differential one: a campaign executed
by service workers must land byte-identical payloads on the very same
keys an in-process :class:`~repro.campaign.Campaign` produces --
including warm-started and functional-warm-up grids.  On top of that:
submit-side dedup against a pre-seeded store, the HTTP surface
(submit/status/watch over a real socket), and crash recovery (a worker
SIGKILLed mid-cell changes nothing but wall-clock).
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.campaign import Campaign, CampaignSpec
from repro.config import RunConfig, SystemConfig
from repro.core import fanout as fanout_mod
from repro.core.runner import WorkloadSpec
from repro.service import (
    ServiceError,
    Worker,
    WorkQueue,
    enumerate_cells,
    spec_from_dict,
    spec_to_dict,
)
from repro.store import RunStore

REPO = Path(__file__).resolve().parent.parent

BASE = SystemConfig(n_cpus=2)
WORKLOAD = WorkloadSpec.resolve("oltp", workload_params={"threads_per_cpu": 2})


def small_spec(name="study", *, warm_start=False, warmup_mode="timed",
               warmup=0, n_runs=2):
    return CampaignSpec(
        configs=[("base", BASE), ("dram=200", BASE.with_dram_latency(200))],
        workloads=[WORKLOAD],
        run=RunConfig(measured_transactions=5, warmup_transactions=warmup,
                      seed=100),
        n_runs=n_runs,
        name=name,
        warm_start=warm_start,
        warmup_mode=warmup_mode,
    )


def service_run(spec, store, **worker_kwargs):
    """Execute a spec the service way: enqueue cells, drain one worker."""
    queue = WorkQueue(store.root / "queue.sqlite")
    cells = enumerate_cells(spec, store)
    campaign_id = queue.submit(spec.name, spec_to_dict(spec), cells)
    worker = Worker(queue, store, drain=True, poll_s=0.05, lease_s=10.0,
                    **worker_kwargs)
    worker.run_forever()
    assert queue.is_done(campaign_id)
    assert queue.counts(campaign_id)["quarantined"] == 0
    return queue, campaign_id, cells


def spawn_worker(store, queue, *flags, **env):
    """A real ``campaign worker`` process on ``store``/``queue``."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "worker",
         "--store", str(store.root), "--store-backend", store.backend.kind,
         "--queue", str(queue.path), "--quiet", *flags],
        env=dict(os.environ, PYTHONPATH=str(REPO / "src"), **env),
    )


def assert_stores_identical(inproc: RunStore, served: RunStore):
    keys = inproc.keys()
    assert keys, "differential ran against an empty store"
    assert served.keys() == keys
    for key in keys:
        assert served.get_payload(key) == inproc.get_payload(key)


class TestWireProtocol:
    def test_spec_round_trip(self):
        spec = small_spec(warm_start=True, warmup=20)
        assert spec_from_dict(spec_to_dict(spec)) == spec
        # and through actual JSON text, as the wire does
        assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))) == spec

    def test_adaptive_specs_rejected(self):
        from dataclasses import replace

        from repro.core.sampling import AdaptiveStopRule

        spec = replace(small_spec(), stop_rule=AdaptiveStopRule())
        with pytest.raises(ServiceError, match="adaptive"):
            spec_to_dict(spec)
        with pytest.raises(ServiceError, match="adaptive"):
            enumerate_cells(spec)

    def test_malformed_spec_rejected(self):
        with pytest.raises(ServiceError, match="malformed"):
            spec_from_dict({"configs": "nonsense"})
        with pytest.raises(ServiceError, match="version"):
            spec_from_dict({"version": 99})

    def test_unknown_warmup_mode_rejected_at_submit(self):
        data = spec_to_dict(small_spec())
        data["warmup_mode"] = "psychic"
        with pytest.raises(
            ServiceError, match="unknown warmup_mode 'psychic': expected one of"
        ):
            spec_from_dict(data)

    def test_unknown_fidelity_rejected_at_submit(self):
        data = spec_to_dict(small_spec())
        data["fidelity"] = "quantum"
        with pytest.raises(
            ServiceError, match="unknown fidelity 'quantum': expected one of"
        ):
            spec_from_dict(data)

    def test_fidelity_round_trips(self):
        from dataclasses import replace

        spec = replace(small_spec(), fidelity="simple")
        data = spec_to_dict(spec)
        assert data["fidelity"] == "simple"
        assert spec_from_dict(data) == spec

    @pytest.mark.parametrize("version", [1, 2, 4])
    def test_only_the_current_version_is_accepted(self, version):
        """v1/v2 clients never existed; their payloads get the same
        refusal as any other foreign version."""
        data = spec_to_dict(small_spec())
        data["version"] = version
        with pytest.raises(ServiceError, match=f"unsupported submission version {version}"):
            spec_from_dict(data)

    def test_unknown_sampling_mode_rejected_at_submit(self):
        data = spec_to_dict(small_spec())
        data["sampling_mode"] = "psychic"
        with pytest.raises(
            ServiceError, match="unknown sampling_mode 'psychic': expected one of"
        ):
            spec_from_dict(data)

    def test_sampling_mode_round_trips(self):
        from dataclasses import replace

        spec = replace(small_spec(), sampling_mode="live")
        data = spec_to_dict(spec)
        assert data["sampling_mode"] == "live"
        assert data["version"] == 3
        assert spec_from_dict(data) == spec

    def test_cells_match_campaign_plan(self, tmp_path):
        """enumerate_cells agrees with plan_campaign key for key."""
        from repro.campaign.plan import plan_campaign

        store = RunStore(tmp_path)
        spec = small_spec(warm_start=True, warmup=20)
        cells = enumerate_cells(spec, store)
        plan = plan_campaign(spec, store)
        assert [c.run_key for c in cells] == [r.key for r in plan.runs]


@pytest.mark.parametrize("backend", ["dir", "sqlite"])
class TestDifferential:
    def test_served_equals_in_process(self, tmp_path, backend):
        spec = small_spec()
        inproc = RunStore(tmp_path / "a", backend=backend)
        Campaign(spec, inproc).run()
        served = RunStore(tmp_path / "b", backend=backend)
        service_run(spec, served)
        assert_stores_identical(inproc, served)

    def test_served_equals_in_process_warm_start(self, tmp_path, backend):
        spec = small_spec(warm_start=True, warmup=30)
        inproc = RunStore(tmp_path / "a", backend=backend)
        Campaign(spec, inproc).run()
        served = RunStore(tmp_path / "b", backend=backend)
        service_run(spec, served)
        assert_stores_identical(inproc, served)

    def test_served_equals_in_process_functional_warmup(self, tmp_path, backend):
        spec = small_spec(warm_start=True, warmup=30, warmup_mode="functional")
        inproc = RunStore(tmp_path / "a", backend=backend)
        Campaign(spec, inproc).run()
        served = RunStore(tmp_path / "b", backend=backend)
        service_run(spec, served)
        assert_stores_identical(inproc, served)

    def test_served_equals_in_process_live_sampling(self, tmp_path, backend):
        from dataclasses import replace

        spec = replace(small_spec(warmup=10), sampling_mode="live")
        inproc = RunStore(tmp_path / "a", backend=backend)
        Campaign(spec, inproc).run()
        served = RunStore(tmp_path / "b", backend=backend)
        service_run(spec, served)
        assert_stores_identical(inproc, served)


def twice_listed_spec():
    """One configuration under two labels: both cells share every run key."""
    from dataclasses import replace

    return replace(small_spec(), configs=[("assoc=2", BASE), ("assoc=2 again", BASE)])


#: (POST /api/submit body, what the one-line refusal must say)
MALFORMED_SUBMISSIONS = {
    "list-body": ([], "submission must be a JSON object, not list"),
    "string-body": ("x", "submission must be a JSON object, not str"),
    "list-spec": ({"spec": []}, "campaign spec must be a JSON object, not list"),
    "attempts-text": (
        {"spec": spec_to_dict(small_spec()), "max_attempts": "abc"},
        "max_attempts must be an integer of at least 1, not \"abc\"",
    ),
    "attempts-null": (
        {"spec": spec_to_dict(small_spec()), "max_attempts": None},
        "max_attempts must be an integer of at least 1, not null",
    ),
    "attempts-zero": (
        {"spec": spec_to_dict(small_spec()), "max_attempts": 0},
        "max_attempts must be an integer of at least 1, not 0",
    ),
    "one-config-two-labels": (
        spec_to_dict(twice_listed_spec()),
        "configurations 'assoc=2' and 'assoc=2 again' name the same run (oltp, seed 100)",
    ),
}


class TestMalformedSubmissions:
    """Outside input the service cannot honour is a one-line
    :class:`ServiceError` before the queue is touched, never a Python
    exception name out of the handler's catch-all."""

    @pytest.mark.parametrize(
        "body, message", MALFORMED_SUBMISSIONS.values(), ids=MALFORMED_SUBMISSIONS
    )
    def test_submit_refuses_with_one_line(self, tmp_path, body, message):
        from repro.service.server import CampaignService

        store = RunStore(tmp_path, backend="sqlite")
        queue = WorkQueue(store.root / "queue.sqlite")
        with pytest.raises(ServiceError) as caught:
            CampaignService(store, queue).submit(body)
        assert str(caught.value).startswith(message)
        assert "\n" not in str(caught.value)
        assert queue.campaigns() == []  # no half-written campaign

    def test_in_process_campaign_serves_the_second_label_from_the_store(self, tmp_path):
        """The refusal is the queue's (cells are keyed by run key), not
        the spec's: in process the same grid runs each seed once."""
        store = RunStore(tmp_path, backend="dir")
        report = Campaign(twice_listed_spec(), store).run()
        assert [(cell.executed, cell.cached_hits) for cell in report.cells] == [(2, 0), (0, 2)]


class TestDedup:
    def test_submit_dedups_against_store(self, tmp_path):
        spec = small_spec()
        store = RunStore(tmp_path, backend="sqlite")
        Campaign(spec, store).run()
        executed = store.journal_length()
        cells = enumerate_cells(spec, store)
        assert all(c.cached for c in cells)
        queue, campaign_id, _ = service_run(spec, store)
        # the campaign is complete without a single new execution
        assert queue.counts(campaign_id)["cached"] == len(cells)
        assert store.journal_length() == executed

    def test_second_campaign_reuses_overlap(self, tmp_path):
        store = RunStore(tmp_path, backend="sqlite")
        service_run(small_spec("first"), store)
        executed = store.journal_length()
        # same grid, more seeds: only the new seeds run
        queue, cid, cells = service_run(small_spec("second", n_runs=3), store)
        counts = queue.counts(cid)
        assert counts["cached"] == 4  # 2 configs x 2 overlapping seeds
        assert counts["done"] == 2
        assert store.journal_length() == executed + 2


class TestWorker:
    def test_poisoned_cell_quarantined(self, tmp_path, monkeypatch):
        """A cell that always crashes is retried then quarantined; the
        rest of the campaign still completes."""
        spec = small_spec()
        store = RunStore(tmp_path, backend="sqlite")
        queue = WorkQueue(store.root / "queue.sqlite")
        cells = enumerate_cells(spec, store)
        cid = queue.submit(spec.name, spec_to_dict(spec), cells,
                           max_attempts=2)
        poisoned_key = cells[0].run_key
        poisoned = (spec.configs[cells[0].config_index][1], cells[0].seed)
        real_simulate = fanout_mod._simulate_resident

        def flaky(resident, run):
            if (resident.context.config, run.seed) == poisoned:
                raise RuntimeError("synthetic poison")
            return real_simulate(resident, run)

        monkeypatch.setattr(fanout_mod, "_simulate_resident", flaky)
        Worker(queue, store, drain=True, poll_s=0.05).run_forever()
        counts = queue.counts(cid)
        assert counts["quarantined"] == 1
        assert counts["done"] == len(cells) - 1
        assert queue.is_done(cid)
        rows = {r["run_key"]: r for r in queue.cells(cid)}
        assert "synthetic poison" in rows[poisoned_key]["error"]

    def test_raising_warm_up_fails_its_cell_not_the_worker(self, tmp_path, monkeypatch):
        """A warm-up that raises is each of its seeds' failure, retried and
        then quarantined; the worker drains the other cell."""
        from repro.system import checkpoint as checkpoint_mod

        spec = small_spec(warm_start=True, warmup=20)
        store = RunStore(tmp_path, backend="sqlite")
        queue = WorkQueue(store.root / "queue.sqlite")
        cid = queue.submit(spec.name, spec_to_dict(spec), enumerate_cells(spec, store),
                           max_attempts=2)
        real_warm, doomed = checkpoint_mod.warm_checkpoint, spec.configs[1][1]

        def warm(config, *args, **kwargs):
            if config == doomed:
                raise RuntimeError("synthetic warm-up fault")
            return real_warm(config, *args, **kwargs)

        monkeypatch.setattr(checkpoint_mod, "warm_checkpoint", warm)
        Worker(queue, store, drain=True, poll_s=0.05).run_forever()
        rows = queue.cells(cid)
        assert [r["state"] for r in rows] == ["done", "done", "quarantined", "quarantined"]
        assert all("synthetic warm-up fault" in r["error"] for r in rows[2:])

    def test_crash_recovery_sigkill(self, tmp_path):
        """SIGKILL a worker mid-cell: the lease lapses, the cell requeues,
        and the final store is byte-identical to an uninterrupted run."""
        spec = small_spec()
        inproc = RunStore(tmp_path / "ref")
        Campaign(spec, inproc).run()

        store = RunStore(tmp_path / "served", backend="sqlite")
        queue = WorkQueue(store.root / "queue.sqlite")
        cid = queue.submit(spec.name, spec_to_dict(spec),
                           enumerate_cells(spec, store))

        victim = spawn_worker(
            store, queue, "--lease", "1", REPRO_SERVICE_TEST_SLEEP="60"
        )
        try:
            deadline = time.monotonic() + 30
            while queue.counts(cid)["leased"] == 0:
                assert time.monotonic() < deadline, "victim never claimed"
                time.sleep(0.05)
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:
                victim.kill()

        # a surviving worker recovers the lapsed lease and finishes
        Worker(queue, store, drain=True, poll_s=0.1, lease_s=10.0).run_forever()
        assert queue.is_done(cid)
        counts = queue.counts(cid)
        assert counts["quarantined"] == 0
        assert counts["done"] + counts["cached"] == counts["total"]
        kinds = [e["kind"] for e in queue.events_since(cid, 0)]
        assert "lease-expired" in kinds
        assert_stores_identical(inproc, store)

    def test_worker_fleet_lands_in_process_bytes(self, tmp_path):
        """Two concurrent worker processes drain one queue into one sqlite
        store: every cell lands once, byte-identical to an in-process run."""
        spec = small_spec(n_runs=3)
        inproc = RunStore(tmp_path / "ref")
        Campaign(spec, inproc).run()

        store = RunStore(tmp_path / "served", backend="sqlite")
        queue = WorkQueue(store.root / "queue.sqlite")
        cid = queue.submit(spec.name, spec_to_dict(spec),
                           enumerate_cells(spec, store))
        # the post-claim pause keeps the first worker up from draining the
        # queue alone while the second is still importing
        fleet = [
            spawn_worker(store, queue, "--drain", "--poll", "0.05",
                         REPRO_SERVICE_TEST_SLEEP="0.5")
            for _ in range(2)
        ]
        try:
            for worker in fleet:
                assert worker.wait(timeout=120) == 0
        finally:
            for worker in fleet:
                if worker.poll() is None:
                    worker.kill()

        assert queue.is_done(cid)
        counts = queue.counts(cid)
        assert counts["quarantined"] == 0
        assert counts["done"] + counts["cached"] == counts["total"] == 6
        leases = [e for e in queue.events_since(cid, 0) if e["kind"] == "leased"]
        assert len({e["worker"] for e in leases}) == 2
        assert_stores_identical(inproc, store)


class TestHTTP:
    @pytest.fixture
    def server(self, tmp_path):
        from repro.service.server import make_server

        store = RunStore(tmp_path, backend="sqlite")
        queue = WorkQueue(store.root / "queue.sqlite")
        httpd = make_server(store, queue, port=0)  # ephemeral port
        thread = threading.Thread(target=httpd.serve_forever,
                                  kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        try:
            yield httpd, store, queue
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=10)

    def test_submit_watch_status(self, server):
        from repro.service.client import (
            ServiceClientError,
            campaign_status,
            submit_campaign,
            wait_healthy,
            watch_campaign,
        )

        httpd, store, queue = server
        host, port = httpd.server_address
        assert wait_healthy(host, port)

        spec = small_spec()
        receipt = submit_campaign(host, port, spec_to_dict(spec))
        assert receipt["cells"] == 4 and receipt["pending"] == 4

        worker = Worker(queue, store, drain=True, poll_s=0.05)
        drainer = threading.Thread(target=worker.run_forever, daemon=True)
        drainer.start()
        events = list(watch_campaign(host, port, receipt["id"]))
        drainer.join(timeout=60)

        assert events[-1]["kind"] == "campaign-done"
        assert events[-1]["ok"] is True
        assert events[-1]["counts"]["done"] == 4
        assert [e["kind"] for e in events[:1]] == ["submitted"]
        assert sum(1 for e in events if e["kind"] == "done") == 4

        status = campaign_status(host, port, receipt["id"])
        assert status["done"] is True
        assert len(status["cells"]) == 4
        assert all(c["state"] == "done" for c in status["cells"])

        with pytest.raises(ServiceClientError, match="unknown campaign"):
            campaign_status(host, port, "nope")

    def test_bad_submission_is_client_error(self, server):
        from repro.service.client import ServiceClientError, submit_campaign

        httpd, _, _ = server
        host, port = httpd.server_address
        with pytest.raises(ServiceClientError, match="malformed"):
            submit_campaign(host, port, {"configs": "nonsense"})

    def test_malformed_submissions_are_http_400(self, server):
        import urllib.error
        import urllib.request

        httpd, _, queue = server
        host, port = httpd.server_address
        for body, message in MALFORMED_SUBMISSIONS.values():
            request = urllib.request.Request(
                f"http://{host}:{port}/api/submit",
                data=json.dumps(body).encode("utf-8"),
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request, timeout=30)
            assert caught.value.code == 400
            reply = json.loads(caught.value.read())
            assert set(reply) == {"error"} and reply["error"].startswith(message)
        assert queue.campaigns() == []

    def test_watch_replays_history_for_late_watcher(self, server):
        from repro.service.client import submit_campaign, watch_campaign

        httpd, store, queue = server
        host, port = httpd.server_address
        spec = small_spec()
        receipt = submit_campaign(host, port, spec_to_dict(spec))
        # campaign fully finishes before anyone watches
        Worker(queue, store, drain=True, poll_s=0.05).run_forever()
        events = list(watch_campaign(host, port, receipt["id"]))
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "submitted"
        assert kinds[-1] == "campaign-done"
        assert kinds.count("done") == 4
