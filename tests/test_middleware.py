"""Tests for the REST facade, MQSS client routing, and adapters."""

import pytest

from repro.circuits import ghz_circuit
from repro.circuits.serialize import circuit_to_dict
from repro.errors import AdapterError, RestApiError
from repro.middleware import MQSSClient, RestClient, RestServer, detect_execution_context
from repro.middleware.adapters import (
    QPI_SUCCESS,
    ClassicalRegister,
    QiskitLikeAdapter,
    QiskitLikeCircuit,
    QuantumRegister,
    make_kernel,
    qnode,
    qpi_apply,
    qpi_create,
    qpi_destroy,
    qpi_finalize,
    qpi_measure_all,
)
from repro.middleware.adapters.pennylane_like import CNOT, Hadamard, RX
from repro.middleware.adapters.qpi import QPI_ERROR_INVALID_ARGUMENT
from repro.qpu import QPUDevice
from repro.scheduler import QuantumResourceManager


@pytest.fixture
def qrm(device):
    return QuantumResourceManager(device)


@pytest.fixture
def server(qrm):
    return RestServer(qrm)


class TestRestServer:
    def test_submit_and_fetch(self, server):
        resp = server.post_job({"circuit": circuit_to_dict(ghz_circuit(2)), "shots": 64})
        assert resp.status == 201
        job_id = resp.body["job_id"]
        assert server.get_job(job_id).body["status"] == "pending"
        server.process()
        body = server.get_job(job_id).body
        assert body["status"] == "completed"
        assert sum(body["result"]["counts"].values()) == 64

    def test_missing_circuit_400(self, server):
        assert server.post_job({"shots": 10}).status == 400
        assert server.post_job(["x"]).status == 400
        assert server.post_batch(["x"]).status == 400

    def test_bad_circuit_400(self, server):
        assert server.post_job({"circuit": {"bogus": 1}}).status == 400

    def test_bad_shots_400(self, server):
        for shots in (-5, True, 2.5, "64"):
            payload = {"circuit": circuit_to_dict(ghz_circuit(2)), "shots": shots}
            assert server.post_job(payload).status == 400
            assert server.post_batch({"jobs": [payload]}).status == 400
        assert server.qrm.queue_length == 0

    def test_excessive_shots_422(self, server):
        payload = {"circuit": circuit_to_dict(ghz_circuit(2)), "shots": 10_000_000}
        assert server.post_job(payload).status == 422

    def test_unknown_job_404(self, server):
        for job_id in (999, "abc", None):
            assert server.get_job(job_id).status == 404
            assert server.delete_job(job_id).status == 404

    def test_cancel_pending(self, server):
        resp = server.post_job({"circuit": circuit_to_dict(ghz_circuit(2))})
        job_id = resp.body["job_id"]
        assert server.delete_job(job_id).status == 200
        assert server.get_job(job_id).body["status"] == "cancelled"

    def test_cancel_completed_conflict(self, server):
        resp = server.post_job({"circuit": circuit_to_dict(ghz_circuit(2)), "shots": 16})
        server.process()
        assert server.delete_job(resp.body["job_id"]).status == 409

    def test_device_endpoint(self, server):
        body = server.get_device().body
        assert body["num_qubits"] == 20
        assert len(body["coupling_map"]) == 31
        assert "prx" in body["native_gates"]

    def test_pagination(self, server):
        """Section 4: efficient pagination over large job histories."""
        for i in range(25):
            server.post_job(
                {"circuit": circuit_to_dict(ghz_circuit(2)), "shots": 1, "user": f"u{i % 2}"}
            )
        page1 = server.list_jobs(offset=0, limit=10).body
        assert page1["total"] == 25
        assert len(page1["jobs"]) == 10
        assert page1["next_offset"] == 10
        page3 = server.list_jobs(offset=20, limit=10).body
        assert len(page3["jobs"]) == 5
        assert page3["next_offset"] is None

    def test_pagination_filters(self, server):
        for i in range(6):
            server.post_job(
                {"circuit": circuit_to_dict(ghz_circuit(2)), "shots": 1, "user": f"u{i % 2}"}
            )
        filtered = server.list_jobs(user="u0").body
        assert filtered["total"] == 3

    def test_page_size_capped(self, server):
        body = server.list_jobs(limit=10_000).body
        assert body["limit"] == RestServer.MAX_PAGE_SIZE

    def test_bad_pagination_params(self, server):
        assert server.list_jobs(offset=-1).status == 400

    def test_finished_jobs_are_bounded(self, server):
        """300 finished jobs keep the newest 256: the oldest ids read
        404, the newest is served, and queued jobs are never evicted."""
        payload = {"circuit": circuit_to_dict(ghz_circuit(2)), "shots": 1}
        queued = [server.post_job(payload).body["job_id"] for _ in range(3)]
        cancelled = server.post_job(payload).body["job_id"]
        assert server.delete_job(cancelled).status == 200
        # The queued jobs go to the back of the queue.
        for job_id in queued:
            server.qrm.queue.remove(server._job(job_id))
        finished = [cancelled]
        for _ in range(299):
            finished.append(server.post_job(payload).body["job_id"])
            assert server.process() == 1
        for job_id in queued:
            server.qrm.queue.append(server._job(job_id))
        limit = RestServer.MAX_FINISHED_JOBS
        assert limit == 256
        assert server.list_jobs().body["total"] == limit + len(queued)
        assert server.list_jobs(status="completed").body["total"] == limit
        for job_id in finished[: len(finished) - limit]:
            assert server.get_job(job_id).status == 404
        newest = server.get_job(finished[-1])
        assert newest.status == 200 and newest.body["status"] == "completed"
        assert server.get_job(finished[-limit]).status == 200
        for job_id in queued:
            assert server.get_job(job_id).body["status"] == "pending"
        # The queued jobs still run, and each evicts one more.
        assert server.process(len(queued)) == len(queued)
        for job_id in queued:
            assert server.get_job(job_id).body["status"] == "completed"
        assert server.get_job(finished[-limit]).status == 404
        assert server.list_jobs().body["total"] == limit


class TestMetricsEndpoint:
    @pytest.fixture
    def metric_server(self, qrm):
        from repro.telemetry import MetricStore

        return RestServer(qrm, metrics=MetricStore())

    def test_metrics_404_without_store(self, server):
        resp = server.get_metrics()
        assert resp.status == 404
        assert "no metric store" in resp.body["error"]

    def test_metrics_latest_values_with_prefix_filter(self, metric_server):
        metric_server.metrics.insert("qpu.t1", 0.0, 40e-6)
        metric_server.metrics.insert("qpu.t1", 1.0, 39e-6)
        metric_server.metrics.insert("facility.temp", 0.0, 290.0)
        resp = metric_server.get_metrics(prefix="qpu")
        assert resp.status == 200
        assert resp.body["count"] == 1
        assert resp.body["sensors"]["qpu.t1"] == {
            "timestamp": 1.0,
            "value": 39e-6,
        }
        everything = metric_server.get_metrics()
        assert everything.body["count"] == 2

    def test_metrics_empty_prefix_match(self, metric_server):
        resp = metric_server.get_metrics(prefix="nope")
        assert resp.status == 200
        assert resp.body == {"prefix": "nope", "count": 0, "sensors": {}}

    def test_traced_job_report_served_and_recorded(self, metric_server):
        """The observability loop end to end: a traced job's
        ExecutionReport rides GET /jobs/{id} and lands on the attached
        store as simulator.exec.* sensors at the completion clock."""
        from repro.simulator import engine_mode

        payload = {"circuit": circuit_to_dict(ghz_circuit(3)), "shots": 64}
        job_id = metric_server.post_job(payload).body["job_id"]
        with engine_mode("fast", trace=True):
            metric_server.process()
        body = metric_server.get_job(job_id).body
        assert body["status"] == "completed"
        report = body["result"]["execution_report"]
        assert report["mode"] == "fast"
        assert report["shots"] == 64
        assert report["wall_seconds"] > 0.0
        assert "sampler.grouped" in report["phase_seconds"]
        assert (
            metric_server.metrics.latest("simulator.exec.shots").value == 64.0
        )
        assert (
            metric_server.metrics.latest("simulator.exec.wall_seconds").value
            > 0.0
        )

    def test_untraced_job_has_no_report(self, metric_server):
        payload = {"circuit": circuit_to_dict(ghz_circuit(2)), "shots": 32}
        job_id = metric_server.post_job(payload).body["job_id"]
        metric_server.process()
        body = metric_server.get_job(job_id).body
        assert body["status"] == "completed"
        assert "execution_report" not in body["result"]
        assert metric_server.metrics.sensors("simulator.exec") == []

    def test_reports_from_two_jobs_share_the_timeline(self, metric_server):
        from repro.simulator import engine_mode

        for _ in range(2):
            payload = {"circuit": circuit_to_dict(ghz_circuit(2)), "shots": 16}
            metric_server.post_job(payload)
        with engine_mode("fast", trace=True):
            metric_server.process(max_jobs=2)
        ts, vs = metric_server.metrics.query("simulator.exec.shots")
        assert list(vs) == [16.0, 16.0]
        assert ts[1] > ts[0]  # device clock advanced between completions


class TestRestClient:
    def test_full_cycle(self, server):
        client = RestClient(server)
        job_id = client.submit(ghz_circuit(2), shots=32)
        result = client.wait(job_id)
        assert sum(result["counts"].values()) == 32

    def test_result_before_completion_raises(self, server):
        client = RestClient(server)
        job_id = client.submit(ghz_circuit(2), shots=8)
        with pytest.raises(RestApiError):
            client.result(job_id)

    def test_error_status_carried(self, server):
        client = RestClient(server)
        with pytest.raises(RestApiError) as err:
            client.status(9999)
        assert err.value.status == 404


class TestClientRouting:
    def test_detect_context_from_env(self):
        assert detect_execution_context({"SLURM_JOB_ID": "123"}) == "hpc"
        assert detect_execution_context({}) == "remote"

    def test_explicit_contexts(self, qrm):
        assert MQSSClient(qrm, context="hpc").context == "hpc"
        assert MQSSClient(qrm, context="remote").context == "remote"

    def test_auto_context_uses_env(self, qrm):
        client = MQSSClient(qrm, context="auto", env={"SLURM_JOB_ID": "1"})
        assert client.context == "hpc"

    def test_both_paths_same_distribution(self, qrm):
        """Figure 2's core contract: identical results either way."""
        hpc = MQSSClient(qrm, context="hpc")
        remote = MQSSClient(qrm, context="remote")
        ch = hpc.run(ghz_circuit(3), shots=4000)
        cr = remote.run(ghz_circuit(3), shots=4000)
        assert ch.total_variation_distance(cr) < 0.05
        assert hpc.records[-1].path == "hpc"
        assert remote.records[-1].path == "rest"

    def test_invalid_context_rejected(self, qrm):
        from repro.errors import RoutingError

        with pytest.raises(RoutingError):
            MQSSClient(qrm, context="cloud")

    def test_run_detailed_provenance(self, qrm):
        client = MQSSClient(qrm, context="hpc")
        record = client.run_detailed(ghz_circuit(2), shots=16)
        assert record.shots == 16
        assert record.duration > 0


class TestQiskitAdapter:
    def test_register_arithmetic(self):
        qr1, qr2 = QuantumRegister(2, "a"), QuantumRegister(3, "b")
        qc = QiskitLikeCircuit(qr1, qr2)
        qc.h(qr2[0])
        translated = QiskitLikeAdapter.translate(qc)
        assert translated[0].qubits == (2,)  # qr2[0] is global index 2

    def test_bell_distribution(self, qrm):
        qr = QuantumRegister(2)
        qc = QiskitLikeCircuit(qr, name="bell")
        qc.h(qr[0]).cx(qr[0], qr[1]).measure_all()
        counts = MQSSClient(qrm, context="hpc").run(
            QiskitLikeAdapter.translate(qc), shots=500
        )
        assert counts.ghz_fidelity_estimate() > 0.8

    def test_explicit_classical_register(self):
        qr, cr = QuantumRegister(2), ClassicalRegister(2)
        qc = QiskitLikeCircuit(qr, cr)
        qc.measure(qr[1], cr[0])
        translated = QiskitLikeAdapter.translate(qc)
        assert translated[0].clbits == (0,)

    def test_foreign_register_rejected(self):
        qc = QiskitLikeCircuit(QuantumRegister(2))
        other = QuantumRegister(2)
        with pytest.raises(AdapterError):
            qc.h(other[0])


class TestPennylaneAdapter:
    def test_qnode_records_tape(self, qrm):
        @qnode(num_wires=2)
        def bell():
            Hadamard(wires=0)
            CNOT(wires=[0, 1])

        counts = MQSSClient(qrm, context="hpc").run(bell(), shots=400)
        assert counts.ghz_fidelity_estimate() > 0.8

    def test_parameterized_qnode(self, qrm):
        import math

        @qnode(num_wires=1)
        def rot(theta):
            RX(theta, wires=0)

        counts = MQSSClient(qrm, context="hpc").run(rot(math.pi), shots=400)
        assert counts.most_frequent() == "1"

    def test_ops_outside_qnode_rejected(self):
        with pytest.raises(AdapterError):
            Hadamard(wires=0)

    def test_wrong_wire_count_rejected(self):
        @qnode(num_wires=2)
        def bad():
            CNOT(wires=[0])

        with pytest.raises(AdapterError):
            bad()


class TestCudaqAdapter:
    def test_kernel_building(self, qrm):
        kernel, q = make_kernel(3, "ghz")
        kernel.h(q[0]).cx(q[0], q[1]).cx(q[1], q[2]).mz()
        counts = MQSSClient(qrm, context="hpc").run(kernel.module, shots=400)
        assert counts.ghz_fidelity_estimate() > 0.75

    def test_qvector_bounds(self):
        _, q = make_kernel(2)
        with pytest.raises(AdapterError):
            q[5]

    def test_module_is_quake(self):
        kernel, q = make_kernel(2)
        kernel.h(q[0])
        assert kernel.module.dialects_used() == {"quake"}


class TestQpiAdapter:
    def test_procedural_flow(self, qrm):
        h = qpi_create(2, "bell")
        assert qpi_apply(h, "H", [0]) == QPI_SUCCESS
        assert qpi_apply(h, "CNOT", [0, 1]) == QPI_SUCCESS
        assert qpi_measure_all(h) == QPI_SUCCESS
        circuit = qpi_finalize(h)
        counts = MQSSClient(qrm, context="hpc").run(circuit, shots=400)
        assert counts.ghz_fidelity_estimate() > 0.8

    def test_status_codes_not_exceptions(self):
        h = qpi_create(1)
        assert qpi_apply(h, "WARP", [0]) == QPI_ERROR_INVALID_ARGUMENT
        assert qpi_apply(h, "H", [5]) == QPI_ERROR_INVALID_ARGUMENT
        assert qpi_apply(h, "RX", [0]) == QPI_ERROR_INVALID_ARGUMENT  # missing param
        qpi_destroy(h)

    def test_finalize_closes_handle(self):
        h = qpi_create(1)
        qpi_apply(h, "X", [0])
        qpi_finalize(h)
        with pytest.raises(AdapterError):
            qpi_apply(h, "X", [0])

    def test_destroy_unknown_handle(self):
        from repro.middleware.adapters.qpi import QPI_ERROR_INVALID_HANDLE

        assert qpi_destroy(424242) == QPI_ERROR_INVALID_HANDLE


class TestBatchJobs:
    """Section 4: 'Users requested features such as batch-job support'."""

    def test_batch_submission(self, server):
        from repro.circuits.serialize import circuit_to_dict

        payload = {
            "jobs": [
                {"circuit": circuit_to_dict(ghz_circuit(2)), "shots": 16}
                for _ in range(5)
            ]
        }
        resp = server.post_batch(payload)
        assert resp.status == 201
        assert resp.body["count"] == 5
        server.process(max_jobs=5)
        for job_id in resp.body["job_ids"]:
            assert server.get_job(job_id).body["status"] == "completed"

    def test_batch_atomic_on_invalid_element(self, server):
        from repro.circuits.serialize import circuit_to_dict

        payload = {
            "jobs": [
                {"circuit": circuit_to_dict(ghz_circuit(2)), "shots": 16},
                {"shots": 16},  # missing circuit
            ]
        }
        resp = server.post_batch(payload)
        assert resp.status == 400
        assert server.qrm.queue_length == 0  # nothing enqueued

    def test_batch_empty_rejected(self, server):
        assert server.post_batch({"jobs": []}).status == 400

    def test_batch_size_limit(self, server):
        from repro.circuits.serialize import circuit_to_dict

        one = {"circuit": circuit_to_dict(ghz_circuit(2)), "shots": 1}
        assert server.post_batch({"jobs": [one] * 101}).status == 422

    def test_client_batch_helper(self, server):
        client = RestClient(server)
        ids = client.submit_batch([ghz_circuit(2), ghz_circuit(3)], shots=8)
        assert len(ids) == 2
        for job_id in ids:
            client.wait(job_id)


class TestStructuredTimeout:
    """The wait/timeout contract: a stuck queue surfaces as a
    structured, attributable error, and the device endpoint exposes the
    live queue depth clients use to back off before submitting."""

    def test_wait_timeout_raises_structured_error(self, server, monkeypatch):
        from repro.errors import JobTimeoutError

        client = RestClient(server)
        job_id = client.submit(ghz_circuit(2), shots=8)
        monkeypatch.setattr(server, "process", lambda max_jobs=1: 0)  # stuck queue
        with pytest.raises(JobTimeoutError) as excinfo:
            client.wait(job_id, max_ticks=3)
        err = excinfo.value
        assert err.job_id == job_id
        assert err.last_status == "pending"
        assert err.max_ticks == 3
        assert err.status == 504
        assert isinstance(err, RestApiError)  # existing handlers still catch it
        assert "3 ticks" in str(err) and "pending" in str(err)

    def test_device_endpoint_reports_queue_depth(self, server):
        assert server.get_device().body["queue_depth"] == 0
        server.post_job({"circuit": circuit_to_dict(ghz_circuit(2)), "shots": 8})
        server.post_job({"circuit": circuit_to_dict(ghz_circuit(2)), "shots": 8})
        assert server.get_device().body["queue_depth"] == 2
        server.process(2)
        assert server.get_device().body["queue_depth"] == 0
