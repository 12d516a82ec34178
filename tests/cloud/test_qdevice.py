"""Unit tests for the QDevice hierarchy."""

import pytest

from repro.circuits.circuit import CircuitSpec
from repro.cloud.qdevice import BaseQDevice, IBMQuantumDevice, QuantumDevice
from repro.des.environment import Environment
from repro.hardware.backends import get_device_profile
from repro.hardware.coupling import ibm_eagle_coupling
from repro.metrics.timing import processing_time_minutes


@pytest.fixture
def device(env, small_profile):
    return IBMQuantumDevice(env, small_profile)


def fragment(q=5, depth=8, shots=10_000, t2=12):
    return CircuitSpec(num_qubits=q, depth=depth, num_shots=shots, num_two_qubit_gates=t2)


class TestBaseQDevice:
    def test_capacity_accounting(self, env):
        dev = BaseQDevice(env, "dev", 20)
        assert dev.free_qubits == 20
        assert dev.used_qubits == 0
        assert dev.utilization == 0.0

    def test_request_and_release(self, env):
        dev = BaseQDevice(env, "dev", 20)

        def proc(env, dev, log):
            yield dev.request_qubits(15)
            log.append((dev.free_qubits, dev.utilization))
            yield env.timeout(1)
            yield dev.release_qubits(15)
            log.append((dev.free_qubits, dev.utilization))

        log = []
        env.process(proc(env, dev, log))
        env.run()
        assert log == [(5, 0.75), (20, 0.0)]

    def test_request_more_than_capacity_rejected(self, env):
        dev = BaseQDevice(env, "dev", 10)
        with pytest.raises(ValueError):
            dev.request_qubits(11)
        with pytest.raises(ValueError):
            dev.request_qubits(0)

    def test_invalid_capacity(self, env):
        with pytest.raises(ValueError):
            BaseQDevice(env, "dev", 0)


class TestQuantumDevice:
    def test_connected_region_check(self, env):
        dev = QuantumDevice(env, "dev", ibm_eagle_coupling(20))
        assert dev.has_connected_region(10)
        assert dev.has_connected_region(20)
        assert not dev.has_connected_region(21)
        with pytest.raises(ValueError):
            dev.has_connected_region(0)


class TestIBMQuantumDevice:
    def test_profile_attributes(self, device, small_profile):
        assert device.name == small_profile.name
        assert device.clops == small_profile.clops
        assert device.num_qubits == 10
        assert device.error_score() == pytest.approx(small_profile.error_score())

    def test_process_time_matches_model(self, device):
        frag = fragment(shots=40_000)
        expected = processing_time_minutes(40_000, device.clops, device.quantum_volume)
        assert device.calculate_process_time(frag) == pytest.approx(expected)

    def test_fidelity_breakdown_components(self, device):
        frag = fragment(q=5, depth=10, t2=30)
        b = device.compute_fidelity_breakdown(frag, num_devices=2, total_qubits=10)
        assert 0 < b.single_qubit <= 1
        assert 0 < b.two_qubit <= 1
        assert 0 < b.readout <= 1
        assert b.device == pytest.approx(b.single_qubit * b.two_qubit * b.readout)
        assert b.device_name == device.name

    def test_execute_advances_clock_and_returns_result(self, env, small_profile):
        device = IBMQuantumDevice(env, small_profile)
        frag = fragment()
        proc = env.process(device.execute(frag, num_devices=1, total_qubits=frag.num_qubits))
        result = env.run(until=proc)
        assert env.now == pytest.approx(device.calculate_process_time(frag))
        assert result.device_name == device.name
        assert result.qubits_allocated == frag.num_qubits
        assert device.completed_subjobs == 1
        assert device.busy_time == pytest.approx(env.now)
        assert device.qubit_seconds == pytest.approx(frag.num_qubits * env.now)

    def test_from_profile_constructor(self, env, small_profile):
        device = IBMQuantumDevice.from_profile(env, small_profile)
        assert isinstance(device, IBMQuantumDevice)

    def test_error_score_matches_uncached_formula_bit_for_bit(self, device):
        from repro.metrics.error_score import error_score_from_averages

        for weights in ((0.5, 0.3, 0.2), (1.0, 0.0, 0.0), (0.2, 0.2, 0.6)):
            expected = error_score_from_averages(
                device.avg_readout_error,
                device.avg_single_qubit_error,
                device.avg_two_qubit_error,
                *weights,
            )
            assert device.error_score(*weights) == expected
            assert device.error_score(*weights) == expected  # cached hit

    def test_error_score_cache_invalidated_by_calibration_drift(self, device):
        from repro.metrics.error_score import error_score

        before = device.error_score()
        assert before == error_score(device.calibration)
        device.calibration = device.calibration.scaled(readout=2.0, two_qubit=1.5)
        after = device.error_score()
        assert after != before
        assert after == error_score(device.calibration)

    def test_error_score_invalid_weights_raise_on_every_call(self, device):
        for _ in range(2):
            with pytest.raises(ValueError):
                device.error_score(alpha=-1.0)


class TestAvailability:
    def test_killing_outage_interrupts_in_start_order(self, env, small_profile):
        # A set of processes would interrupt in object-address order, which
        # changes from run to run in one interpreter; the kill order must
        # follow the order the sub-jobs started in.
        device = IBMQuantumDevice(env, small_profile)
        aborted = []

        def subjob(index):
            result = yield env.process(device.execute(fragment(q=1, shots=10_000 + index)))
            if result.aborted:
                aborted.append(index)

        def outage():
            yield env.timeout(0.5)
            device.set_offline(kill_running=True)

        for index in range(8):
            env.process(subjob(index))
        env.process(outage())
        env.run()
        assert aborted == list(range(8))
