"""Test-support instrumentation shipped with the package.

Lives under ``repro`` (not ``tests/``) on purpose: the deterministic
fault-injection harness (:mod:`repro.testing.faults`) is consumed by the
recovery test-suite *and* by ``scripts/bench.py``'s fault lane, and the
production modules carry its (near-free) injection points.  The seed
engine (:mod:`repro.testing.reference`) is the oracle those same two
consumers compare the production engines against; import it by its full
name, since it depends on the simulator, which imports this package.
"""

from repro.testing.faults import Fault, FaultPlan, fault_point, inject_faults

__all__ = ["Fault", "FaultPlan", "fault_point", "inject_faults"]
