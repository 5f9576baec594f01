"""Test-support instrumentation shipped with the package.

Lives under ``repro`` (not ``tests/``) on purpose: the production
modules carry the (near-free) injection points of the deterministic
fault-injection harness (:mod:`repro.testing.faults`), and the seed
engine (:mod:`repro.testing.reference`) is the oracle both the test
suite and ``scripts/bench.py`` compare the production engines against;
import it by its full name, since it depends on the simulator, which
imports this package.
"""

from repro.testing.faults import Fault, FaultPlan, fault_point, inject_faults

__all__ = ["Fault", "FaultPlan", "fault_point", "inject_faults"]
