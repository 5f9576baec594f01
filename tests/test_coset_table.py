"""The process-wide coset factorization table of the tableau's sign walk.

``engines.tableau.grouped_sign_walk`` looks every final X/Z structure up
in ``engines.tableau._SUPPORTS`` and factorizes only on a miss, so
device jobs that keep meeting the same collapsed structures stop paying
one ``CosetSupport`` build per structure per request.  The table must
not change what is sampled (same counts, same generator position, cold
or warm), must stay within its byte bound, and must be safe to share:
its supports are read-only and concurrent requests sample what serial
ones do.
"""

import sys
import threading

import numpy as np
import pytest

from helpers.parity import traced_run
from repro.simulator import engine_mode
from repro.simulator.engines import tableau as tableau_mod
from repro.simulator.stabilizer import CosetSupport, Tableau
from tests.test_cost_routing import _device_job, _run
from tests.test_stabilizer import random_clifford_circuit


@pytest.fixture(scope="module")
def ghz12_job():
    return _device_job(12, 1024)


@pytest.fixture
def cold_table(monkeypatch):
    """An empty table for the test, the process table untouched."""
    monkeypatch.setattr(tableau_mod, "_SUPPORTS", {})
    monkeypatch.setattr(tableau_mod, "_supports_bytes", 0)
    return tableau_mod


def _traced(job, seed):
    """Counts, generator state and counters of one seeded ``"fast"``
    request of *job* (the GHZ-12 device job routes to the tableau)."""
    rng = np.random.default_rng(seed)
    with traced_run("fast") as run:
        counts = _run(job, rng)
    report = run.report
    assert report.engine == "tableau"
    return counts.to_dict(), rng.bit_generator.state, report.counters


def _table_bytes(table):
    return sum(
        tableau_mod._entry_bytes(key, support) for key, support in table.items()
    )


def test_cold_and_warm_tables_sample_the_same(ghz12_job, cold_table):
    """A warm table gives the counts and the stream position a cold one
    gives; the cold request builds every support, the warm one none."""
    cold = _traced(ghz12_job, 7)
    assert cold[2]["tableau.coset_builds"] > 0
    assert len(cold_table._SUPPORTS) == cold[2]["tableau.coset_builds"]
    warm = _traced(ghz12_job, 7)
    assert warm[0] == cold[0]
    assert warm[1] == cold[1]
    assert warm[2]["tableau.coset_builds"] == 0
    # Another seed meets mostly known structures.
    other = _traced(ghz12_job, 8)
    assert other[2]["tableau.coset_builds"] < cold[2]["tableau.coset_builds"]


def test_coset_builds_count_table_misses(ghz12_job, cold_table):
    """``tableau.coset_builds`` is the number of structures the request
    added to the table."""
    before = set(cold_table._SUPPORTS)
    for seed in (1, 2, 3):
        builds = _traced(ghz12_job, seed)[2]["tableau.coset_builds"]
        added = set(cold_table._SUPPORTS) - before
        assert builds == len(added), seed
        before |= added


def test_the_byte_bound_holds(ghz12_job, cold_table, monkeypatch):
    """With room for only a few supports the table clears whole at the
    bound and never holds more than the bound."""
    entry = tableau_mod._entry_bytes(
        Tableau(12).structure_key(), CosetSupport(Tableau(12))
    )
    bound = 5 * entry
    monkeypatch.setattr(tableau_mod, "_SUPPORTS_MAX_BYTES", bound)
    builds = 0
    for seed in range(4):
        builds += _traced(ghz12_job, seed)[2]["tableau.coset_builds"]
        table = tableau_mod._SUPPORTS
        assert tableau_mod._supports_bytes == _table_bytes(table)
        assert _table_bytes(table) <= bound
    assert builds > 5  # so the table was cleared at least once


def test_remember_clears_at_the_bound_and_skips_oversized(cold_table, monkeypatch):
    """Entries accumulate until the next one would pass the bound, which
    clears the table first; an entry larger than the bound is not kept."""
    rng = np.random.default_rng(5)
    tabs = []
    for _ in range(6):
        tab = Tableau(8)
        for inst in random_clifford_circuit(8, 30, rng):
            tab.apply_instruction(inst)
        tabs.append(tab)
    entries = [(t.structure_key(), CosetSupport(t)) for t in tabs]
    sizes = [tableau_mod._entry_bytes(k, s) for k, s in entries]
    bound = sum(sizes[:3])
    monkeypatch.setattr(tableau_mod, "_SUPPORTS_MAX_BYTES", bound)
    for key, support in entries[:3]:
        assert tableau_mod._remember_support(key, support) is support
    assert len(tableau_mod._SUPPORTS) == 3
    tableau_mod._remember_support(*entries[3])
    assert list(tableau_mod._SUPPORTS) == [entries[3][0]]
    assert tableau_mod._supports_bytes == sizes[3]
    wide = Tableau(300)
    huge = CosetSupport(wide)
    assert tableau_mod._entry_bytes(wide.structure_key(), huge) > bound
    assert tableau_mod._remember_support(wide.structure_key(), huge) is huge
    assert wide.structure_key() not in tableau_mod._SUPPORTS
    assert tableau_mod._supports_bytes == sizes[3]


def test_shared_supports_are_read_only(ghz12_job, cold_table):
    """Writing to any array of a support in the table raises."""
    _traced(ghz12_job, 7)
    support = next(iter(cold_table._SUPPORTS.values()))
    for array in support._arrays():
        assert not array.flags.writeable
        if array.size:
            with pytest.raises(ValueError):
                array[...] = 0
    with pytest.raises(ValueError):
        support.basis_words[0, 0] ^= np.uint64(1)


def test_entry_footprint_estimates():
    """About 2 kB per entry at 12 qubits and under 0.5 MB at 1024, so
    the 4 MiB bound keeps thousands of device-sized structures."""
    for n, low, high in ((12, 1_000, 4_000), (1024, 200_000, 500_000)):
        tab = Tableau(n)
        size = tableau_mod._entry_bytes(tab.structure_key(), CosetSupport(tab))
        assert low < size < high, (n, size)
    assert tableau_mod._SUPPORTS_MAX_BYTES == 4 << 20


def test_two_threads_sample_what_serial_runs_sample(ghz12_job, cold_table):
    """Two threads sampling the same circuit on a cold table, racing on
    its misses, get the counts and stream positions of serial runs."""
    seeds = (11, 12)
    serial = {}
    for seed in seeds:
        cold_table._SUPPORTS.clear()
        serial[seed] = _traced(ghz12_job, seed)[:2]
    cold_table._SUPPORTS.clear()
    results = {}
    errors = []
    barrier = threading.Barrier(len(seeds))

    def worker(seed):
        try:
            barrier.wait()
            for _ in range(3):
                rng = np.random.default_rng(seed)
                with engine_mode("fast"):
                    counts = _run(ghz12_job, rng)
                results.setdefault(seed, []).append(
                    (counts.to_dict(), rng.bit_generator.state)
                )
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(s,)) for s in seeds]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert not errors, errors
    for seed in seeds:
        assert len(results[seed]) == 3
        for counts, state in results[seed]:
            assert counts == serial[seed][0], seed
            assert state == serial[seed][1], seed


def test_concurrent_misses_keep_the_byte_tally(cold_table):
    """More threads than cores storing the same structures in different
    orders, with a short switch interval: every structure is stored
    once, and the tally equals the bytes the table holds, which a lost
    update or a double store would break."""
    rng = np.random.default_rng(9)
    entries = {}
    for _ in range(120):
        tab = Tableau(6)
        for inst in random_clifford_circuit(6, 24, rng):
            tab.apply_instruction(inst)
        entries.setdefault(tab.structure_key(), CosetSupport(tab))
    entries = list(entries.items())
    errors = []

    def worker(seed):
        try:
            for j in np.random.default_rng(seed).permutation(len(entries)):
                key, support = entries[j]
                tableau_mod._remember_support(key, support)
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(saved)
    assert not errors, errors
    table = tableau_mod._SUPPORTS
    assert len(table) == len(entries)
    assert tableau_mod._supports_bytes == _table_bytes(table)
