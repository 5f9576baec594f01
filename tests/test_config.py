"""The execution-config contract: one frozen value per request.

``engine_mode`` sets a context-local :class:`ExecutionConfig`; entry
points read it once and pass it down.  Pinned here:

* the value validates itself and is immutable;
* a block in one thread is invisible to every other thread;
* threads sampling at the same time under different configs each get
  exactly their single-thread seeded counts;
* an explicit ``config=`` wins over the context.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import numpy as np
import pytest

from helpers.parity import ghz_t, light_noise
from repro.circuits import brickwork_circuit
from repro.errors import EngineModeError
from repro.simulator import (
    ExecutionConfig,
    current_config,
    engine_mode,
    sample_counts,
)
from repro.simulator.config import DEFAULT_MAX_STATE_BYTES


class TestExecutionConfig:
    def test_defaults(self):
        config = ExecutionConfig()
        assert (config.mode, config.chi, config.truncation_threshold) == (
            "fast",
            64,
            0.0,
        )
        assert config.batch_max_bytes == 2 * 1024 * 1024
        assert config.max_state_bytes == DEFAULT_MAX_STATE_BYTES
        assert config.trace is False

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExecutionConfig().chi = 2

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("mode", "warp"),
            ("chi", 0),
            ("chi", True),
            ("truncation_threshold", 1.0),
            ("truncation_threshold", False),
            ("truncation_threshold", "0.5"),
            ("batch_max_bytes", 1023),
            ("max_state_bytes", 2.5),
            ("trace", 1),
        ],
    )
    def test_construction_validates(self, field, bad):
        with pytest.raises(EngineModeError, match=field.split("_")[0]):
            ExecutionConfig(**{field: bad})

    @pytest.mark.parametrize("mode", ["stabilizer", "hybrid"])
    def test_pin_only_modes_rejected(self, mode):
        """The modes that only pinned a tableau or hybrid route are gone;
        the error names the three that remain."""
        with pytest.raises(EngineModeError, match=r"\('fast', 'mps', 'auto'\)"):
            ExecutionConfig(mode=mode)

    def test_numpy_scalars_normalize_to_python_values(self):
        config = ExecutionConfig(
            chi=np.int64(8),
            truncation_threshold=np.float32(0.25),
            max_state_bytes=np.int32(4096),
        )
        assert config == ExecutionConfig(
            chi=8, truncation_threshold=0.25, max_state_bytes=4096
        )
        assert type(config.chi) is int and type(config.max_state_bytes) is int
        assert type(config.truncation_threshold) is float

    def test_plan_key_is_the_plan_relevant_fields(self):
        base = ExecutionConfig()
        assert base.plan_key() == ExecutionConfig(mode="auto", trace=True).plan_key()
        assert base.plan_key() != ExecutionConfig(chi=2).plan_key()
        assert base.plan_key() != ExecutionConfig(batch_max_bytes=4096).plan_key()


class TestThreads:
    def test_block_in_one_thread_is_invisible_to_another(self):
        """Thread A sits inside ``engine_mode("mps", chi=2)`` while
        thread B, which never called ``engine_mode``, reads the
        default config."""
        inside = threading.Barrier(2)
        checked = threading.Barrier(2)
        seen = {}

        def thread_a():
            with engine_mode("mps", chi=2):
                seen["a"] = current_config()
                inside.wait(timeout=10)
                checked.wait(timeout=10)

        def thread_b():
            inside.wait(timeout=10)
            seen["b"] = current_config()
            checked.wait(timeout=10)

        workers = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in workers)
        assert (seen["a"].mode, seen["a"].chi) == ("mps", 2)
        assert seen["b"] == ExecutionConfig()
        assert current_config() == ExecutionConfig()

    @pytest.mark.filterwarnings("ignore:sampling a truncated MPS")
    def test_concurrent_configs_reproduce_single_thread_counts(self):
        """Threads sample at the same time under different configs (more
        threads than the CI machine's cores, with a shortened switch
        interval); each reproduces its single-thread seeded counts."""
        qc = brickwork_circuit(8, 4, seed=1)
        settings = {
            "mps": {"chi": 2},
            "auto": {},
            "fast": {"batch_max_bytes": 1024},
        }

        def run(mode):
            with engine_mode(mode, **settings[mode]):
                return [
                    sample_counts(qc, 256, noise=light_noise(), rng=seed).to_dict()
                    for seed in range(4)
                ]

        expected = {mode: run(mode) for mode in settings}
        assert expected["mps"] != expected["auto"]  # chi=2 truncates
        start = threading.Barrier(len(settings))
        got = {}

        def worker(mode):
            start.wait(timeout=10)
            got[mode] = run(mode)

        threads = [threading.Thread(target=worker, args=(m,)) for m in settings]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == expected

    def test_explicit_config_wins_over_the_context(self):
        qc = ghz_t(6)
        with engine_mode("mps", chi=2):
            blocked = sample_counts(qc, 128, noise=light_noise(), rng=3)
        with engine_mode("fast"):
            explicit = sample_counts(
                qc,
                128,
                noise=light_noise(),
                rng=3,
                config=ExecutionConfig(mode="mps", chi=2),
            )
        assert explicit.to_dict() == blocked.to_dict()
