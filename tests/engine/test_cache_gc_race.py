"""A byte-bounded ``cache gc`` racing readers of the same entries.

One thread runs :meth:`~repro.engine.cache.ResultCache.gc` with a byte
bound in rounds, putting every entry it evicted back between rounds,
while reader threads ``get`` random entries of the same directory, each
through its own :class:`~repro.engine.cache.ResultCache` as separate
processes would.  Every ``get`` must return the entry's original payload
or ``None`` (a miss the engine recomputes), never an exception or a torn
read.  Entry sizes, the byte bound and the readers' choices come from a
seed drawn per run and printed, so a failing run names the seed that
reproduces its choices (thread interleavings are the scheduler's).
"""

from __future__ import annotations

import random
import sys
import threading

from repro.engine.cache import ResultCache

ENTRIES = 40
#: More readers than this suite's usual two cores.
READERS = 4
ROUNDS = 12
#: Seconds any thread may wait on another before the test fails.
TIMEOUT = 60


def _payload(rng: random.Random, index: int) -> dict:
    return {"shard": {"index": index, "bits": rng.randbytes(rng.randint(64, 2048)).hex()}}


def test_gets_racing_a_byte_bounded_gc_return_the_entry_or_a_miss(tmp_path):
    seed = random.SystemRandom().randrange(2**32)
    print(f"cache gc race seed: {seed}")
    rng = random.Random(seed)
    root = tmp_path / "cache"
    keys = [{"kind": "simulate", "entry": index} for index in range(ENTRIES)]
    payloads = [_payload(rng, index) for index in range(ENTRIES)]
    collector = ResultCache(root)
    for key, payload in zip(keys, payloads):
        collector.put("simulate", key, payload)
    budget = int(collector.stats().bytes * rng.uniform(0.2, 0.6))

    start = threading.Barrier(READERS + 1, timeout=TIMEOUT)
    stop = threading.Event()
    errors: list[Exception] = []
    torn: list[int] = []
    outcomes = {"hit": 0, "miss": 0}
    lock = threading.Lock()

    def read(reader_seed: int) -> None:
        choices = random.Random(reader_seed)
        cache = ResultCache(root)
        start.wait()
        while not stop.is_set():
            index = choices.randrange(ENTRIES)
            try:
                got = cache.get("simulate", keys[index])
            except Exception as error:
                errors.append(error)
                return
            with lock:
                outcomes["miss" if got is None else "hit"] += 1
            if got is not None and got != payloads[index]:
                torn.append(index)

    readers = [threading.Thread(target=read, args=(rng.randrange(2**32),)) for _ in range(READERS)]
    # Switch threads often, so gets land inside the collector's passes.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in readers:
            thread.start()
        start.wait()
        for _ in range(ROUNDS):
            collector.gc(max_bytes=budget)
            for key, payload in zip(keys, payloads):
                if not collector.path_for("simulate", key).exists():
                    collector.put("simulate", key, payload)
    finally:
        stop.set()
        for thread in readers:
            thread.join(TIMEOUT)
        sys.setswitchinterval(interval)

    assert not any(thread.is_alive() for thread in readers), f"seed {seed}"
    assert errors == [], f"seed {seed}"
    assert torn == [], f"seed {seed}"
    assert outcomes["hit"] and outcomes["miss"], (seed, outcomes)
