"""The servers stop one way: SIGTERM drains them.

``repro proxy`` and ``repro fleet shard`` run the CLI's one serve loop:
on SIGTERM (what a supervisor, ``kill`` or a container runtime sends)
they stop accepting, close the store — its journal compacted to one
put per document — and exit 0, instead of dying mid-journal.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.durability import read_journal
from repro.httpnet.client import fetch
from repro.proxy.fleet import ENDPOINT_FILE, ShardSpec
from repro.proxy.store import JOURNAL_NAME, STATE_KIND

REPO = Path(__file__).resolve().parents[2]


def spawn(*argv):
    env = dict(
        os.environ, PYTHONPATH=str(REPO / "src"), PYTHONUNBUFFERED="1",
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )


def terminate(process) -> int:
    time.sleep(0.5)   # past the print, into the serve loop
    process.send_signal(signal.SIGTERM)
    try:
        return process.wait(timeout=10)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


def assert_sealed(state_dir):
    """The state dir holds a journal that replays with no torn tail."""
    replay = read_journal(state_dir / JOURNAL_NAME, kind=STATE_KIND)
    assert not replay.missing
    assert not replay.truncated


def test_proxy_seals_its_store_on_sigterm(tmp_path):
    state = tmp_path / "state"
    process = spawn("proxy", "--port", "0", "--state-dir", str(state))
    lines = [process.stdout.readline() for _ in range(3)]
    assert any(line.startswith("caching proxy on") for line in lines), lines
    assert terminate(process) == 0, process.stderr.read()
    assert_sealed(state)


def test_a_shard_serves_the_spec_in_its_state_dir(tmp_path):
    spec = ShardSpec(shard_id=2, state_dir=tmp_path, capacity=1 << 20)
    spec.write()
    process = spawn("fleet", "shard", "--state-dir", str(tmp_path))
    deadline = time.monotonic() + 20.0
    endpoint = None
    while endpoint is None and time.monotonic() < deadline:
        try:
            endpoint = json.loads((tmp_path / ENDPOINT_FILE).read_text())
        except (OSError, ValueError):
            time.sleep(0.05)
    try:
        assert endpoint is not None, "the shard never published"
        assert endpoint["pid"] == process.pid
        assert endpoint["shard_id"] == 2
        response = fetch((endpoint["host"], endpoint["port"]), "/metrics")
        assert response.status == 200
    finally:
        code = terminate(process)
    assert code == 0, process.stderr.read()
    assert_sealed(tmp_path)
