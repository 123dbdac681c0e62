"""SURVEY §5.2(6): kill the encode job mid-run (SIGKILL, no cleanup),
restart, and assert completed partitions are not re-encoded and the final
output is identical to an uninterrupted run. A killed encode worker (not
the driver) must be retried by Ray to the same output."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from conftest import completed_partitions
from json_to_parquet_ray.fixtures import write_cc_parquet

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_kill9_mid_encode_then_resume(tmp_path):
    src = str(tmp_path / "cc.parquet")
    write_cc_parquet(src, 3000, seed=11, row_group_size=250)  # 12 partitions
    out = str(tmp_path / "enc")

    proc = subprocess.Popen(
        [sys.executable, "-m", "json_to_parquet_ray.cli", "encode", src, out],
        cwd=REPO, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    # wait until at least one partition committed, then SIGKILL the job
    deadline = time.time() + 180
    committed = 0
    while time.time() < deadline:
        committed = len(completed_partitions(out))
        if committed >= 2:
            break
        if proc.poll() is not None:
            break  # finished before we could kill it — still a valid resume test
        time.sleep(0.3)
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
    # let orphaned Ray workers drain/die: SIGKILL hit only the CLI
    # driver, so in-flight encode tasks may still commit records for a
    # while (longer on a loaded host) — wait until the manifest is
    # quiescent for 2 s, else a still-writing orphan races the resume
    # run's contest detection
    prev, quiet_since = -1, time.time()
    drain_deadline = time.time() + 60
    while time.time() < drain_deadline:
        n = len(completed_partitions(out))
        if n != prev:
            prev, quiet_since = n, time.time()
        elif time.time() - quiet_since >= 2.0:
            break
        time.sleep(0.25)
    survived = completed_partitions(out)

    # resume run (fresh process, like a restarted job)
    res = subprocess.run(
        [sys.executable, "-m", "json_to_parquet_ray.cli", "encode", src, out],
        cwd=REPO, capture_output=True, text=True, timeout=240,
    )
    assert res.returncode == 0, res.stderr[-2000:]
    summary = json.loads(res.stdout.strip().splitlines()[-1])
    assert summary["partitions_total"] == 12
    # completed partitions at kill time must NOT have been re-encoded
    assert summary["partitions_skipped_resume"] >= len(survived) >= 2
    assert summary["partitions_skipped_resume"] + summary["partitions_encoded"] == 12

    # bit-identical verification of the combined (survived + resumed) output
    ver = subprocess.run(
        [sys.executable, "-m", "json_to_parquet_ray.cli", "verify", out],
        cwd=REPO, capture_output=True, text=True, timeout=240,
    )
    assert ver.returncode == 0, ver.stderr[-2000:]
    assert json.loads(ver.stdout.strip().splitlines()[-1])["failed"] == []


_ENCODE_DRIVER = """
import logging, sys, ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         log_to_driver=False, logging_level=logging.ERROR)
from json_to_parquet_ray.pipelines.encode_job import encode_job
encode_job(sys.argv[1], sys.argv[2])
ray.shutdown()
"""


def _tasks_under(root: int, title: str) -> list[int]:
    """Pids of the processes descending from ``root`` whose command line
    contains ``title``. Ray retitles a worker ``ray::<task name>`` while
    it runs a task, so this finds the workers running that task."""
    procs = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/cmdline", "rb") as f:
                cmd = f.read()
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        procs[int(d)] = (ppid, cmd)

    def under(pid: int) -> bool:
        while pid in procs and pid != root:
            pid = procs[pid][0]
        return pid == root

    return [pid for pid, (_, cmd) in procs.items()
            if title.encode() in cmd and under(pid)]


def _chunk_digests(out: str) -> dict:
    import hashlib

    from json_to_parquet_ray.manifest import load_manifest

    digests = {}
    for rec in load_manifest(out).values():
        with open(os.path.join(out, rec.chunk_file), "rb") as f:
            digests[rec.chunk_file] = hashlib.sha1(f.read()).hexdigest()
    return digests


def test_sigkill_encode_worker_mid_job(ray_session, tmp_path):
    """SIGKILL the Ray worker running the encode task once the first
    record has committed: Ray retries the task, the driver's job
    finishes, the store verifies, and every chunk equals an
    uninterrupted run's byte for byte."""
    from json_to_parquet_ray.pipelines.encode_job import (
        encode_job, verify_job,
    )

    src = str(tmp_path / "cc.parquet")
    write_cc_parquet(src, 6000, seed=11, row_group_size=100)  # 60 partitions
    out = str(tmp_path / "enc")
    proc = subprocess.Popen(
        [sys.executable, "-c", _ENCODE_DRIVER, src, out], cwd=REPO,
        env={**os.environ, "PYTHONPATH": REPO},
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    killed = []
    deadline = time.time() + 180
    while proc.poll() is None and not killed and time.time() < deadline:
        if completed_partitions(out):
            for pid in _tasks_under(proc.pid, "ray::_run_fn"):
                os.kill(pid, signal.SIGKILL)
                killed.append(pid)
        time.sleep(0.02)
    _, err = proc.communicate(timeout=300)
    assert killed, "the encode finished before a worker could be killed"
    assert proc.returncode == 0, err[-2000:]
    assert verify_job(out)["failed"] == []

    ref = str(tmp_path / "ref")
    encode_job(src, ref)
    got = _chunk_digests(out)
    assert len(got) == 60
    assert got == _chunk_digests(ref)


def test_lifecycle_torture_append_kill_compact(ray_session, tmp_path):
    """Randomized (seeded) op sequence — append input file, delete a
    random manifest record (simulated crash), compact, resume-encode —
    must always converge to a fully-verified store whose decode order
    equals the input order."""
    import random

    import pyarrow.parquet as pq

    from json_to_parquet_ray.fixtures import write_cc_parquet
    from json_to_parquet_ray.manifest import load_manifest, record_path
    from json_to_parquet_ray.pipelines.encode_job import (
        compact_job, decode_dataset, encode_job, verify_job,
    )

    rng = random.Random(99)
    indir = tmp_path / "in"
    indir.mkdir()
    out = str(tmp_path / "enc_torture")
    names = ["m.parquet"]
    write_cc_parquet(str(indir / "m.parquet"), 750, seed=0, row_group_size=250)
    encode_job(str(indir), out, shared_dict_columns=None)

    for step in range(8):
        op = rng.choice(["append", "kill", "compact", "encode"])
        if op == "append":
            nm = f"{rng.choice('abz')}{step}.parquet"  # sorts before or after
            names.append(nm)
            write_cc_parquet(str(indir / nm), 500, seed=step + 1,
                             row_group_size=250)
        elif op == "kill":
            recs = load_manifest(out)
            if recs:
                pid = rng.choice(sorted(recs))
                os.remove(os.path.join(out, recs[pid].chunk_file))
                os.remove(record_path(out, pid))
        elif op == "compact":
            compact_job(out, min_rows=600)
        encode_job(str(indir), out, shared_dict_columns=None)

    encode_job(str(indir), out, shared_dict_columns=None)
    assert verify_job(out)["failed"] == []
    got = [r["url"] for r in decode_dataset(out, columns=["url"]).take_all()]
    import pyarrow as pa

    exp = pa.concat_tables([
        pq.read_table(str(indir / n), columns=["url"])
        for n in sorted(names)]).column("url").to_pylist()
    assert got == exp
