"""Read-path scale probe: decode, point lookup and verify on the three
manifest shapes at a few thousand records.

Builds one CC input (``fixtures.cc_dataset_dir``) and encodes it with
``max_rows_per_partition=1``, so every input row is one partition and
one manifest record. Three stores come from that encode:

* ``sealed``   — consolidated into a sealed parquet index;
* ``overlay``  — the sealed store plus ``--deltas`` appended JSON delta
  records and one crashed compaction (a merged JSON record whose
  index-resident plain records were never retired);
* ``unsealed`` — the never-consolidated sharded-JSON manifest.

For each shape it prints the median wall time of a full decode
(``decode_dataset(...).count()``, which reads block metadata only), a
projected ``url``/``lang`` decode consumed by ``iter_batches`` (the
cost of reading rows), a url point decode (IN-list zone filter on one
url), ``verify_job``, and the driver-side whole-manifest
reads ``load_manifest`` and ``effective_records``, plus the driver's
peak RSS.
Each shape is measured in a child process of its own, with its own Ray
session, so that process's VmHWM covers only that shape's reads.

Usage: python tools/read_paths_scale.py [--records 5000] [--deltas 50]
       [--reps 3] [--cpus 1] [--work DIR]

With ``--work DIR`` the stores are kept and a later run measures them
again without rebuilding, so two code versions can be timed
alternately on the same stores.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import logging
import multiprocessing
import os
import re
import shutil
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

COMPACT_RECORDS = 20  # plain records the crashed compaction merges


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        return int(re.search(r"VmHWM:\s+(\d+)", f.read()).group(1)) / 1024


def with_ray(cpus: int, fn, *args):
    import ray

    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             log_to_driver=False, logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    try:
        return fn(*args)
    finally:
        ray.shutdown()


def in_child(cpus: int, fn, *args):
    """``fn(*args)`` in a fresh spawned process with a Ray session of
    ``cpus`` CPUs."""
    ctx = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(1, mp_context=ctx) as ex:
        return ex.submit(with_ray, cpus, fn, *args).result()


def crash_compaction(store: str, scratch: str) -> None:
    """Leave ``store`` in the window of a compaction killed after its
    merged record committed: the merged JSON record and chunk exist, the
    plain records it covers are still live (index-resident here)."""
    from json_to_parquet_ray.manifest import (effective_records,
                                              load_manifest, write_record)
    from json_to_parquet_ray.pipelines.encode_job import compact_job

    victims = effective_records(store)[:COMPACT_RECORDS]
    for r in victims:
        dst = os.path.join(scratch, r.chunk_file)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copyfile(os.path.join(store, r.chunk_file), dst)
        write_record(scratch, r)
    compact_job(scratch, min_rows=COMPACT_RECORDS)
    for r in load_manifest(scratch).values():
        if "merged" in r.fragment:
            dst = os.path.join(store, r.chunk_file)
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copyfile(os.path.join(scratch, r.chunk_file), dst)
            write_record(store, r)


def build(work: str, records: int, deltas: int, seed: int) -> dict:
    import pyarrow.parquet as pq

    from json_to_parquet_ray.fixtures import cc_dataset_dir, write_cc_parquet
    from json_to_parquet_ray.manifest import consolidate
    from json_to_parquet_ray.pipelines.encode_job import encode_job

    src = cc_dataset_dir(os.path.join(work, "in"), records, seed=seed)
    stores = {s: os.path.join(work, s)
              for s in ("sealed", "overlay", "unsealed")}
    t0 = time.perf_counter()
    encode_job(src, stores["unsealed"], bloom_columns=["url"],
               max_rows_per_partition=1)
    print(f"encoded {records} partitions in "
          f"{time.perf_counter() - t0:.1f} s", flush=True)
    shutil.copytree(stores["unsealed"], stores["sealed"])
    assert consolidate(stores["sealed"])["sealed"]
    shutil.copytree(stores["sealed"], stores["overlay"])
    extra = write_cc_parquet(os.path.join(work, "delta", "d.parquet"),
                             deltas, seed=seed + 1)
    crash_compaction(stores["overlay"], os.path.join(work, "compact"))
    encode_job([src, extra], stores["overlay"], bloom_columns=["url"],
               max_rows_per_partition=1)
    url = pq.read_table(src, columns=["url"]).column("url")[records // 2]
    built = {"stores": stores, "url": url.as_py(),
             "rows": {"sealed": records, "unsealed": records,
                      "overlay": records + deltas}}
    with open(os.path.join(work, "built.json"), "w") as f:
        json.dump(built, f)
    return built


OPS = ("decode_s", "projected_s", "point_s", "verify_s", "manifest_s",
       "effective_s")
PROJECTION = ["url", "lang"]


def measure(store: str, url: str, rows: int, reps: int) -> dict:
    from json_to_parquet_ray.manifest import effective_records, load_manifest
    from json_to_parquet_ray.pipelines.encode_job import (decode_dataset,
                                                          verify_job)

    def decode():
        n = decode_dataset(store).count()
        assert n == rows, (store, n, rows)

    def projected():
        ds = decode_dataset(store, columns=PROJECTION)
        n = sum(b.num_rows for b in ds.iter_batches(batch_size=None,
                                                    batch_format="pyarrow"))
        assert n == rows, (store, n, rows)

    def point():
        assert decode_dataset(store, zone_filter={"url": [url]}).count() >= 1

    def verify():
        v = verify_job(store)
        assert v["failed"] == [], v["failed"][:3]

    out = {}
    for name, op in zip(OPS, (decode, projected, point, verify,
                              lambda: load_manifest(store),
                              lambda: effective_records(store))):
        walls = []
        for _ in range(reps):
            t0 = time.perf_counter()
            op()
            walls.append(time.perf_counter() - t0)
        out[name] = statistics.median(walls)
    out["driver_peak_rss_MB"] = peak_rss_mb()
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--records", type=int, default=5000)
    ap.add_argument("--deltas", type=int, default=50)
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--cpus", type=int, default=1)
    ap.add_argument("--seed", type=int, default=901)
    ap.add_argument("--work", default=None,
                    help="build directory, kept; stores a previous run "
                         "built there are measured again, not rebuilt "
                         "(default: a fresh temp dir, removed on exit)")
    args = ap.parse_args()

    work = args.work or tempfile.mkdtemp(prefix="read_paths_scale.")
    try:
        done = os.path.join(work, "built.json")
        if os.path.exists(done):
            with open(done) as f:
                built = json.load(f)
        else:
            built = in_child(args.cpus, build, work, args.records,
                             args.deltas, args.seed)
        print(f"{'shape':10s}" + "".join(f" {op:>11s}" for op in OPS)
              + f" {'driver_peak_rss_MB':>19s}")
        for shape, store in built["stores"].items():
            m = in_child(args.cpus, measure, store, built["url"],
                         built["rows"][shape], args.reps)
            print(f"{shape:10s}" + "".join(f" {m[op]:11.3f}" for op in OPS)
                  + f" {m['driver_peak_rss_MB']:19.1f}", flush=True)
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
