#!/usr/bin/env python3
"""Encode/scan benchmark for the json_to_parquet_ray encode engine.

    python3 perfbench/run.py --workload cc_bulk --seed 1 --seconds 20 --trace 0

Runs from any working directory: the repository root is the parent of this
file's directory. Every file a run writes lives under ``<root>/.bw``; the
run's own inputs and stores are removed when it ends.

Input: the CC-style table of ``fixtures.cc_dataset_dir`` (url, warc_ts,
html, text, lang), 5,000 rows from ``--seed`` in one shard file of two
2,500-row row groups (about 44 MB of Arrow data), generated afresh in every
set-up repetition. Every store carries a url Bloom filter.

Workloads (closed loop, one client, one Ray CPU per usable core):
  cc_bulk  write-heavy: encode_job over whole row groups (2 partitions of
           ~22 MB), verify, then twice a full decode, a projected decode, a
           warc_ts range scan and a url point lookup against the new store.
  cc_fine  the same cycle with max_rows_per_partition=500 (10 partitions):
           per-chunk planning and task dispatch dominate.
  cc_scan  reads only, against a store built in set-up: verify, full
           decode, projected decode, then range scans and point lookups (one
           lookup in four misses).

``--trace 0`` prints the end-to-end metrics of the timed loop. ``--trace 1``
runs one untraced ``encode_job`` and full decode, then replays the same
partitions and reads in this process with every layer wrapped (see tracing.py)
for ``--seconds``, and prints the per-layer metrics as medians over passes.
The spans go to ``<root>/.bw/traces/`` when the run ends.

Stdout: a table of every metric with its unit, then one JSON line.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import random
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bw"

ROWS = 5_000
SHARD_ROWS = 5_000
ROW_GROUP_ROWS = 2_500
FINE_ROWS = 500
BLOOM = ["url"]
PROJECTION = ["url", "lang"]
SETUP_REPS = 3
QUERIES = 64            # range bounds and lookup keys drawn per run
# a range covers 501 rows: always two 500-row fine chunks, and one bulk
# chunk four times in five, so each workload's scan latency has one mode
RANGE_ROWS = 500
TRACE_READS = 8         # range scans and point lookups per traced pass
MIN_COVERAGE = 0.95
# a Unix socket path may hold 107 bytes; Ray puts
# <temp>/session_<date>_<time>_<us>_<pid>/sockets/plasma_store there
RAY_SOCKET_TAIL = 66

READS = ("decode", "projected", "range", "point")
CYCLE_WRITE = ("encode", "verify") + READS * 2
WORKLOADS = {
    "cc_bulk": {"max_rows": None, "store_in_setup": False,
                "cycle": CYCLE_WRITE},
    "cc_fine": {"max_rows": FINE_ROWS, "store_in_setup": False,
                "cycle": CYCLE_WRITE},
    "cc_scan": {"max_rows": None, "store_in_setup": True,
                "cycle": ("verify",) + READS + ("range", "point") * 4},
}

END_TO_END = {
    "setup_s": "s", "encode_MBps": "MB/s", "size_vs_pyarrow": "ratio",
    "verify_MBps": "MB/s", "decode_MBps": "MB/s", "projected_decode_s": "s",
    "range_scan_p50_ms": "ms", "range_scan_tail_ms": "ms",
    "point_lookup_p50_ms": "ms", "point_lookup_tail_ms": "ms",
    "peak_rss_MB": "MB",
}


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def _cpu_ticks() -> tuple[int, int]:
    """(busy, steal) jiffies summed over all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        user, nice, system, _idle, _iowait, irq, softirq, steal = map(
            int, f.readline().split()[1:9])
    return user + nice + system + irq + softirq + steal, steal


class Stopwatch:
    """Wall time of a block, and the same wall time with the hypervisor's
    steal taken out: ``s = wall * (1 - steal / busy)`` over the CPU time
    the VM's CPUs were busy (or stolen) meanwhile. On an oversubscribed
    host the hypervisor can take a third or more of the busy CPU time for
    minutes at a time, which moves raw wall by up to 2x between runs of
    the same code. Fixed waits are scaled down too, so under heavy steal
    ``s`` reads somewhat low."""

    def __enter__(self):
        self.busy0, self.steal0 = _cpu_ticks()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.t0
        busy, steal = _cpu_ticks()
        busy -= self.busy0
        self.steal = (steal - self.steal0) / busy if busy > 0 else 0.0
        self.s = self.wall * (1.0 - self.steal)
        return False


def usable_cpus() -> int:
    """The count ``nproc`` prints: the CPU affinity, capped by
    OMP_NUM_THREADS when that is set."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "")
    return min(n, int(omp)) if omp.isdigit() and int(omp) > 0 else n


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) of the highest percentile with at least ten
    samples beyond it; below 20 samples no such percentile reaches the
    median, so the median is reported."""
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return statistics.median(xs), 50.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def peak_rss_mb() -> float:
    """Sum of peak resident sets (VmHWM) of this process and every Ray
    worker process started under it."""
    parent: dict[int, int] = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    parent[int(d)] = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
    me = os.getpid()

    def under_me(pid: int) -> bool:
        while pid > 1:
            pid = parent.get(pid, 0)
            if pid == me:
                return True
        return False

    total_kb = 0
    for pid in parent:
        try:
            if pid != me:
                with open(f"/proc/{pid}/cmdline", "rb") as f:
                    if not (f.read().startswith(b"ray::") and under_me(pid)):
                        continue
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.run_dir = WORK / str(os.getpid())
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}
        self.tried: dict[str, int] = {"range": 0, "point": 0}
        self.walls: dict[str, list[float]] = {}
        self.steal: list[float] = []
        self.extra: dict[str, object] = {}
        self.store: str | None = None

    # ------------------------------------------------------------ set-up

    def environment(self) -> str | None:
        """Point workers at the repo and keep caches and temp files inside
        the checkout; returns the Ray temp dir (None: too long for Ray's
        socket paths, so Ray's default is used)."""
        (self.run_dir / "tmp").mkdir(parents=True)
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT), os.environ.get("PYTHONPATH")) if p)
        os.environ["XDG_CACHE_HOME"] = str(WORK / "cache")
        # Ray workers default to nice 15, which lets any co-tenant process
        # preempt them; run them at this process's priority
        os.environ["RAY_worker_niceness"] = "0"
        sys.path.insert(0, str(ROOT))
        ray_tmp = str(WORK / "r")
        if len(ray_tmp) + RAY_SOCKET_TAIL > 107:
            log("checkout path too long for Ray sockets; Ray uses its "
                "default temp dir")
            return None
        os.environ["TMPDIR"] = str(self.run_dir / "tmp")
        return ray_tmp

    def build(self) -> None:
        """One-time work that is not set-up: a fresh checkout compiles the
        native FSST kernel into the cache on first use."""
        import pyarrow as pa

        from json_to_parquet_ray.codecs import encode_array

        encode_array(pa.array(["warm-up text"] * 64), "fsst")

    def start_ray(self, ray_tmp: str | None) -> None:
        import ray

        kwargs = {"_temp_dir": ray_tmp} if ray_tmp else {}
        ray.init(address="local", num_cpus=usable_cpus(),
                 include_dashboard=False, log_to_driver=False,
                 logging_level="ERROR", object_store_memory=512 << 20,
                 **kwargs)
        ray.data.DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)

        def warm(batch):
            import json_to_parquet_ray.pipelines.encode_job  # noqa: F401

            return batch

        n = usable_cpus()
        ray.data.range(n, override_num_blocks=n).map_batches(
            warm, batch_size=1).materialize()

    def setup(self, ray_tmp: str | None) -> float:
        """Ray start once, then SETUP_REPS x (input generation into a fresh
        directory [+ store build for cc_scan]); returns Ray start + the
        median repetition."""
        from json_to_parquet_ray.fixtures import cc_dataset_dir

        with Stopwatch() as ray_start:
            self.start_ray(ray_tmp)
        reps, encodes = [], []
        for i in range(SETUP_REPS):
            if i:
                shutil.rmtree(self.run_dir / f"in{i - 1}")
            with Stopwatch() as gen:
                self.input_dir = cc_dataset_dir(
                    str(self.run_dir / f"in{i}"), ROWS, seed=self.seed,
                    shard_rows=SHARD_ROWS, row_group_size=ROW_GROUP_ROWS)
            reps.append(gen.s)
            if self.wl["store_in_setup"]:
                encodes.append(self.op_encode())
                reps[-1] += encodes[-1].s
        self.setup_encodes = encodes
        self.extra["setup_ray_start_s"] = ray_start.s
        self.extra["setup_rep_s"] = reps
        return ray_start.s + statistics.median(reps)

    def prepare_oracle(self) -> None:
        """Expected answers from pyarrow over the input, and the queries:
        range bounds drawn within one shard, lookup keys that hit except one
        in four. Not timed."""
        import pyarrow as pa
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        from tracing import work_items

        files = sorted(str(p) for p in Path(self.input_dir).glob("*.parquet"))
        shards = [pq.read_table(f) for f in files]
        table = pa.concat_tables(shards)
        self.input_bytes = table.nbytes
        self.pyarrow_bytes = sum(os.path.getsize(f) for f in files)
        self.projection = table.select(PROJECTION).combine_chunks()
        self.items = work_items(self.input_dir, self.wl["max_rows"])
        rng = random.Random(self.seed)
        ts, urls = table.column("warc_ts"), table.column("url")
        self.ranges, self.points = [], []
        present = set(urls.to_pylist())
        for q in range(QUERIES):
            shard_ts = shards[rng.randrange(len(shards))].column("warc_ts")
            i = rng.randrange(SHARD_ROWS - RANGE_ROWS)
            lo, hi = shard_ts[i], shard_ts[i + RANGE_ROWS]
            n = pc.sum(pc.and_(pc.greater_equal(ts, lo),
                               pc.less_equal(ts, hi))).as_py()
            self.ranges.append((lo.as_py().isoformat(),
                                hi.as_py().isoformat(), lo, hi, n))
            key = urls[rng.randrange(len(urls))].as_py()
            # one lookup in four misses: with half misses the median would
            # sit between the hit and miss latencies and flip between them
            if q % 4 == 3:
                key = key + "-absent"
                while key in present:
                    key += "x"
            self.points.append((key, int(key in present)))
        del table, shards

    # --------------------------------------------------------------- ops

    def op_encode(self) -> Stopwatch:
        from json_to_parquet_ray.pipelines.encode_job import encode_job

        store = str(self.run_dir / "store")
        shutil.rmtree(store, ignore_errors=True)
        with Stopwatch() as sw:
            summary = encode_job(self.input_dir, store, bloom_columns=BLOOM,
                                 max_rows_per_partition=self.wl["max_rows"])
        self.store = store
        self.chunk_bytes = summary["chunk_bytes"]
        self.check(summary["partitions_encoded"] == summary["partitions_total"],
                   f"encoded {summary['partitions_encoded']} of "
                   f"{summary['partitions_total']} partitions")
        return sw

    def op_verify(self) -> Stopwatch:
        from json_to_parquet_ray.pipelines.encode_job import verify_job

        with Stopwatch() as sw:
            ver = verify_job(self.store)
        self.check(ver["failed"] == [] and ver["ok"] == len(self.items),
                   f"verify: {ver}")
        return sw

    def op_decode(self) -> Stopwatch:
        from json_to_parquet_ray.pipelines.encode_job import decode_dataset

        with Stopwatch() as sw:
            n = decode_dataset(self.store).count()
        self.check(n == ROWS, f"decode returned {n} rows, want {ROWS}")
        return sw

    def op_projected(self) -> Stopwatch:
        import pyarrow as pa

        from json_to_parquet_ray.pipelines.encode_job import decode_dataset

        with Stopwatch() as sw:
            got = pa.concat_tables(decode_dataset(
                self.store, columns=PROJECTION).iter_batches(
                    batch_size=None, batch_format="pyarrow"))
        self.check(got.combine_chunks().equals(self.projection),
                   "projected decode differs from the input columns")
        return sw

    def op_range(self) -> Stopwatch:
        from json_to_parquet_ray.pipelines.encode_job import decode_dataset

        lo, hi, _, _, want = self.ranges[self.tried["range"] % QUERIES]
        with Stopwatch() as sw:
            n = decode_dataset(self.store,
                               zone_filter={"warc_ts": (lo, hi)}).count()
        self.check(n == want, f"range [{lo}, {hi}]: {n} rows, want {want}")
        return sw

    def op_point(self) -> Stopwatch:
        from json_to_parquet_ray.pipelines.encode_job import decode_dataset

        key, want = self.points[self.tried["point"] % QUERIES]
        with Stopwatch() as sw:
            n = decode_dataset(self.store, zone_filter={"url": [key]}).count()
        self.check(n == want, f"lookup {key!r}: {n} rows, want {want}")
        return sw

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            raise AssertionError(what)

    def attempt(self, op: str) -> None:
        self.attempted += 1
        self.tried[op] = self.tried.get(op, 0) + 1
        try:
            sw = getattr(self, f"op_{op}")()
        except Exception:
            self.failed += 1
            log(f"{op} failed:\n{traceback.format_exc()}")
            return
        self.samples.setdefault(op, []).append(sw.s)
        self.walls.setdefault(op, []).append(sw.wall)
        self.steal.append(sw.steal)

    # ------------------------------------------------------- untraced run

    def timed_loop(self) -> None:
        """One untimed pass over every op kind (first calls pay worker-side
        imports and cold caches), then the cycle until ``seconds`` pass."""
        for op in dict.fromkeys(self.wl["cycle"]):
            self.attempt(op)
        self.samples.clear()
        self.walls.clear()
        self.steal.clear()
        end = time.perf_counter() + self.seconds
        while time.perf_counter() < end:
            for op in self.wl["cycle"]:
                if time.perf_counter() >= end:
                    break
                self.attempt(op)

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        self.samples.setdefault("encode", [sw.s for sw in self.setup_encodes])
        med = {op: statistics.median(v) for op, v in self.samples.items()}
        mb = self.input_bytes / 1e6
        rt, rp, rn = tail(self.samples["range"])
        pt, pp, pn = tail(self.samples["point"])
        self.extra.update(
            range_scan_tail_pct=rp, range_scan_n=rn,
            point_lookup_tail_pct=pp, point_lookup_n=pn,
            samples_s={op: [round(x, 3) for x in v]
                       for op, v in self.samples.items()},
            wall_samples_s={op: [round(x, 3) for x in v]
                            for op, v in self.walls.items()},
            steal_share_median=statistics.median(self.steal),
            input_MB=mb, chunk_bytes=self.chunk_bytes,
            pyarrow_bytes=self.pyarrow_bytes)
        return {
            "setup_s": setup_s,
            "encode_MBps": mb / med["encode"],
            "size_vs_pyarrow": self.chunk_bytes / self.pyarrow_bytes,
            "verify_MBps": mb / med["verify"],
            "decode_MBps": mb / med["decode"],
            "projected_decode_s": med["projected"],
            "range_scan_p50_ms": 1e3 * statistics.median(
                self.samples["range"]),
            "range_scan_tail_ms": 1e3 * rt,
            "point_lookup_p50_ms": 1e3 * statistics.median(
                self.samples["point"]),
            "point_lookup_tail_ms": 1e3 * pt,
            "peak_rss_MB": peak_rss_mb(),
        }

    # --------------------------------------------------------- traced run

    def traced(self) -> dict[str, float]:
        """Untraced encode_job and full decode once, then traced in-process
        replays of the same partitions and reads for ``seconds``; every
        pass must write chunk files byte-identical to the untraced store,
        and its stage spans must cover MIN_COVERAGE of the UDF wall."""
        import pyarrow.compute as pc

        import tracing

        from json_to_parquet_ray.manifest import load_manifest

        if self.store is None:
            self.setup_encodes = [self.op_encode()]
        encode_wall = self.setup_encodes[-1].wall
        ray_recs = load_manifest(self.store)
        udf = sorted(r.wall_time_s for r in ray_recs.values())
        ray_decode_s = self.op_decode().wall
        fixed = {
            "encode_job.dispatch_s": encode_wall - sum(udf),
            "encode_job.udf_p50_s": statistics.median(udf),
            "encode_job.udf_max_s": udf[-1],
        }
        replay_dir = str(self.run_dir / "replay")
        passes, self.spans = [], []
        end = time.perf_counter() + self.seconds
        while not passes or time.perf_counter() < end:
            tr = tracing.Tracer()
            tracing.install(tr)
            try:
                tracing.replay_encode(tr, self.items, replay_dir, BLOOM)
                k = len(passes) * TRACE_READS
                reads = {
                    "full": tracing.replay_read(tr, self.store),
                    "projected": tracing.replay_read(
                        tr, self.store, columns=PROJECTION),
                    "range": [], "point": []}
                for q in range(k, k + TRACE_READS):
                    lo_s, hi_s, lo, hi, want = self.ranges[q % QUERIES]
                    r = tracing.replay_read(
                        tr, self.store, zone_filter={"warc_ts": (lo_s, hi_s)},
                        row_filter=lambda t, lo=lo, hi=hi: pc.and_(
                            pc.greater_equal(t["warc_ts"], lo),
                            pc.less_equal(t["warc_ts"], hi)))
                    reads["range"].append(r)
                    self.count_check(r["rows"] == want, "traced range scan")
                    key, want = self.points[q % QUERIES]
                    r = tracing.replay_read(
                        tr, self.store, zone_filter={"url": [key]},
                        row_filter=lambda t, key=key: pc.equal(t["url"], key))
                    reads["point"].append(r)
                    self.count_check(r["rows"] == want, "traced point lookup")
            finally:
                tr.unpatch()
            self.spans.append(tr.dump())
            self.count_check(reads["full"]["rows"] == ROWS,
                             "traced full decode row count")
            replay_recs = load_manifest(replay_dir)
            self.count_check(self.same_chunks(replay_recs, replay_dir),
                             "traced chunk files differ from the store")
            m = tracing.pass_metrics(tr, replay_recs, ray_recs, reads,
                                     ray_decode_s)
            self.count_check(m["encode.stage_coverage"] >= MIN_COVERAGE,
                             f"stage coverage {m['encode.stage_coverage']:.3f}")
            passes.append(m)
        other = sorted({c for m in passes for c in m.pop("_other_codecs")})
        self.extra.update(trace_passes=len(passes), other_codecs=other)
        out = {k: statistics.median(m[k] for m in passes) for k in passes[0]}
        out.update(fixed)
        return out

    def count_check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"check failed: {what}")

    def same_chunks(self, replay_recs: dict, replay_dir: str) -> bool:
        if len(replay_recs) != len(self.items):
            return False
        for rec in replay_recs.values():
            a = Path(self.store, rec.chunk_file).read_bytes()
            if a != Path(replay_dir, rec.chunk_file).read_bytes():
                return False
        return True


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if name in END_TO_END:
        return END_TO_END[name]
    if last in ("in_bytes", "out_bytes", "bytes"):
        return "bytes"
    if last in ("calls", "trial_encodes"):
        return "count"
    if last == "s" or last.endswith("_s"):
        return "s"
    return "ratio"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "json_to_parquet_ray" / "__init__.py").is_file():
        log(f"no json_to_parquet_ray package under {ROOT}")
        return 2

    bench = Bench(args.workload, args.seed, args.seconds)
    ray_tmp = bench.environment()
    try:
        bench.build()
        setup_s = bench.setup(ray_tmp)
        bench.prepare_oracle()
        if args.trace:
            metrics = bench.traced()
        else:
            bench.timed_loop()
            metrics = bench.end_to_end(setup_s)
    finally:
        import ray

        ray.shutdown()
        shutil.rmtree(bench.run_dir, ignore_errors=True)
        if ray_tmp:
            for p in Path(ray_tmp).glob(f"session_*_{os.getpid()}"):
                shutil.rmtree(p, ignore_errors=True)
            latest = Path(ray_tmp, "session_latest")
            if latest.is_symlink() and not latest.exists():
                latest.unlink()
    if args.trace:
        out = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"passes": bench.spans}))
        bench.extra["spans_file"] = str(out.relative_to(ROOT))

    for k, v in bench.extra.items():
        print(f"  {k:36s} {v}")
    for k, v in metrics.items():
        print(f"{k:40s} {v:14.6g} {unit_of(k)}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
