"""Chunk digest: encode one input and print the sha1 of every chunk file.

Prints one JSON object, ``{"chunks": {relative .rde path: sha1},
"total_bytes": N, "column_bytes": {column: N}, "shared": {column:
[[label, sha1]]}}``, so two code versions can be checked for
byte-identical output by running this script from each checkout on the
same input and comparing the printed objects. ``column_bytes`` sums the
manifest's per-column chunk sizes. ``shared`` digests the job's one
broadcast of shared state, caught on its way through ``ray.put``: per
column, each candidate's label and the sha1 of its dictionary's Arrow
IPC bytes (values and type) or of its FSST symbol table. A chunk that
picks no shared candidate embeds none of it, so ``chunks`` alone cannot
see a changed dictionary.

The input is either a parquet path (file or directory) or a
``--cc ROWS SEED ROW_GROUP_ROWS`` spec: ``fixtures.make_cc_table(ROWS,
seed=SEED)`` written with that row-group size. Partition ids hash the
input's full path, so a spec input is written under ``--work`` at a
name fixed by the spec, and two runs with the same ``--work`` name their
chunks alike. The store is rebuilt under ``--work`` on every run.

Usage:
  python tools/chunk_digest.py PATH [options]
  python tools/chunk_digest.py --cc 5000 401 2500 [options]

Options: ``--max-rows N`` (max_rows_per_partition), ``--bloom COLS``,
``--shared-dicts COLS`` (or ``auto``), ``--shared-fsst COLS``
(comma-separated column lists), ``--compact MIN_ROWS`` (runs
``compact_job`` after the encode),
``--optimize {balanced,size}``, ``--work DIR``. Ray runs at 1 CPU.

``--keyed KEY_COL SALT_COL`` builds a keyed store instead
(``keyed_store.keyed_encode`` over the input read as one Dataset, with
the ``keyed_store_en`` query's ``hot_threshold=100, salt_buckets=4``)
and digests every ``.rde`` file under it. It calls only
``keyed_encode``, whose signature every version shares, so this script
digests another checkout's package when run with ``PYTHONPATH`` set to
that checkout (its own checkout is only the fallback on ``sys.path``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import shutil
import sys
import tempfile

sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _cols(s: str | None) -> list[str] | None:
    return [c for c in s.split(",") if c] if s else None


def cc_input(work: str, rows: int, seed: int, row_group: int) -> str:
    from json_to_parquet_ray.fixtures import write_cc_parquet

    path = os.path.join(work, "input", f"cc_{rows}_{seed}_rg{row_group}.parquet")
    if not os.path.exists(path):
        write_cc_parquet(path, rows, seed=seed, row_group_size=row_group)
    return path


def digest(store: str) -> dict:
    from json_to_parquet_ray.manifest import effective_records

    chunks, total, columns = {}, 0, {}
    for root, _, files in os.walk(store):
        for name in files:
            if not name.endswith(".rde"):
                continue
            path = os.path.join(root, name)
            with open(path, "rb") as f:
                blob = f.read()
            chunks[os.path.relpath(path, store)] = hashlib.sha1(blob).hexdigest()
            total += len(blob)
    for rec in effective_records(store):
        for c in rec.columns:
            columns[c["name"]] = columns.get(c["name"], 0) + c["size"]
    return {"chunks": dict(sorted(chunks.items())), "total_bytes": total,
            "column_bytes": dict(sorted(columns.items()))}


def capture_broadcast() -> list:
    """Record every (sampled plan, shared candidates) pair an encode job
    broadcasts through ``ray.put``."""
    import ray

    from json_to_parquet_ray.plan import CodecPlan

    seen, put = [], ray.put

    def spy(obj, *args, **kwargs):
        if isinstance(obj, tuple) and isinstance(obj[0], CodecPlan):
            seen.append(obj)
        return put(obj, *args, **kwargs)

    ray.put = spy
    return seen


def shared_digest(broadcasts: list) -> dict:
    from json_to_parquet_ray.codecs.base import ipc_write
    from json_to_parquet_ray.codecs.fsst import serialize_table

    out = {}
    for _, cands in broadcasts:
        for col, entries in sorted(cands.items()):
            out[col] = [
                [label, hashlib.sha1(
                    ipc_write(kw["dictionary"]) if "dictionary" in kw
                    else serialize_table(kw["encoder"].symbols)).hexdigest()]
                for label, _, kw in entries]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("path", nargs="?", help="parquet file or directory")
    src.add_argument("--cc", nargs=3, type=int,
                     metavar=("ROWS", "SEED", "ROW_GROUP_ROWS"))
    ap.add_argument("--max-rows", type=int)
    ap.add_argument("--bloom")
    ap.add_argument("--shared-dicts")
    ap.add_argument("--shared-fsst")
    ap.add_argument("--compact", type=int, metavar="MIN_ROWS")
    ap.add_argument("--optimize", choices=("balanced", "size"))
    ap.add_argument("--keyed", nargs=2, metavar=("KEY_COL", "SALT_COL"))
    ap.add_argument("--work", default=os.path.join(tempfile.gettempdir(),
                                                   "chunk_digest"))
    args = ap.parse_args()

    import ray

    from json_to_parquet_ray.pipelines.encode_job import compact_job, encode_job

    work = os.path.abspath(args.work)
    store = os.path.join(work, "store")
    shutil.rmtree(store, ignore_errors=True)
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             log_to_driver=False, logging_level=logging.ERROR)
    broadcasts = capture_broadcast()
    try:
        inp = (cc_input(work, *args.cc) if args.cc
               else os.path.abspath(args.path))
        if args.keyed:
            from json_to_parquet_ray.pipelines.keyed_store import keyed_encode

            keyed_encode(ray.data.read_parquet(inp), store, *args.keyed,
                         hot_threshold=100, salt_buckets=4)
        else:
            encode_job(inp, store, bloom_columns=_cols(args.bloom),
                       shared_dict_columns=(
                           "auto" if args.shared_dicts == "auto"
                           else _cols(args.shared_dicts)),
                       shared_fsst_columns=_cols(args.shared_fsst),
                       max_rows_per_partition=args.max_rows,
                       optimize=args.optimize)
            if args.compact:
                compact_job(store, min_rows=args.compact)
    finally:
        ray.shutdown()
    print(json.dumps({**digest(store), "shared": shared_digest(broadcasts)},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
