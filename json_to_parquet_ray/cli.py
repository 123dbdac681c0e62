"""CLI orchestrator — reference parity with Manager.main (Manager.java:8-35),
which took (input JSON file, output dir) and wrote one Parquet file.

    python -m json_to_parquet_ray.cli json2parquet IN... OUT_DIR
    python -m json_to_parquet_ray.cli encode IN... OUT_DIR [--no-resume]
    python -m json_to_parquet_ray.cli verify OUT_DIR
    python -m json_to_parquet_ray.cli decode OUT_DIR PARQUET_OUT_DIR

Only this entry point owns the Ray session (library code never inits).
Designed to be driven by ``ray job submit -- python -m json_to_parquet_ray.cli ...``
on a real cluster; locally it starts a local session.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _parse_zone_filter(s: str) -> dict:
    """COLUMN=LO,HI range, COLUMN=V equality, or COLUMN=V1|V2|V3 IN-list
    → zone_filter dict. Bounds parse as int, then float, else stay
    strings (timestamp/text)."""
    def bound(v: str):
        if v == "":
            return None
        for conv in (int, float):
            try:
                return conv(v)
            except ValueError:
                pass
        return v

    col, eq, rng = s.partition("=")
    if not col or not eq:
        raise SystemExit(
            f"--zone-filter {s!r}: expected COLUMN=LO,HI, COLUMN=V, or "
            f"COLUMN=V1|V2|V3")
    if "|" in rng:
        vals = rng.split("|")
        if any(v == "" for v in vals):
            raise SystemExit(
                f"--zone-filter {s!r}: empty value in IN-list")
        return {col: [bound(v) for v in vals]}
    if "," not in rng:
        # a single value is an EQUALITY, not the open range (v, None) —
        # a point lookup must never silently return a superset. An EMPTY
        # value is rejected outright: 'col=' with $VAL unset would
        # otherwise parse as the open range (None, None) ≈ IS NOT NULL
        # and decode nearly the whole store
        if rng == "":
            raise SystemExit(
                f"--zone-filter {s!r}: empty value (did a shell variable "
                f"expand to nothing?); use COLUMN=LO,HI for a range")
        v = bound(rng)
        return {col: (v, v)}
    lo, _, hi = rng.partition(",")
    return {col: (bound(lo), bound(hi))}


def _ray_session():
    """Returns (ray, owns_session): shutdown only what this CLI started —
    an embedding program's already-initialized session must survive."""
    import ray

    owns = not ray.is_initialized()
    if owns:
        # no hardcoded address: ray.init() honors RAY_ADDRESS ("local" in
        # the sandbox) and attaches to the running cluster when the CLI
        # ships as a `ray job submit` driver — address="local" would
        # silently start a fresh single-node instance on the head node
        ray.init(include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray, owns


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="json_to_parquet_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    j2p = sub.add_parser("json2parquet", help="reference CLI: JSON docs → parquet")
    j2p.add_argument("inputs", nargs="+")
    j2p.add_argument("out_dir")
    j2p.add_argument("--mode", choices=["engine", "conformance"], default="engine")

    enc = sub.add_parser("encode", help="partitioned codec-auto-selected encode")
    enc.add_argument("inputs", nargs="+")
    enc.add_argument("out_dir")
    enc.add_argument("--no-resume", action="store_true")
    enc.add_argument("--shared-dicts", default=None,
                     help="comma-separated columns, or 'auto': one "
                          "dictionary per column, a codec candidate")
    enc.add_argument("--shared-fsst", default=None,
                     help="comma-separated string columns: one FSST table "
                          "per column, trained on the sampled fragments, "
                          "a codec candidate")
    enc.add_argument("--bloom-columns", default=None,
                     help="comma-separated columns to write per-chunk "
                          "Bloom filters for (point-lookup pruning), or "
                          "'auto' = every string/integer column")
    enc.add_argument("--max-rows-per-partition", type=int, default=None)
    enc.add_argument("--consolidate", action="store_true",
                     help="fold the manifest into one parquet index "
                          "after the job completes (see `consolidate`)")
    enc.add_argument("--optimize", choices=("balanced", "size"),
                     default=None,
                     help="'balanced' (default; a resume keeps the "
                          "store's recorded mode) weighs codec ratio by "
                          "measured encode cost; 'size' picks the best "
                          "sampled ratio outright and adds the zstd-19 "
                          "archival candidate (~20-25%% fewer bytes on "
                          "web text at ~100x the encode CPU)")

    ver = sub.add_parser("verify", help="bit-identical decode verification")
    ver.add_argument("out_dir")

    dec = sub.add_parser("decode", help="decode chunks back to parquet")
    dec.add_argument("out_dir")
    dec.add_argument("parquet_out")
    dec.add_argument("--columns", default=None,
                     help="comma-separated projection — only these "
                          "columns' byte ranges are read from each chunk")
    dec.add_argument("--zone-filter", default=None,
                     help="COLUMN=LO,HI inclusive range (empty side = "
                          "open) or COLUMN=V1|V2|V3 IN-list; values may "
                          "be ints, floats, or timestamp strings. Chunks "
                          "whose zone maps miss are never opened; "
                          "equality/IN predicates also consult per-chunk "
                          "Bloom filters when the store was encoded with "
                          "--bloom-columns")

    clu = sub.add_parser(
        "cluster", help="distributed sort-cluster then encode (disjoint "
                        "zone maps on the cluster columns)")
    clu.add_argument("inputs", nargs="+")
    clu.add_argument("out_dir")
    clu.add_argument("--by", required=True,
                     help="comma-separated sort columns (add a tiebreaker "
                          "key for deterministic re-runs)")
    clu.add_argument("--bloom-columns", default=None,
                     help="as for encode")
    clu.add_argument("--max-rows-per-partition", type=int, default=None)
    clu.add_argument("--consolidate", action="store_true",
                     help="as for encode")
    clu.add_argument("--optimize", choices=("balanced", "size"),
                     default=None, help="as for encode")

    sc = sub.add_parser(
        "scan-stats", help="explain pruning for a filter — chunks / "
                           "zone-skipped / bloom-rejected / to-decode, "
                           "reading only manifest + filter bytes")
    sc.add_argument("out_dir")
    sc.add_argument("--zone-filter", required=True, help="as for decode")

    cmp = sub.add_parser("compact", help="merge small chunks (manifest rewrite)")
    cmp.add_argument("out_dir")
    cmp.add_argument("--min-rows", type=int, default=100_000)
    cmp.add_argument("--optimize", choices=("balanced", "size"),
                     default=None,
                     help="planner mode for the merged chunks; default = "
                          "the mode the store was encoded with")
    cmp.add_argument("--consolidate", action="store_true",
                     help="re-consolidate (and usually re-seal) the "
                          "manifest afterwards — compaction commits "
                          "merged records as JSON deltas, which unseal "
                          "a previously sealed index")

    ss = sub.add_parser(
        "store-stats", help="store metrics from the manifest only: "
                            "per-column codec distribution + encoded "
                            "bytes, chunk/row totals, encode wall time")
    ss.add_argument("out_dir")

    con = sub.add_parser(
        "consolidate", help="fold per-partition manifest JSONs into one "
                            "parquet index (one driver read instead of "
                            "10^7 file opens at scale); later encodes "
                            "append JSON deltas that overlay it. Run "
                            "offline — no concurrent writer.")
    con.add_argument("out_dir")

    gcp = sub.add_parser(
        "gc", help="reclaim orphaned store bytes: chunks no manifest "
                   "record claims (compaction crash windows), keyed "
                   "generations the _keyed.json pointer does not name, "
                   "torn write temps. Run offline — no concurrent writer.")
    gcp.add_argument("out_dir")
    gcp.add_argument("--dry-run", action="store_true",
                     help="report what would be reclaimed, delete nothing")

    st = sub.add_parser("stats", help="per-column statistics of parquet input")
    st.add_argument("inputs", nargs="+")

    pl = sub.add_parser("plan", help="codec auto-selection plan for parquet input")
    pl.add_argument("inputs", nargs="+")
    pl.add_argument("--optimize", choices=("balanced", "size"),
                    default="balanced",
                    help="same planner frontier switch as `encode`")

    tk = sub.add_parser("tokenize", help="BPE: train on the corpus, write "
                                         "per-doc exact token counts")
    tk.add_argument("inputs", nargs="+")
    tk.add_argument("parquet_out")
    tk.add_argument("--text-col", default="text")
    tk.add_argument("--vocab-size", type=int, default=4096)
    tk.add_argument("--max-words", type=int, default=50_000)

    dc = sub.add_parser("decontaminate",
                        help="flag docs sharing a word n-gram with any "
                             "eval text (benchmark decontamination)")
    dc.add_argument("inputs", nargs="+")
    dc.add_argument("parquet_out")
    dc.add_argument("--eval-file", required=True,
                    help="text file: one eval document per line")
    dc.add_argument("--ngram", type=int, default=8)
    dc.add_argument("--text-col", default="text")
    dc.add_argument("--key-col", default="doc_id")

    pd_ = sub.add_parser("dedup-paragraphs",
                         help="C4-style boilerplate removal: drop every "
                              "paragraph duplicated across the corpus, "
                              "write cleaned docs")
    pd_.add_argument("inputs", nargs="+")
    pd_.add_argument("parquet_out")
    pd_.add_argument("--text-col", default="text")
    pd_.add_argument("--key-col", default="doc_id")
    pd_.add_argument("--min-count", type=int, default=2)

    args = p.parse_args(argv)
    if args.cmd in ("store-stats", "consolidate", "gc"):
        # driver-only metadata commands: a pure filesystem read of
        # manifest records must not pay multi-second Ray startup (or
        # attach to a live cluster) it never uses
        ray, owns_session = None, False
    else:
        ray, owns_session = _ray_session()
    try:
        if args.cmd == "json2parquet":
            from .json_source import json_to_parquet_job

            schema = json_to_parquet_job(args.inputs, args.out_dir, mode=args.mode)
            print(json.dumps({"out": args.out_dir,
                              "schema": [f"{f.name}:{f.type}" for f in schema]}))
        elif args.cmd == "encode":
            from .pipelines.encode_job import encode_job

            shared = args.shared_dicts
            if shared and shared != "auto":
                shared = shared.split(",")
            blooms = args.bloom_columns
            if blooms and blooms != "auto":
                blooms = blooms.split(",")
            summary = encode_job(args.inputs, args.out_dir,
                                 resume=not args.no_resume,
                                 shared_dict_columns=shared,
                                 shared_fsst_columns=(
                                     args.shared_fsst.split(",")
                                     if args.shared_fsst else None),
                                 bloom_columns=blooms,
                                 max_rows_per_partition=args.max_rows_per_partition,
                                 consolidate_manifest=args.consolidate,
                                 optimize=args.optimize)
            print(json.dumps(summary))
        elif args.cmd == "cluster":
            from .pipelines.encode_job import cluster_job

            blooms = args.bloom_columns
            if blooms and blooms != "auto":
                blooms = blooms.split(",")
            summary = cluster_job(
                args.inputs, args.out_dir, by=args.by.split(","),
                bloom_columns=blooms,
                max_rows_per_partition=args.max_rows_per_partition,
                consolidate_manifest=args.consolidate,
                optimize=args.optimize)
            print(json.dumps(summary))
        elif args.cmd == "verify":
            from .pipelines.encode_job import verify_job

            res = verify_job(args.out_dir)
            print(json.dumps(res))
            return 0 if not res["failed"] else 1
        elif args.cmd == "decode":
            from .pipelines.encode_job import decode_dataset

            zf = (_parse_zone_filter(args.zone_filter)
                  if args.zone_filter else None)
            cols = args.columns.split(",") if args.columns else None
            decode_dataset(args.out_dir, columns=cols,
                           zone_filter=zf).write_parquet(args.parquet_out)
            # a filter matching no row writes no file: still leave the
            # printed path, as an empty directory
            os.makedirs(args.parquet_out, exist_ok=True)
            print(json.dumps({"out": args.parquet_out}))
        elif args.cmd == "scan-stats":
            from .pipelines.encode_job import (
                bloom_reject_count,
                effective_records,
                require_store,
                validate_zone_bounds,
                zone_prune,
            )

            zf = _parse_zone_filter(args.zone_filter)
            require_store(args.out_dir)
            recs = effective_records(args.out_dir)
            # same fail-fast as decode: the explain must error exactly
            # where the decode would, not report a bad bound's total
            # lexical prune as legitimate
            validate_zone_bounds(recs, zf)
            kept, zone_skipped = zone_prune(args.out_dir, zf, recs=recs)
            eq = {c: (b if isinstance(b, list) else [b[0]])
                  for c, b in zf.items()
                  if isinstance(b, list)
                  or (b[0] is not None and b[0] == b[1])}
            bloom_rejected = (bloom_reject_count(args.out_dir, kept, eq)
                              if eq else 0)
            print(json.dumps({
                "chunks": len(recs), "zone_skipped": zone_skipped,
                "bloom_rejected": bloom_rejected,
                "to_decode": len(kept) - bloom_rejected,
            }))
        elif args.cmd == "compact":
            from .pipelines.encode_job import compact_job

            res = compact_job(args.out_dir, min_rows=args.min_rows,
                              optimize=args.optimize)
            res.pop("merged", None)
            if args.consolidate:
                from .manifest import consolidate

                res["consolidated"] = consolidate(args.out_dir)
            print(json.dumps(res))
        elif args.cmd == "store-stats":
            from .pipelines.encode_job import store_stats

            print(json.dumps(store_stats(args.out_dir), sort_keys=True))
        elif args.cmd == "consolidate":
            from .manifest import consolidate

            print(json.dumps(consolidate(args.out_dir)))
        elif args.cmd == "gc":
            from .pipelines.encode_job import gc_job

            print(json.dumps(gc_job(args.out_dir, dry_run=args.dry_run)))
        elif args.cmd == "stats":
            from .stats import compute_stats

            stats = compute_stats(ray.data.read_parquet(args.inputs))
            print(json.dumps({
                c: {"type": s.type_str, "rows": s.n, "nulls": s.null_count,
                    "bytes": s.nbytes, "runs": s.runs,
                    "cardinality_est": round(s.cardinality, 1),
                    "min": None if s.min_val is None else str(s.min_val),
                    "max": None if s.max_val is None else str(s.max_val)}
                for c, s in stats.items()}, sort_keys=True))
        elif args.cmd == "plan":
            import pyarrow.parquet as pq

            from .plan import plan_from_stats
            from .stats import compute_stats

            ds = ray.data.read_parquet(args.inputs)
            stats = compute_stats(ds)
            first = args.inputs[0]
            if os.path.isdir(first):
                first = next((os.path.join(first, f)
                              for f in sorted(os.listdir(first))
                              if f.endswith(".parquet")), None)
                if first is None:
                    raise SystemExit(
                        f"plan: no .parquet files found at the top level "
                        f"of {args.inputs[0]!r}")
            schema = pq.read_schema(first).remove_metadata()
            plan = plan_from_stats(stats, schema, optimize=args.optimize)
            print(json.dumps(plan.to_json(), sort_keys=True))
        elif args.cmd == "tokenize":
            from .pipelines.bpe import bpe_tokenize

            ds = ray.data.read_parquet(args.inputs)
            out, merges = bpe_tokenize(ds, col=args.text_col,
                                       vocab_size=args.vocab_size,
                                       max_words=args.max_words)
            out.write_parquet(args.parquet_out)
            print(json.dumps({"out": args.parquet_out,
                              "merges_learned": len(merges),
                              "vocab_size": 256 + len(merges)}))
        elif args.cmd == "decontaminate":
            from .pipelines.text import decontaminate

            with open(args.eval_file) as f:
                eval_texts = [ln.rstrip("\n") for ln in f if ln.strip()]
            ds = ray.data.read_parquet(
                args.inputs, columns=[args.key_col, args.text_col])
            out = decontaminate(ds, eval_texts, n=args.ngram,
                                key=args.key_col, text_col=args.text_col)
            out.write_parquet(args.parquet_out)
            flagged = ray.data.read_parquet(
                args.parquet_out,
                columns=["contaminated"]).sum("contaminated") or 0
            print(json.dumps({"out": args.parquet_out,
                              "eval_texts": len(eval_texts),
                              "contaminated_docs": int(flagged)}))
        elif args.cmd == "dedup-paragraphs":
            from .pipelines.dedup import paragraph_dedup

            ds = ray.data.read_parquet(
                args.inputs, columns=[args.key_col, args.text_col])
            out = paragraph_dedup(ds, text_col=args.text_col,
                                  key=args.key_col,
                                  min_count=args.min_count)
            out.write_parquet(args.parquet_out)
            # summarize from the WRITTEN column, not by re-executing the
            # (lazy) pipeline a second time
            removed = ray.data.read_parquet(
                args.parquet_out, columns=["n_removed"]).sum("n_removed") or 0
            print(json.dumps({"out": args.parquet_out,
                              "paragraphs_removed": int(removed)}))
    finally:
        if owns_session:  # never tear down a caller's shared session
            ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
