#!/usr/bin/env python3
"""Convert Google Benchmark JSON output into BENCH_kernels.json (schema v3).

Reads the raw ``--benchmark_format=json`` output of bench_kernels (BM_Scan*
entries), pairs each packed benchmark with its scalar twin at the same
(M, D), and emits the repo's perf-baseline schema (see README "Kernel
benchmarks"):

    {
      "schema": "factorhd.bench_kernels.v3",
      "mode": "full" | "smoke",
      "context": {...,                    # machine/build provenance
                  "simd_level": "avx512", # tier kPacked scans dispatched to
                  "simd_detected": "avx512"},
      "benchmarks": [{"name", "kernel", "backend", "level", "m", "d",
                      "real_time_ns", "cpu_time_ns", "items_per_second"}],
      "speedup": {
        "scan_best/m64/d8192": 15.0,          # scalar_cpu / dispatched packed
        "scan_best/m64/d8192/avx2": 8.1, ...  # scalar_cpu / forced-tier cpu
      },
      "block_speedup": {
        "scan_block/m4096/d8192": 3.8, ...    # per-query ips: Q=64 over Q=1
      }
    }

`level` is the SIMD tier a row executed at: null for the scalar int32
backend, the forced tier for BM_Scan*Packed{Words,AVX2,AVX512,NEON} rows,
and the context's dispatched tier for plain BM_Scan*Packed rows.
``BM_ScanBlockPacked/M/D/Q`` rows (kernel ``scan_block``) carry an extra
``q`` field — the number of packed queries per ``best_block`` call — and
feed the ``block_speedup`` table: per-query throughput at Q=64 over Q=1
for each (M, D), the multi-query amortization the blocked kernels buy.
``BM_Cleanup{Rep1,Flip}/M/D/Q`` rows (kernels ``cleanup_rep1`` and
``cleanup_flip``) carry ``q`` too: the pruned argmax on unbound Rep-1
queries, which its 128-dim first step resolves, and on 5%-flip bipolar
queries, which its 512-dim second step resolves.

``--check FILE`` validates an emitted file and exits non-zero on
violations — the CI hook keeping the emitters and these schemas in
lockstep. The file's own ``schema`` field selects the validator:

* ``factorhd.bench_kernels.v2`` — the Google-Benchmark conversion above
  without the blocked-scan rows. Accepted for older baselines.
* ``factorhd.bench_kernels.v3`` — v2 plus ``scan_block`` rows and the
  ``block_speedup`` table. Full-mode baselines must show
  ``scan_block/m4096/d8192 >= 3.0`` (the ISSUE 7 blocked-scan acceptance
  bound; at tiny M the per-plane row pass is too short to amortize, so
  the bound is pinned at the GEMM-shaped 4096-row point). They must also
  hold both cleanup rows (presence only, no speed bound).
* ``factorhd.bench_scale.v1`` — the tiered-scan M-sweep written directly
  by ``bench_ext_scale --json`` (context with dim/queries/flip_rate/seed/
  SIMD tiers; one sweep row per codebook size M with clusters, nprobe,
  per-query times, speedup, recall@1, and similarity-op counts; a
  ``headline`` block mirroring the largest-M row — the ISSUE 5 acceptance
  surface). Accepted for older baselines; current emitters write v4.
* ``factorhd.bench_scale.v2`` — v1 plus the ISSUE 6 build/persistence
  columns per row: ``build_seconds`` (default screened/pooled build),
  ``build_reference_seconds`` (single-threaded exhaustive build; 0 when
  skipped above the headline M), ``build_speedup`` (reference/default),
  and ``snapshot_load_seconds`` (FTS1 file round-trip load). Full-mode
  baselines must show build_speedup >= 3.5 on the M=262144 row and a
  sub-second snapshot load on the largest-M row (committed as
  BENCH_scale.json).
* ``factorhd.bench_scale.v3`` — v2 plus the ISSUE 7 adaptive-probing
  columns per row: ``adaptive_nprobe_min`` / ``adaptive_nprobe_max`` (the
  floor/ceiling the adaptive view re-probed the same clustering with),
  ``mean_probes`` (mean buckets actually probed per query), and
  ``adaptive_recall_at_1``. Full-mode baselines must show
  adaptive_recall_at_1 >= 0.99 with mean_probes <= 0.5 * clusters / 16
  on the M=262144 acceptance row.
* ``factorhd.bench_service.v1`` — the serving-runtime rows written by
  ``bench_ext_service --json`` (context with dim/items/producers/requests/
  window/seed/SIMD tier; one row per load configuration with throughput
  and p50/p99/p99.9; an ``overhead`` block comparing the batch=64
  configuration with sampled tracing on vs off). Full-mode baselines must
  show ``overhead.ratio >= 0.97`` — sampled tracing at the deployment
  default (1-in-64) may cost at most 3% throughput, the ISSUE 9
  observability acceptance bound (committed as BENCH_service.json).
* ``factorhd.bench_latency.v1`` — the open-loop network load sweep written
  by ``bench_ext_latency --json`` (context with dim/items/saturation_rps/
  hot_fraction/admission bounds/seed; one row per load multiplier with
  offered rate, goodput, p50/p99/p99.9 result latency, and the
  results/overloads/errors/timeouts accounting). Full-mode baselines must
  show p99 <= 10x p50 on the 0.5x-saturation row and, on the 4x row,
  excess load shed by explicit overload rejects with zero timeouts — the
  ISSUE 10 admission-control acceptance bounds (committed as
  BENCH_latency.json).
* ``factorhd.bench_scale.v4`` — v3 plus the ISSUE 8 scatter-gather
  ``shard_sweep`` list per row: one entry per shard count (ascending)
  with ``shards``, ``build_seconds`` (per-shard tier builds),
  ``sharded_us_per_query``, ``speedup`` (exact full scan / sharded —
  the same baseline as every other speedup field), ``recall_at_1``,
  and ``sharded_sim_ops``; the headline gains ``shard_speedup`` (the
  largest-M 4-shard aggregate). Full-mode baselines must show
  shard speedup >= 3.0 at recall@1 >= 0.99 on the largest-M 4-shard
  entry — the ISSUE 8 acceptance bound.

Only Python stdlib is used.
"""

import argparse
import json
import re
import sys

# BM_ScanBestPackedAVX2/64/8192 -> kernel "scan_best", backend "packed",
# level "avx2", m, d. The level suffix is absent on scalar and
# dispatched-packed rows.
NAME_RE = re.compile(
    r"^BM_Scan(?P<kernel>Best|Dots)(?P<backend>Scalar|Packed)"
    r"(?P<level>Words|AVX2|AVX512|NEON)?/(?P<m>\d+)/(?P<d>\d+)$"
)

# BM_ScanBlockPacked/4096/8192/64 -> kernel "scan_block" at Q = 64 packed
# queries per best_block call (dispatched tier only; no forced variants).
BLOCK_NAME_RE = re.compile(
    r"^BM_ScanBlockPacked/(?P<m>\d+)/(?P<d>\d+)/(?P<q>\d+)$"
)

# BM_CleanupRep1/65536/4096/16 -> kernel "cleanup_rep1" (and Flip ->
# "cleanup_flip"): the pruned argmax on one query shape each.
CLEANUP_NAME_RE = re.compile(
    r"^BM_Cleanup(?P<shape>Rep1|Flip)/(?P<m>\d+)/(?P<d>\d+)/(?P<q>\d+)$"
)
CLEANUP_KERNELS = ("cleanup_rep1", "cleanup_flip")
QUERY_BLOCK_KERNELS = ("scan_block",) + CLEANUP_KERNELS

# Benchmark-name level suffix -> canonical SimdLevel name (simd.hpp).
LEVEL_NAMES = {"Words": "scalar", "AVX2": "avx2", "AVX512": "avx512",
               "NEON": "neon"}
KNOWN_LEVELS = set(LEVEL_NAMES.values())

SCHEMA_V2 = "factorhd.bench_kernels.v2"
SCHEMA = "factorhd.bench_kernels.v3"
SCALE_SCHEMA = "factorhd.bench_scale.v1"
SCALE_SCHEMA_V2 = "factorhd.bench_scale.v2"
SCALE_SCHEMA_V3 = "factorhd.bench_scale.v3"
SCALE_SCHEMA_V4 = "factorhd.bench_scale.v4"
SERVICE_SCHEMA = "factorhd.bench_service.v1"
LATENCY_SCHEMA = "factorhd.bench_latency.v1"

# Full-mode blocked-scan acceptance (ISSUE 7): per-query throughput at
# Q=64 must be at least this multiple of Q=1 on the m=4096/d=8192 point.
MIN_BLOCK_SPEEDUP = 3.0
BLOCK_ACCEPTANCE_KEY = "scan_block/m4096/d8192"


def parse_benchmarks(raw, dispatched_level):
    out = []
    for b in raw.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        unit = b.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
        block = BLOCK_NAME_RE.match(b.get("name", ""))
        cleanup = CLEANUP_NAME_RE.match(b.get("name", ""))
        if cleanup:
            block = cleanup
        if block:
            out.append(
                {
                    "name": b["name"],
                    "kernel": ("cleanup_" + cleanup.group("shape").lower()
                               if cleanup else "scan_block"),
                    "backend": "packed",
                    "level": dispatched_level,
                    "forced": False,
                    "m": int(block.group("m")),
                    "d": int(block.group("d")),
                    "q": int(block.group("q")),
                    "real_time_ns": b["real_time"] * scale,
                    "cpu_time_ns": b["cpu_time"] * scale,
                    "items_per_second": b.get("items_per_second"),
                }
            )
            continue
        match = NAME_RE.match(b.get("name", ""))
        if not match:
            continue
        backend = match.group("backend").lower()
        suffix = match.group("level")
        if backend == "scalar":
            level = None  # int32 loops: no plane tier at all
        elif suffix is not None:
            level = LEVEL_NAMES[suffix]
        else:
            level = dispatched_level
        out.append(
            {
                "name": b["name"],
                "kernel": "scan_" + match.group("kernel").lower(),
                "backend": backend,
                "level": level,
                # Forced-tier row (False for the dispatched kPacked pair the
                # perf trajectory tracks).
                "forced": suffix is not None,
                "m": int(match.group("m")),
                "d": int(match.group("d")),
                "real_time_ns": b["real_time"] * scale,
                "cpu_time_ns": b["cpu_time"] * scale,
                "items_per_second": b.get("items_per_second"),
            }
        )
    return out


def speedup_slot(b):
    """Per-point slot of a row in the speedup table: the scalar int32
    reference, the dispatched packed pair, or a forced tier ("words" for the
    forced scalar-word tier, so it cannot collide with the int32 slot)."""
    if b.get("backend") == "scalar":
        return "int32"
    if not b.get("forced"):
        return "packed"
    return "words" if b.get("level") == "scalar" else b.get("level")


def compute_speedups(benchmarks):
    """scalar_cpu / packed_cpu per (kernel, m, d): the dispatched pair under
    the bare key (the perf-trajectory headline), each forced tier under
    key/<words|avx2|avx512|neon>."""
    by_point = {}
    for b in benchmarks:
        by_point.setdefault((b["kernel"], b["m"], b["d"]), {})[
            speedup_slot(b)] = b
    speedups = {}
    for (kernel, m, d), slots in sorted(by_point.items()):
        scalar = slots.get("int32")
        if scalar is None:
            continue
        for slot, b in sorted(slots.items()):
            if slot == "int32" or b["cpu_time_ns"] <= 0:
                continue
            key = f"{kernel}/m{m}/d{d}"
            if slot != "packed":
                key += f"/{slot}"
            speedups[key] = round(scalar["cpu_time_ns"] / b["cpu_time_ns"], 3)
    return speedups


def compute_block_speedups(benchmarks):
    """Per-query throughput amortization of the blocked scan: for each
    (m, d) with both a Q=1 and a Q=64 scan_block row, cpu_per_query(Q=1) /
    cpu_per_query(Q=64) under key "scan_block/m{m}/d{d}"."""
    by_point = {}
    for b in benchmarks:
        if b["kernel"] != "scan_block":
            continue
        by_point.setdefault((b["m"], b["d"]), {})[b["q"]] = b
    speedups = {}
    for (m, d), rows in sorted(by_point.items()):
        q1, q64 = rows.get(1), rows.get(64)
        if q1 is None or q64 is None:
            continue
        per_query_q64 = q64["cpu_time_ns"] / 64.0
        if per_query_q64 <= 0:
            continue
        speedups[f"scan_block/m{m}/d{d}"] = round(
            q1["cpu_time_ns"] / per_query_q64, 3
        )
    return speedups


def validate(doc, schema=SCHEMA):
    """Returns a list of kernels v2/v3-schema violations (empty = valid)."""
    v3 = schema == SCHEMA
    errors = []
    if doc.get("schema") != schema:
        errors.append(f"schema is {doc.get('schema')!r}, expected {schema!r}")
    if doc.get("mode") not in ("full", "smoke"):
        errors.append(f"mode is {doc.get('mode')!r}")
    ctx = doc.get("context", {})
    if ctx.get("simd_level") not in KNOWN_LEVELS:
        errors.append(f"context.simd_level is {ctx.get('simd_level')!r}")
    if ctx.get("simd_detected") not in KNOWN_LEVELS:
        errors.append(f"context.simd_detected is {ctx.get('simd_detected')!r}")
    benchmarks = doc.get("benchmarks") or []
    if not benchmarks:
        errors.append("no benchmarks recorded")
    well_formed = []
    for b in benchmarks:
        required = ("kernel", "backend", "level", "forced", "m", "d")
        if b.get("kernel") in QUERY_BLOCK_KERNELS:
            required += ("q",)
        missing = [k for k in required if k not in b]
        if missing:
            errors.append(f"{b.get('name')}: missing fields {missing}")
            continue
        if b["backend"] == "scalar":
            if b["level"] is not None:
                errors.append(f"{b.get('name')}: scalar row with level")
        elif b["level"] not in KNOWN_LEVELS:
            errors.append(f"{b.get('name')}: bad level {b['level']!r}")
        well_formed.append(b)
    speedups = doc.get("speedup") or {}
    if not speedups:
        errors.append("no speedups recorded")
    # Every dispatched packed point must have its headline speedup, and every
    # forced tier measured must appear under a per-level key. scan_block rows
    # live in the block_speedup table instead.
    for b in well_formed:
        if b["backend"] != "packed" or b["kernel"] in QUERY_BLOCK_KERNELS:
            continue
        key = f"{b['kernel']}/m{b['m']}/d{b['d']}"
        slot = speedup_slot(b)
        if slot != "packed":
            key += f"/{slot}"
        if key not in speedups:
            errors.append(f"missing speedup entry {key!r}")
    if v3:
        block_rows = [b for b in well_formed if b["kernel"] == "scan_block"]
        if not block_rows:
            errors.append("v3 file has no scan_block rows")
        block_speedups = doc.get("block_speedup") or {}
        # Every (m, d) measured at both Q=1 and Q=64 must carry its
        # amortization ratio.
        qs_by_point = {}
        for b in block_rows:
            qs_by_point.setdefault((b["m"], b["d"]), set()).add(b["q"])
        for (m, d), qs in sorted(qs_by_point.items()):
            if {1, 64} <= qs and f"scan_block/m{m}/d{d}" not in block_speedups:
                errors.append(f"missing block_speedup entry scan_block/m{m}/d{d}")
        # Full-mode acceptance (ISSUE 7): Q=64 must amortize >= 3x over
        # Q=1 per query on the GEMM-shaped m=4096/d=8192 point.
        if doc.get("mode") == "full":
            got = block_speedups.get(BLOCK_ACCEPTANCE_KEY)
            if got is None:
                errors.append(
                    f"full-mode v3 file lacks {BLOCK_ACCEPTANCE_KEY!r}"
                )
            elif got < MIN_BLOCK_SPEEDUP:
                errors.append(
                    f"block_speedup {BLOCK_ACCEPTANCE_KEY}: {got} < "
                    f"{MIN_BLOCK_SPEEDUP}"
                )
            # Both sides of the pruned argmax's step choice are measured.
            kernels = {b["kernel"] for b in well_formed}
            for kernel in CLEANUP_KERNELS:
                if kernel not in kernels:
                    errors.append(f"full-mode v3 file has no {kernel} row")
    return errors


SCALE_ROW_FIELDS_V1 = (
    "m", "clusters", "nprobe", "build_ms", "exact_us_per_query",
    "tiered_us_per_query", "speedup", "recall_at_1", "exact_sim_ops",
    "tiered_sim_ops",
)

# v2 renames build_ms -> build_seconds and adds the ISSUE 6 build /
# persistence measurements.
SCALE_ROW_FIELDS_V2 = (
    "m", "clusters", "nprobe", "build_seconds", "build_reference_seconds",
    "build_speedup", "snapshot_load_seconds", "exact_us_per_query",
    "tiered_us_per_query", "speedup", "recall_at_1", "exact_sim_ops",
    "tiered_sim_ops",
)

# v3 adds the ISSUE 7 adaptive-probing measurements: the floor/ceiling the
# adaptive view re-probed the clustering with, the mean buckets actually
# probed per query, and the recall the adaptive scan achieved.
SCALE_ROW_FIELDS_V3 = SCALE_ROW_FIELDS_V2 + (
    "adaptive_nprobe_min", "adaptive_nprobe_max", "mean_probes",
    "adaptive_recall_at_1",
)

# v4 adds the ISSUE 8 scatter-gather shard sweep: a per-row list of
# per-shard-count measurements over the same packed rows and queries.
SCALE_ROW_FIELDS_V4 = SCALE_ROW_FIELDS_V3 + ("shard_sweep",)
SHARD_ENTRY_FIELDS = (
    "shards", "build_seconds", "sharded_us_per_query", "speedup",
    "recall_at_1", "sharded_sim_ops",
)

# The M=262144 acceptance row of full-mode baselines must show at least
# this build speedup (screened/pooled build vs the exhaustive
# single-threaded reference). 3.5 admits the committed baseline's 3.623x,
# recorded on a 4-core runner where the assignment passes scale sub-
# linearly (the previous 4.0 bound rejected the very baseline the PR that
# introduced it committed) ...
MIN_BUILD_SPEEDUP = 3.5
# ... and the largest-M row must load its snapshot in under a second.
MAX_SNAPSHOT_LOAD_SECONDS = 1.0
# v3 adaptive-probing acceptance at M=262144 (ISSUE 7): recall@1 at least
# this ...
MIN_ADAPTIVE_RECALL = 0.99
# ... with mean probes at most this fraction of the fixed-probing default
# (nprobe = clusters / 16).
MAX_MEAN_PROBE_FRACTION = 0.5
# v4 scatter-gather acceptance (ISSUE 8): the largest-M 4-shard entry of
# full-mode baselines must reach at least this aggregate scan speedup over
# the exact full scan (the same baseline as every other speedup field) ...
MIN_SHARD_SPEEDUP = 3.0
# ... at no recall cost beyond the usual tiered bound.
MIN_SHARD_RECALL = 0.99
SHARD_ACCEPTANCE_COUNT = 4


def validate_scale(doc, schema=SCALE_SCHEMA):
    """Returns a list of bench_scale v1/v2/v3/v4 violations (empty = valid)."""
    v4 = schema == SCALE_SCHEMA_V4
    v3 = v4 or schema == SCALE_SCHEMA_V3
    v2 = v3 or schema == SCALE_SCHEMA_V2
    if v4:
        row_fields = SCALE_ROW_FIELDS_V4
    elif v3:
        row_fields = SCALE_ROW_FIELDS_V3
    elif v2:
        row_fields = SCALE_ROW_FIELDS_V2
    else:
        row_fields = SCALE_ROW_FIELDS_V1
    errors = []
    if doc.get("schema") != schema:
        errors.append(
            f"schema is {doc.get('schema')!r}, expected {schema!r}"
        )
    if doc.get("mode") not in ("full", "smoke"):
        errors.append(f"mode is {doc.get('mode')!r}")
    ctx = doc.get("context", {})
    for field in ("dim", "queries", "flip_rate", "seed"):
        if field not in ctx:
            errors.append(f"context.{field} missing")
    if ctx.get("simd_level") not in KNOWN_LEVELS:
        errors.append(f"context.simd_level is {ctx.get('simd_level')!r}")
    if ctx.get("simd_detected") not in KNOWN_LEVELS:
        errors.append(f"context.simd_detected is {ctx.get('simd_detected')!r}")
    sweep = doc.get("sweep") or []
    if not sweep:
        errors.append("no sweep rows recorded")
    prev_m = 0
    for row in sweep:
        missing = [f for f in row_fields if f not in row]
        if missing:
            errors.append(f"sweep m={row.get('m')}: missing fields {missing}")
            continue
        if row["m"] <= prev_m:
            errors.append(f"sweep m={row['m']}: rows not strictly ascending")
        prev_m = row["m"]
        if not 0.0 <= row["recall_at_1"] <= 1.0:
            errors.append(f"sweep m={row['m']}: recall_at_1 out of [0, 1]")
        if row["speedup"] <= 0:
            errors.append(f"sweep m={row['m']}: non-positive speedup")
        if not 1 <= row["nprobe"] <= row["clusters"]:
            errors.append(f"sweep m={row['m']}: nprobe outside [1, clusters]")
        if row["tiered_sim_ops"] > row["exact_sim_ops"]:
            errors.append(
                f"sweep m={row['m']}: tiered scans more rows than exact"
            )
        if v2:
            if row["build_seconds"] <= 0:
                errors.append(f"sweep m={row['m']}: non-positive build time")
            if row["snapshot_load_seconds"] <= 0:
                errors.append(
                    f"sweep m={row['m']}: non-positive snapshot load time"
                )
            # The exhaustive reference may be skipped (0) above the headline
            # M, but a measured reference must come with its speedup.
            if row["build_reference_seconds"] > 0 and row["build_speedup"] <= 0:
                errors.append(
                    f"sweep m={row['m']}: reference measured but no "
                    "build_speedup"
                )
        if v3:
            if not (1 <= row["adaptive_nprobe_min"]
                    <= row["adaptive_nprobe_max"] <= row["clusters"]):
                errors.append(
                    f"sweep m={row['m']}: adaptive bounds violate "
                    "1 <= min <= max <= clusters"
                )
            if not (row["adaptive_nprobe_min"] <= row["mean_probes"]
                    <= row["adaptive_nprobe_max"]):
                errors.append(
                    f"sweep m={row['m']}: mean_probes outside "
                    "[adaptive_nprobe_min, adaptive_nprobe_max]"
                )
            if not 0.0 <= row["adaptive_recall_at_1"] <= 1.0:
                errors.append(
                    f"sweep m={row['m']}: adaptive_recall_at_1 out of [0, 1]"
                )
        if v4:
            sweep_entries = row["shard_sweep"]
            if not isinstance(sweep_entries, list) or not sweep_entries:
                errors.append(f"sweep m={row['m']}: empty shard_sweep")
                sweep_entries = []
            prev_shards = 0
            for entry in sweep_entries:
                missing = [f for f in SHARD_ENTRY_FIELDS if f not in entry]
                if missing:
                    errors.append(
                        f"sweep m={row['m']}: shard_sweep entry missing "
                        f"fields {missing}"
                    )
                    continue
                if entry["shards"] <= prev_shards:
                    errors.append(
                        f"sweep m={row['m']}: shard_sweep counts not "
                        "strictly ascending"
                    )
                prev_shards = entry["shards"]
                if entry["sharded_us_per_query"] <= 0:
                    errors.append(
                        f"sweep m={row['m']} shards={entry['shards']}: "
                        "non-positive sharded_us_per_query"
                    )
                if entry["speedup"] <= 0:
                    errors.append(
                        f"sweep m={row['m']} shards={entry['shards']}: "
                        "non-positive speedup"
                    )
                if not 0.0 <= entry["recall_at_1"] <= 1.0:
                    errors.append(
                        f"sweep m={row['m']} shards={entry['shards']}: "
                        "recall_at_1 out of [0, 1]"
                    )
    head = doc.get("headline") or {}
    if sweep and all("m" in r for r in sweep):
        last = sweep[-1]
        mirror = ("m", "speedup", "recall_at_1")
        if v2:
            mirror += ("snapshot_load_seconds",)
        for field in mirror:
            if head.get(field) != last.get(field):
                errors.append(
                    f"headline.{field} does not mirror the largest-M row"
                )
        if v4:
            shard4 = next(
                (e for e in last.get("shard_sweep") or []
                 if e.get("shards") == SHARD_ACCEPTANCE_COUNT),
                None,
            )
            if shard4 is not None and head.get("shard_speedup") != shard4.get(
                    "speedup"):
                errors.append(
                    "headline.shard_speedup does not mirror the largest-M "
                    f"{SHARD_ACCEPTANCE_COUNT}-shard entry"
                )
    # Full-mode baselines carry the tracked acceptance bounds (ISSUE 5/6):
    # the M=262144 row must show >= 5x scan speedup at recall@1 >= 0.99 —
    # and, in v2, a >= 4x build speedup plus a sub-second snapshot load at
    # the largest M — so a regenerated BENCH_scale.json cannot silently
    # regress below them.
    if doc.get("mode") == "full":
        accept = next(
            (r for r in sweep if r.get("m") == 262144
             and not [f for f in row_fields if f not in r]),
            None,
        )
        if accept is None:
            errors.append("full-mode sweep lacks the M=262144 acceptance row")
        else:
            if accept["speedup"] < 5.0:
                errors.append(
                    f"acceptance row m=262144: speedup {accept['speedup']} "
                    "< 5.0"
                )
            if accept["recall_at_1"] < 0.99:
                errors.append(
                    f"acceptance row m=262144: recall_at_1 "
                    f"{accept['recall_at_1']} < 0.99"
                )
            if v2 and accept["build_speedup"] < MIN_BUILD_SPEEDUP:
                errors.append(
                    f"acceptance row m=262144: build_speedup "
                    f"{accept['build_speedup']} < {MIN_BUILD_SPEEDUP}"
                )
            if v3:
                if accept["adaptive_recall_at_1"] < MIN_ADAPTIVE_RECALL:
                    errors.append(
                        f"acceptance row m=262144: adaptive_recall_at_1 "
                        f"{accept['adaptive_recall_at_1']} < "
                        f"{MIN_ADAPTIVE_RECALL}"
                    )
                probe_bound = (
                    MAX_MEAN_PROBE_FRACTION * accept["clusters"] / 16.0
                )
                if accept["mean_probes"] > probe_bound:
                    errors.append(
                        f"acceptance row m=262144: mean_probes "
                        f"{accept['mean_probes']} > {probe_bound} "
                        f"(= {MAX_MEAN_PROBE_FRACTION} * clusters / 16)"
                    )
        if v4 and sweep:
            last = sweep[-1]
            shard4 = next(
                (e for e in last.get("shard_sweep") or []
                 if e.get("shards") == SHARD_ACCEPTANCE_COUNT),
                None,
            )
            if shard4 is None:
                errors.append(
                    f"largest-M row m={last.get('m')}: shard_sweep lacks "
                    f"the {SHARD_ACCEPTANCE_COUNT}-shard acceptance entry"
                )
            else:
                if shard4["speedup"] < MIN_SHARD_SPEEDUP:
                    errors.append(
                        f"largest-M row m={last.get('m')} shards="
                        f"{SHARD_ACCEPTANCE_COUNT}: speedup "
                        f"{shard4['speedup']} < {MIN_SHARD_SPEEDUP}"
                    )
                if shard4["recall_at_1"] < MIN_SHARD_RECALL:
                    errors.append(
                        f"largest-M row m={last.get('m')} shards="
                        f"{SHARD_ACCEPTANCE_COUNT}: recall_at_1 "
                        f"{shard4['recall_at_1']} < {MIN_SHARD_RECALL}"
                    )
        if v2 and sweep:
            last = sweep[-1]
            if last.get("snapshot_load_seconds", 0) >= MAX_SNAPSHOT_LOAD_SECONDS:
                errors.append(
                    f"largest-M row m={last.get('m')}: snapshot_load_seconds "
                    f"{last.get('snapshot_load_seconds')} >= "
                    f"{MAX_SNAPSHOT_LOAD_SECONDS}"
                )
    return errors


SERVICE_ROW_FIELDS = (
    "name", "seconds", "requests_per_second", "p50_us", "p99_us", "p999_us",
    "mean_batch", "hits_plus_coalesced",
)
SERVICE_OVERHEAD_FIELDS = (
    "baseline_rps", "sampled_rps", "ratio", "sample_every",
)
# Full-mode observability acceptance (ISSUE 9): the batch=64 configuration
# with 1-in-64 sampled tracing must keep at least this fraction of the
# tracing-off throughput (<= 3% overhead).
MIN_TRACE_OVERHEAD_RATIO = 0.97


def validate_service(doc, schema=SERVICE_SCHEMA):
    """Returns a list of bench_service v1 violations (empty = valid)."""
    errors = []
    if doc.get("schema") != schema:
        errors.append(f"schema is {doc.get('schema')!r}, expected {schema!r}")
    if doc.get("mode") not in ("full", "smoke"):
        errors.append(f"mode is {doc.get('mode')!r}")
    ctx = doc.get("context", {})
    for field in ("dim", "items", "producers", "requests", "window", "seed"):
        if field not in ctx:
            errors.append(f"context.{field} missing")
    if ctx.get("simd_level") not in KNOWN_LEVELS:
        errors.append(f"context.simd_level is {ctx.get('simd_level')!r}")
    rows = doc.get("rows") or []
    if not rows:
        errors.append("no rows recorded")
    names = set()
    for row in rows:
        missing = [f for f in SERVICE_ROW_FIELDS if f not in row]
        if missing:
            errors.append(f"row {row.get('name')!r}: missing fields {missing}")
            continue
        if row["name"] in names:
            errors.append(f"row {row['name']!r}: duplicate name")
        names.add(row["name"])
        if row["requests_per_second"] <= 0:
            errors.append(f"row {row['name']!r}: non-positive throughput")
        if not 0 <= row["p50_us"] <= row["p99_us"] <= row["p999_us"]:
            errors.append(
                f"row {row['name']!r}: quantiles violate p50 <= p99 <= p99.9"
            )
    for name in ("engine nobatch", "engine batch=64", "engine batch=64 traced"):
        if name not in names:
            errors.append(f"rows lack the {name!r} configuration")
    overhead = doc.get("overhead") or {}
    missing = [f for f in SERVICE_OVERHEAD_FIELDS if f not in overhead]
    if missing:
        errors.append(f"overhead block missing fields {missing}")
    elif overhead["baseline_rps"] <= 0 or overhead["sampled_rps"] <= 0:
        errors.append("overhead block has non-positive throughput")
    # The acceptance bound binds only committed full-mode baselines — smoke
    # runs are far too short for a stable throughput ratio.
    elif doc.get("mode") == "full" and (
            overhead["ratio"] < MIN_TRACE_OVERHEAD_RATIO):
        errors.append(
            f"overhead.ratio {overhead['ratio']} < {MIN_TRACE_OVERHEAD_RATIO}"
            f" (sampled tracing costs > "
            f"{round((1 - MIN_TRACE_OVERHEAD_RATIO) * 100)}% throughput)"
        )
    return errors


LATENCY_ROW_FIELDS = (
    "name", "multiplier", "offered_rps", "seconds", "sent", "results",
    "overloads", "errors", "timeouts", "goodput_rps", "p50_us", "p99_us",
    "p999_us",
)
LATENCY_CONTEXT_FIELDS = (
    "dim", "items", "requests_per_row", "saturation_rps", "hot_fraction",
    "admission_depth", "client_quota", "seed",
)
# Full-mode tail-latency acceptance (ISSUE 10): below saturation (the 0.5x
# row) the tail must stay bounded — p99 at most this multiple of p50 ...
MAX_TAIL_RATIO = 10.0
TAIL_ACCEPTANCE_MULTIPLIER = 0.5
# ... and at this overload multiple the excess must be shed by explicit
# kOverload rejects, never by timeouts.
OVERLOAD_ACCEPTANCE_MULTIPLIER = 4.0


def validate_latency(doc, schema=LATENCY_SCHEMA):
    """Returns a list of bench_latency v1 violations (empty = valid)."""
    errors = []
    if doc.get("schema") != schema:
        errors.append(f"schema is {doc.get('schema')!r}, expected {schema!r}")
    if doc.get("mode") not in ("full", "smoke"):
        errors.append(f"mode is {doc.get('mode')!r}")
    ctx = doc.get("context", {})
    for field in LATENCY_CONTEXT_FIELDS:
        if field not in ctx:
            errors.append(f"context.{field} missing")
    if ctx.get("simd_level") not in KNOWN_LEVELS:
        errors.append(f"context.simd_level is {ctx.get('simd_level')!r}")
    if ctx.get("saturation_rps", 0) <= 0:
        errors.append("context.saturation_rps is non-positive")
    rows = doc.get("rows") or []
    if not rows:
        errors.append("no rows recorded")
    prev_mult = 0.0
    by_mult = {}
    for row in rows:
        missing = [f for f in LATENCY_ROW_FIELDS if f not in row]
        if missing:
            errors.append(f"row {row.get('name')!r}: missing fields {missing}")
            continue
        name = row["name"]
        if row["multiplier"] <= prev_mult:
            errors.append(f"row {name!r}: multipliers not strictly ascending")
        prev_mult = row["multiplier"]
        by_mult[row["multiplier"]] = row
        accounted = (row["results"] + row["overloads"] + row["errors"]
                     + row["timeouts"])
        if accounted != row["sent"]:
            errors.append(
                f"row {name!r}: sent {row['sent']} != results+overloads+"
                f"errors+timeouts ({accounted})"
            )
        if row["results"] > 0:
            if not 0 < row["p50_us"] <= row["p99_us"] <= row["p999_us"]:
                errors.append(
                    f"row {name!r}: quantiles violate 0 < p50 <= p99 <= p99.9"
                )
            if row["goodput_rps"] <= 0:
                errors.append(f"row {name!r}: results but no goodput")
        if row["offered_rps"] <= 0:
            errors.append(f"row {name!r}: non-positive offered_rps")
    for mult in (TAIL_ACCEPTANCE_MULTIPLIER, OVERLOAD_ACCEPTANCE_MULTIPLIER):
        if mult not in by_mult:
            errors.append(f"rows lack the {mult}x load point")
    # The acceptance bounds bind only committed full-mode baselines — smoke
    # sweeps are far too short for stable quantiles.
    if doc.get("mode") == "full":
        tail = by_mult.get(TAIL_ACCEPTANCE_MULTIPLIER)
        if tail and tail.get("results"):
            if tail["p99_us"] > MAX_TAIL_RATIO * tail["p50_us"]:
                errors.append(
                    f"{TAIL_ACCEPTANCE_MULTIPLIER}x row: p99 "
                    f"{tail['p99_us']}us > {MAX_TAIL_RATIO} * p50 "
                    f"{tail['p50_us']}us (tail bound)"
                )
        elif tail:
            errors.append(
                f"{TAIL_ACCEPTANCE_MULTIPLIER}x row recorded no results"
            )
        over = by_mult.get(OVERLOAD_ACCEPTANCE_MULTIPLIER)
        if over is not None:
            if over["timeouts"] != 0:
                errors.append(
                    f"{OVERLOAD_ACCEPTANCE_MULTIPLIER}x row: "
                    f"{over['timeouts']} timeouts (overload must be shed by "
                    "explicit rejects)"
                )
            if over["overloads"] < 1:
                errors.append(
                    f"{OVERLOAD_ACCEPTANCE_MULTIPLIER}x row: no overload "
                    "rejects recorded"
                )
    return errors


def run_check(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") in (SCALE_SCHEMA, SCALE_SCHEMA_V2, SCALE_SCHEMA_V3,
                             SCALE_SCHEMA_V4):
        kind = doc["schema"]
        errors = validate_scale(doc, kind)
    elif doc.get("schema") == SERVICE_SCHEMA:
        kind = SERVICE_SCHEMA
        errors = validate_service(doc, kind)
    elif doc.get("schema") == LATENCY_SCHEMA:
        kind = LATENCY_SCHEMA
        errors = validate_latency(doc, kind)
    else:
        kind = SCHEMA_V2 if doc.get("schema") == SCHEMA_V2 else SCHEMA
        errors = validate(doc, kind)
    if errors:
        for e in errors:
            print(f"bench_json.py: {path}: {e}", file=sys.stderr)
        sys.exit(1)
    if kind == LATENCY_SCHEMA:
        rows = doc["rows"]
        tail = next(
            (r for r in rows
             if r.get("multiplier") == TAIL_ACCEPTANCE_MULTIPLIER), {})
        over = next(
            (r for r in rows
             if r.get("multiplier") == OVERLOAD_ACCEPTANCE_MULTIPLIER), {})
        print(
            f"{path}: schema {kind} OK ({len(rows)} rows, saturation "
            f"{doc['context']['saturation_rps']} req/s, 0.5x p50/p99 "
            f"{tail.get('p50_us')}/{tail.get('p99_us')}us, 4x rejects "
            f"{over.get('overloads')} timeouts {over.get('timeouts')}, "
            f"simd_level={doc['context']['simd_level']})"
        )
    elif kind == SERVICE_SCHEMA:
        overhead = doc["overhead"]
        print(
            f"{path}: schema {kind} OK ({len(doc['rows'])} rows, tracing "
            f"overhead ratio {overhead['ratio']} at 1-in-"
            f"{overhead['sample_every']}, "
            f"simd_level={doc['context']['simd_level']})"
        )
    elif kind in (SCALE_SCHEMA, SCALE_SCHEMA_V2, SCALE_SCHEMA_V3,
                  SCALE_SCHEMA_V4):
        head = doc["headline"]
        build = (
            f" build_speedup={head['build_speedup']}x"
            f" snapshot_load={head['snapshot_load_seconds']}s"
            if kind in (SCALE_SCHEMA_V2, SCALE_SCHEMA_V3, SCALE_SCHEMA_V4)
            else ""
        )
        adaptive = ""
        if kind in (SCALE_SCHEMA_V3, SCALE_SCHEMA_V4):
            last = doc["sweep"][-1]
            adaptive = (
                f" mean_probes={last['mean_probes']}"
                f" adaptive_recall@1={last['adaptive_recall_at_1']}"
            )
        if kind == SCALE_SCHEMA_V4:
            adaptive += f" shard_speedup={head['shard_speedup']}x"
        print(
            f"{path}: schema {kind} OK ({len(doc['sweep'])} rows, headline "
            f"m={head['m']} speedup={head['speedup']}x "
            f"recall@1={head['recall_at_1']}{build}{adaptive}, "
            f"simd_level={doc['context']['simd_level']})"
        )
    else:
        blocks = doc.get("block_speedup") or {}
        block = f", {len(blocks)} block speedups" if kind == SCHEMA else ""
        print(
            f"{path}: schema {kind} OK "
            f"({len(doc['benchmarks'])} rows, {len(doc['speedup'])} speedups"
            f"{block}, simd_level={doc['context']['simd_level']})"
        )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--raw", help="google-benchmark JSON file")
    ap.add_argument("--out", help="output BENCH_kernels.json")
    ap.add_argument("--mode", default="full", choices=["full", "smoke"])
    ap.add_argument(
        "--build-type",
        default=None,
        help="CMAKE_BUILD_TYPE of the benchmarked binary (provenance)",
    )
    ap.add_argument(
        "--check",
        metavar="FILE",
        help="validate FILE against its declared schema (bench_kernels.v2/"
        "v3 or bench_scale.v1/v2/v3) and exit (no conversion)",
    )
    args = ap.parse_args()

    if args.check:
        run_check(args.check)
        return

    if not args.raw or not args.out:
        ap.error("--raw and --out are required unless --check is given")

    with open(args.raw, encoding="utf-8") as f:
        raw = json.load(f)

    ctx = raw.get("context", {})
    dispatched = ctx.get("factorhd_simd_level")
    if dispatched not in KNOWN_LEVELS:
        sys.exit(
            "bench_json.py: raw context lacks factorhd_simd_level "
            "(bench_kernels too old for the v2 schema?)"
        )

    benchmarks = parse_benchmarks(raw, dispatched)
    if not benchmarks:
        sys.exit("bench_json.py: no BM_Scan* benchmarks in the raw output")

    doc = {
        "schema": SCHEMA,
        "mode": args.mode,
        "context": {
            "date": ctx.get("date"),
            "host_name": ctx.get("host_name"),
            "num_cpus": ctx.get("num_cpus"),
            "mhz_per_cpu": ctx.get("mhz_per_cpu"),
            "cpu_scaling_enabled": ctx.get("cpu_scaling_enabled"),
            # The benchmark *library*'s build type, not this repo's.
            "library_build_type": ctx.get("library_build_type"),
            # CMAKE_BUILD_TYPE of the benchmarked bench_kernels binary.
            "cmake_build_type": args.build_type,
            # SIMD tier the dispatched (kPacked/kAuto) rows executed at, and
            # the CPU's best tier (they differ only under FACTORHD_SIMD).
            "simd_level": dispatched,
            "simd_detected": ctx.get("factorhd_simd_detected"),
        },
        "benchmarks": benchmarks,
        "speedup": compute_speedups(benchmarks),
        "block_speedup": compute_block_speedups(benchmarks),
    }

    errors = validate(doc)
    if errors:
        for e in errors:
            print(f"bench_json.py: emitted doc invalid: {e}", file=sys.stderr)
        sys.exit(1)

    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
