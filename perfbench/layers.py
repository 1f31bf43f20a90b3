"""Per-layer probes of the serving stack, run in-process on a copy of
the prepared tenant: ``storage`` (view open, recovery, promotion,
compaction), ``core.incremental`` + ``serve.sessions`` (the seeded op
sequence replayed through ``TenantSession``) and ``serve.protocol``
(``encode_frame`` / ``decode_frame`` on the requests that were sent).
The ``serve`` layer's own figures are read from the server's ``stats``
op by :func:`server_layer_metrics`.
"""

from __future__ import annotations

import asyncio
import os
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from common import Recorder, median
from repro.core import IncrementalJoin
from repro.serve.protocol import decode_frame, encode_frame
from repro.serve.sessions import TenantSession
from repro.storage.snapshot import list_snapshots
from repro.storage.view import SnapshotView
from repro.storage.wal import WAL_FILENAME

STORAGE_REPS = 5


def _open(path: Path) -> IncrementalJoin:
    return IncrementalJoin.open(str(path), sync_mode="batch")


def storage_and_session_probe(path: Path, ops: List[dict], rec: Recorder) -> Dict[str, float]:
    """Time the storage entry points, then replay ``ops`` through a
    promoted ``TenantSession`` (closed loop, one op at a time)."""
    view_ms, recover_ms, promote_ms = [], [], []
    for _ in range(STORAGE_REPS):
        with rec.span("storage.view_open") as span:
            view = SnapshotView.open(str(path))
        view.close()
        view_ms.append(span["end"] - span["start"])
        with rec.span("storage.recover") as span:
            join = _open(path)
        join.close()
        recover_ms.append(span["end"] - span["start"])
    for _ in range(STORAGE_REPS):
        session = TenantSession("probe", view=SnapshotView.open(str(path)), opener=lambda: _open(path))
        with rec.span("storage.promote") as span:
            asyncio.run(session.materialize())
        promote_ms.append(span["end"] - span["start"])
        session.close()

    session = TenantSession("probe", view=SnapshotView.open(str(path)), opener=lambda: _open(path))
    join = asyncio.run(session.materialize())
    wal = path / WAL_FILENAME
    compactions_before = join.stats.compactions
    times: Dict[str, List[float]] = {"range_query": [], "insert": [], "delete": [], "mini_join": []}
    delta_max = 0
    wal_bytes = user_bytes = 0
    for index, op in enumerate(ops):
        kind, data = op["op"], op["data"]
        size_before = wal.stat().st_size
        compactions = join.stats.compactions
        with rec.span(f"session.{kind}", trace_id=f"replay-{index}") as span:
            if kind == "range_query":
                session.range_query(data)
            elif kind == "insert":
                session.insert(data)
            elif kind == "delete":
                session.delete(data)
            else:
                session.mini_join(data)
        times[kind].append(span["end"] - span["start"])
        delta_max = max(delta_max, session.delta_size)
        if kind in ("insert", "delete") and join.stats.compactions == compactions:
            # A compaction resets the log, hiding this op's frame; only
            # ops that did not compact are counted.
            wal_bytes += wal.stat().st_size - size_before
            user_bytes += data.nbytes
    compactions = join.stats.compactions - compactions_before
    compact_ms = []
    rng = np.random.default_rng(0)
    live = join.live_points()
    for _ in range(3):
        batch = np.clip(live[rng.integers(0, len(live), 8)] + 1e-3, 0.0, 1.0)
        join.insert(batch)
        with rec.span("storage.compact") as span:
            join.compact()
        compact_ms.append(span["end"] - span["start"])
    snapshots = list_snapshots(str(path))
    snapshot_bytes = os.path.getsize(snapshots[-1][1]) if snapshots else 0
    session.close()
    return {
        "session.query_ms": median(times["range_query"]) * 1e3,
        "session.insert_ms": median(times["insert"]) * 1e3,
        "session.delete_ms": median(times["delete"]) * 1e3,
        "session.mini_join_ms": median(times["mini_join"]) * 1e3,
        "session.compactions": float(compactions),
        "session.delta_size_max": float(delta_max),
        "storage.view_open_ms": median(view_ms) * 1e3,
        "storage.recover_ms": median(recover_ms) * 1e3,
        "storage.promote_ms": median(promote_ms) * 1e3,
        "storage.compact_ms": median(compact_ms) * 1e3,
        "storage.snapshot_bytes": float(snapshot_bytes),
        "storage.wal_bytes_per_user_byte": wal_bytes / max(1, user_bytes),
    }


def protocol_probe(ops: List[dict], tenant: str) -> Dict[str, float]:
    """Codec cost of the request frames the client sent."""
    encode_s, decode_s, sizes = [], [], []
    for index, op in enumerate(ops):
        message = {"op": op["op"], "id": index, "tenant": tenant, **op["fields"]}
        started = time.perf_counter()
        frame = encode_frame(message)
        encode_s.append(time.perf_counter() - started)
        started = time.perf_counter()
        decode_frame(frame[4:])
        decode_s.append(time.perf_counter() - started)
        sizes.append(len(frame))
    return {
        "protocol.encode_us": median(encode_s) * 1e6,
        "protocol.decode_us": median(decode_s) * 1e6,
        "protocol.bytes_per_request": float(np.mean(sizes)),
    }


def server_layer_metrics(run: Dict[str, object]) -> Dict[str, float]:
    """``serve`` figures from the ``stats`` op taken after the main phase."""
    server = run["server_stats"]["server"]
    records = run["main_records"]
    server_ms = server["latency_p50"] * 1e3
    client_ms = median([(r["recv"] - r["sent"]) * 1e3 for r in records])
    width = server.get("serve.coalesce_width", {})
    shed = server.get("serve.shed", {}).get("value", 0)
    return {
        "serve.server_ms_p50": server_ms,
        "serve.outside_ms_p50": client_ms - server_ms,
        "serve.coalesce_width_mean": float(width.get("mean", 1.0)),
        "serve.queue_depth_max": float(max(run["queue_depth_samples"], default=0)),
        "serve.shed": float(shed),
    }
