"""Open-loop traffic against a ``repro serve`` process, and its checks.

A persisted tenant is prepared in-process with ``IncrementalJoin``
before any timing. ``python -m repro serve`` then runs in its own
process and the tenant is attached by ``path`` (a snapshot view,
promoted to a full session by the first write). One client connection
sends a seeded, fixed schedule: ops are due at fixed intervals whatever
the server does, and each is timed from when it was due.

After the run every answer is checked without the server: insert ids
and delete removals against the client's ledger, and range-query and
mini-join answers against a numpy brute-force mirror of the live set.
"""

from __future__ import annotations

import asyncio
import resource
import select
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from common import ROOT, median, peak_rss_mb, tail
from repro import IncrementalJoin, JoinSpec
from repro.errors import AdmissionError
from repro.serve import ServeClient
from repro.serve.client import RemoteError
from repro.serve.protocol import ProtocolError

TENANT = "bench"
READ_OPS = ("range_query",)
WRITE_OPS = ("insert", "delete")
OPS = ("range_query", "insert", "delete", "mini_join")
BLOCK = 100


#: Share of each op in the schedule, in ``OPS`` order.
MIX = (0.95, 0.02, 0.01, 0.02)
INSERT_BATCH = 50
DELETE_BATCH = 20
MINI_JOIN_BATCH = 16
#: The max-rate ladder sends range queries only (see ``serve_run``).
READS = (1.0, 0.0, 0.0, 0.0)
#: Requests per second of the main phase.
BASE_RATE = 25.0
#: Rates of the max-rate ladder, as multiples of ``BASE_RATE``.
LADDER = (8.0, 10.0, 12.0, 14.0, 16.0, 18.0)
#: Share of the run's seconds spent in the main phase; the ladder rungs
#: share the rest equally.
MAIN_SHARE = 0.7
#: ``latency_tail_ms`` limit a ladder rung must meet to pass.
TAIL_LIMIT_MS = 100.0
#: Generous: a request that misses it counts as an error.
DEADLINE_MS = 30_000.0
#: Brute-force checks of range-query answers per run (mini-joins are
#: all checked).
RANGE_CHECKS = 300
#: Cold starts whose median is ``setup_s`` (traced runs take one).
COLD_STARTS = 5


@dataclass(frozen=True)
class TrafficConfig:
    """The tenant's radius and compaction trigger."""

    eps: float
    delta_threshold: int


# ----------------------------------------------------------------------
# tenant and schedule
# ----------------------------------------------------------------------
def prepare_tenant(path: Path, points: np.ndarray, cfg: TrafficConfig) -> None:
    """Persist ``points`` as a compacted tenant; ids are ``0..n-1``."""
    spec = JoinSpec(
        epsilon=cfg.eps,
        persist_path=str(path),
        sync_mode="batch",
        delta_threshold=cfg.delta_threshold,
        kernel_backend="numpy",
    )
    join = IncrementalJoin(spec)
    try:
        join.insert(points)
        join.compact()
    finally:
        join.close()


class ScheduleBuilder:
    """Seeded op payloads; deletes draw base ids without replacement."""

    def __init__(self, points: np.ndarray, cfg: TrafficConfig, seed: int):
        self.points = points
        self.cfg = cfg
        self.rng = np.random.default_rng([seed, 7])
        self._delete_order = self.rng.permutation(len(points))
        self._deleted = 0

    def near_data(self, k: int, sigma: float) -> np.ndarray:
        """``k`` data points moved by Gaussian noise, kept in the cube."""
        rows = self.rng.integers(0, len(self.points), size=k)
        noise = self.rng.normal(0.0, sigma, size=(k, self.points.shape[1]))
        return np.clip(self.points[rows] + noise, 0.0, 1.0)

    def ops(self, count: int, mix=MIX) -> List[dict]:
        cfg = self.cfg
        # The mix is laid out in blocks of BLOCK ops holding each kind
        # its exact share, shuffled within the block, so every stretch
        # of the schedule carries the same load; only the order and the
        # payloads depend on the seed.
        block = np.repeat(np.arange(len(OPS)), np.rint(np.asarray(mix) * BLOCK).astype(int))
        blocks = -(-count // len(block))
        kinds = np.concatenate([self.rng.permutation(block) for _ in range(blocks)])[:count]
        # A schedule shorter than a block still holds every kind it mixes.
        wanted = set(np.flatnonzero(np.asarray(mix) > 0).tolist())
        missing = sorted(wanted - set(kinds.tolist()))
        kinds[1 : 1 + len(missing)] = missing[: max(0, count - 1)]
        out = []
        for kind in kinds:
            op = OPS[kind]
            if op == "range_query":
                data = self.near_data(1, cfg.eps / 4)[0]
                fields = {"point": data.tolist()}
            elif op == "insert":
                data = self.near_data(INSERT_BATCH, cfg.eps / 2)
                fields = {"points": data.tolist()}
            elif op == "delete":
                stop = self._deleted + DELETE_BATCH
                data = np.sort(self._delete_order[self._deleted:stop]).astype(np.int64)
                self._deleted = stop
                fields = {"ids": data.tolist()}
            else:
                data = self.near_data(MINI_JOIN_BATCH, cfg.eps / 4)
                fields = {"points": data.tolist()}
            out.append({"op": op, "data": data, "fields": fields})
        return out


# ----------------------------------------------------------------------
# server process
# ----------------------------------------------------------------------
class ServerProcess:
    """``python -m repro serve`` on a free loopback port."""

    def __init__(self, env: Dict[str, str], log_path: Path):
        self.env = env
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self._log = None

    def start(self, timeout: float = 60.0) -> "ServerProcess":
        self._log = open(self.log_path, "ab")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--kernel-backend", "numpy",
                # Overload is measured as latency, not as shed requests:
                # the ladder stops a rung itself once a backlog builds.
                "--max-pending", "1000000",
            ],
            env=self.env,
            cwd=str(ROOT),
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("serving on "):
            self.kill()
            raise RuntimeError(f"server did not start (got {line!r}); see {self.log_path}")
        self.port = int(line.split()[2].rsplit(":", 1)[1])
        return self

    async def stop(self, client: ServeClient) -> None:
        """Graceful shutdown through the protocol, then reap the process."""
        try:
            await client.shutdown()
            await client.close()
            await asyncio.get_running_loop().run_in_executor(None, self.proc.wait, 60)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if self.proc is not None and self.proc.stdout is not None:
            self.proc.stdout.close()
        if self._log is not None:
            self._log.close()
            self._log = None


async def cold_start(env, log_path: Path, tenant_path: Path):
    """Spawn a server and attach the tenant; returns seconds, server, client."""
    started = time.perf_counter()
    server = ServerProcess(env, log_path).start()
    try:
        client = await ServeClient.connect("127.0.0.1", server.port)
        response = await client.request(
            "attach", tenant=TENANT, path=str(tenant_path), sync_mode="batch"
        )
    except BaseException:
        server.kill()
        raise
    return time.perf_counter() - started, server, client, response


# ----------------------------------------------------------------------
# open loop
# ----------------------------------------------------------------------
async def _issue(client: ServeClient, op: dict, rec: dict) -> None:
    rec["sent"] = time.perf_counter()
    try:
        rec["response"] = await client.request(
            op["op"], tenant=TENANT, deadline_ms=DEADLINE_MS, **op["fields"]
        )
        rec["outcome"] = "ok"
    except AdmissionError:
        rec["outcome"] = "refused"
    except RemoteError as exc:
        rec["outcome"] = "deadline" if exc.code == "deadline" else "failed"
    except ProtocolError:
        rec["outcome"] = "failed"
    rec["recv"] = time.perf_counter()


async def run_phase(
    client: ServeClient,
    ops: List[dict],
    rate: float,
    phase: str,
    backlog_limit: Optional[int] = None,
) -> Dict[str, object]:
    """Send ``ops`` at ``rate`` per second; wait for every answer.

    With ``backlog_limit``, the phase stops sending once more requests
    than that are unanswered (a growing backlog) and reports itself
    aborted.
    """
    records: List[dict] = []
    tasks = []
    inflight = set()
    origin = time.perf_counter() + 0.01
    aborted = False
    for index, op in enumerate(ops):
        due = origin + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        if backlog_limit is not None and len(inflight) > backlog_limit:
            aborted = True
            break
        rec = {"op": op["op"], "phase": phase, "due": due, "index": index, "payload": op}
        task = asyncio.ensure_future(_issue(client, op, rec))
        inflight.add(task)
        task.add_done_callback(inflight.discard)
        tasks.append(task)
        records.append(rec)
    await asyncio.gather(*tasks)
    lat = [(r["recv"] - r["due"]) * 1e3 for r in records]
    return {
        "phase": phase,
        "rate": rate,
        "records": records,
        "aborted": aborted,
        "latency_ms": lat,
        "tail": tail(lat),
    }


def ladder_max_rate(rungs: List[dict], limit_ms: float) -> Dict[str, object]:
    """Highest rate meeting the tail limit, interpolated between rungs.

    ``rungs`` are in increasing rate.  A rung passes when it was not stopped for a growing backlog and its
    tail is within the limit.  Between the last passing rung and the
    first failing one the crossing is interpolated on log tail latency,
    so the figure moves smoothly instead of jumping a whole rung.  A
    stopped rung counts as at least twice the limit.
    """
    def tail_of(rung):
        value = max(rung["tail"]["value"], 1e-3)
        return max(value, 2 * limit_ms) if rung["aborted"] else value

    rates = [r["rate"] for r in rungs]
    tails = [tail_of(r) for r in rungs]
    for i, t_hi in enumerate(tails):
        if t_hi <= limit_ms:
            continue
        if i == 0:
            # Even the lowest rung misses: scale it down by the overshoot.
            return {"value": rates[0] * limit_ms / t_hi, "bracket": [0.0, rates[0]]}
        lo, hi, t_lo = rates[i - 1], rates[i], tails[i - 1]
        frac = float(np.log(limit_ms / t_lo) / np.log(t_hi / t_lo))
        return {"value": lo + frac * (hi - lo), "bracket": [lo, hi]}
    return {"value": rates[-1], "bracket": [rates[-1], rates[-1]], "censored": True}


# ----------------------------------------------------------------------
# answer checks
# ----------------------------------------------------------------------
def _within(query: np.ndarray, points: np.ndarray, eps: float) -> np.ndarray:
    diff = points - query
    return np.einsum("ij,ij->i", diff, diff) <= eps * eps


def check_answers(records: List[dict], base: np.ndarray, cfg: TrafficConfig) -> Dict[str, object]:
    """Check every answered request; returns counts and a few examples.

    A read is checked only when no write was in flight during it, so
    the live set it saw is exactly the base minus the deletes and plus
    the inserts answered before it was sent.
    """
    problems: List[str] = []
    wrong = set()
    n_base = len(base)
    ok = [r for r in records if r.get("outcome") == "ok"]
    writes = sorted((r for r in ok if r["op"] in WRITE_OPS), key=lambda r: r["recv"])
    # Ledger: inserted ids are new, dense, one per point; a delete
    # removes exactly the ids asked for (all live when chosen).
    seen_ids: List[np.ndarray] = []
    for rec in writes:
        data = rec["payload"]["data"]
        if rec["op"] == "insert":
            ids = np.asarray(rec["response"].get("ids", []), dtype=np.int64)
            if len(ids) != len(data) or (len(ids) and (ids.min() < n_base or np.any(np.diff(ids) != 1))):
                wrong.add(id(rec))
                problems.append(f"insert #{rec['index']} ({rec['phase']}) returned ids {ids[:5]}...")
            seen_ids.append(ids)
        else:
            removed = np.sort(np.asarray(rec["response"].get("removed", []), dtype=np.int64))
            if not np.array_equal(removed, data):
                wrong.add(id(rec))
                problems.append(f"delete #{rec['index']} ({rec['phase']}) removed {removed[:5]}...")
    if seen_ids:
        all_ids = np.sort(np.concatenate(seen_ids))
        if not np.array_equal(all_ids, np.arange(n_base, n_base + len(all_ids))):
            problems.append("inserted ids are not dense and unique across the run")
            wrong.add("ledger")
    # Mirror of the live set, advanced write by write in answer order.
    write_sent = np.array([w["sent"] for w in writes])
    write_recv = np.array([w["recv"] for w in writes])
    reads = [r for r in ok if r["op"] in ("range_query", "mini_join")]
    checkable = []
    for rec in reads:
        overlap = np.any((write_sent < rec["recv"]) & (write_recv > rec["sent"])) if len(writes) else False
        if not overlap:
            checkable.append(rec)
    ranges = [r for r in checkable if r["op"] == "range_query"]
    stride = max(1, len(ranges) // RANGE_CHECKS)
    chosen = set(id(r) for r in ranges[::stride]) | set(id(r) for r in checkable if r["op"] == "mini_join")
    to_check = sorted((r for r in checkable if id(r) in chosen), key=lambda r: r["sent"])
    alive = np.ones(n_base, dtype=bool)
    ins_points: List[np.ndarray] = []
    ins_ids: List[np.ndarray] = []
    applied = 0
    for rec in to_check:
        while applied < len(writes) and writes[applied]["recv"] < rec["sent"]:
            w = writes[applied]
            if w["op"] == "insert":
                ins_points.append(w["payload"]["data"])
                ins_ids.append(np.asarray(w["response"]["ids"], dtype=np.int64))
            else:
                alive[w["payload"]["data"]] = False
            applied += 1
        live_pts = np.concatenate([base[alive]] + ins_points) if ins_points else base[alive]
        live_ids = np.concatenate([np.flatnonzero(alive)] + ins_ids) if ins_ids else np.flatnonzero(alive)
        if rec["op"] == "range_query":
            expect = np.sort(live_ids[_within(rec["payload"]["data"], live_pts, cfg.eps)])
            got = np.asarray(rec["response"]["ids"], dtype=np.int64)
        else:
            rows = [
                np.column_stack([np.full(m.sum(), i), np.sort(live_ids[m])])
                for i, q in enumerate(rec["payload"]["data"])
                for m in [_within(q, live_pts, cfg.eps)]
            ]
            expect = np.concatenate(rows).astype(np.int64) if rows else np.empty((0, 2), np.int64)
            got = np.asarray(rec["response"]["pairs"], dtype=np.int64).reshape(-1, 2)
        if not np.array_equal(got, expect):
            wrong.add(id(rec))
            problems.append(
                f"{rec['op']} #{rec['index']} ({rec['phase']}): {len(got)} answers, expected {len(expect)}"
            )
    return {
        "wrong": len(wrong),
        "checked_reads": len(to_check),
        "checkable_reads": len(checkable),
        "reads": len(reads),
        "problems": problems[:10],
    }


def outcome_counts(records: List[dict]) -> Dict[str, Dict[str, int]]:
    out = {op: {"sent": 0, "succeeded": 0, "failed": 0, "refused": 0} for op in OPS}
    for rec in records:
        row = out[rec["op"]]
        row["sent"] += 1
        outcome = rec.get("outcome")
        if outcome == "ok":
            row["succeeded"] += 1
        elif outcome == "refused":
            row["refused"] += 1
        else:
            row["failed"] += 1
    return out


def p50_ms(records: List[dict], ops: Sequence[str]) -> float:
    return median([(r["recv"] - r["due"]) * 1e3 for r in records if r["op"] in ops])


# ----------------------------------------------------------------------
# one full run
# ----------------------------------------------------------------------
async def serve_run(
    tenant_path: Path,
    base: np.ndarray,
    cfg: TrafficConfig,
    builder: ScheduleBuilder,
    seconds: float,
    env: Dict[str, str],
    log_path: Path,
    traced: bool = False,
) -> Dict[str, object]:
    """Cold-start the server, drive the main phase and the ladder, check.

    ``tenant_path`` holds ``base`` prepared by :func:`prepare_tenant`.
    A traced run starts the server once, runs only the main phase and
    polls the server's queue depth through the ``stats`` op during
    alternate seconds of it, so the requests due in those seconds carry
    the tracing cost and the others do not.
    """
    ladder = () if traced else LADDER
    main_seconds = seconds * (1.0 if traced else MAIN_SHARE)
    main_ops = builder.ops(int(round(main_seconds * BASE_RATE)))
    rung_seconds = seconds * (1.0 - MAIN_SHARE) / len(LADDER)
    rung_ops = [builder.ops(int(round(rung_seconds * BASE_RATE * m)), READS) for m in ladder]

    setup = []
    cold_starts = 1 if traced else COLD_STARTS
    for i in range(cold_starts):
        seconds_i, server, client, attach = await cold_start(env, log_path, tenant_path)
        setup.append(seconds_i)
        if i < cold_starts - 1:
            await server.stop(client)
    depth_samples: List[int] = []
    try:
        origin = time.perf_counter()
        poller = None
        if traced:
            poller = asyncio.ensure_future(_poll_queue_depth(client, depth_samples, origin))
        main = await run_phase(client, main_ops, BASE_RATE, "main")
        if poller is not None:
            poller.cancel()
            await asyncio.gather(poller, return_exceptions=True)
        server_stats = await client.stats(TENANT)
    finally:
        await server.stop(client)
    # Taken before the ladder's server exits, so it covers the main
    # phase's server (and the smaller cold-start servers) only.
    peak_rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    rungs = []
    if ladder:
        # A fresh server recovers the tenant as the main phase left it
        # and serves range queries only: the read capacity, without the
        # write and compaction stalls the main phase already measures.
        _, server, client, _ = await cold_start(env, log_path, tenant_path)
        try:
            for mult, ops in zip(ladder, rung_ops):
                rate = BASE_RATE * mult
                # One second of unanswered arrivals means the backlog grows.
                rung = await run_phase(client, ops, rate, f"rate-{rate:g}", backlog_limit=int(rate))
                rungs.append(rung)
                if rung["aborted"] or rung["tail"]["value"] > TAIL_LIMIT_MS:
                    break
        finally:
            await server.stop(client)
    records = main["records"] + [rec for rung in rungs for rec in rung["records"]]
    for rec in main["records"]:
        rec["traced"] = traced and int(rec["due"] - origin) % 2 == 0
    checks = check_answers(records, base, cfg)
    counts = outcome_counts(records)
    errors = sum(c["failed"] + c["refused"] for c in counts.values()) + checks["wrong"]
    return {
        "setup_samples": setup,
        "attach": attach,
        "rungs": [{k: v for k, v in r.items() if k != "records"} for r in rungs],
        "main_records": main["records"],
        "main_ops": main_ops,
        "checks": checks,
        "counts": counts,
        "attempted": len(records),
        "errors": errors,
        "server_stats": server_stats,
        "queue_depth_samples": depth_samples,
        "peak_rss_mb": peak_rss,
        "max_rate": ladder_max_rate(rungs, TAIL_LIMIT_MS) if ladder else None,
        "late_ms_max": max((r["sent"] - r["due"]) * 1e3 for r in records),
    }


async def _poll_queue_depth(client: ServeClient, out: List[int], origin: float,
                            every: float = 0.25) -> None:
    """Sample the admission queue depth (the server keeps no maximum)
    during even seconds after ``origin``."""
    while True:
        await asyncio.sleep(every)
        if int(time.perf_counter() - origin) % 2 == 0:
            stats = await client.stats()
            out.append(int(stats["server"].get("queue_depth", 0)))
