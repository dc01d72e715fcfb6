#!/usr/bin/env python
"""Load-test the sweep daemon: concurrent clients, mixed hot/cold requests.

Replays thousands of trial requests from many concurrent client threads
against a running (or ``--boot``-spawned) daemon and then *audits* the
run against the service's own contract:

* **zero failed requests** — every reply is a 200 with a digest;
* **exactly one execution per unique uncached fingerprint** — the
  server's ``/stats`` counters must show ``executed == unique configs``
  no matter how many clients raced on each config (the scheduler's
  request coalescing and the cache absorb the rest);
* **cache hit-rate at least the arithmetic floor** — with R requests
  over U unique configs, ``(cache_hits + singleflight_hits) / R`` must
  be exactly ``(R - U) / R``;
* **digest coherence** — every reply for one fingerprint carries the
  same event digest.

The request mix is deterministic (seeded shuffle per client) so a run
is reproducible; priorities are mixed to exercise the queue ordering.

Usage::

    python scripts/load_test.py --boot            # spawn daemon, replay, audit
    python scripts/load_test.py --boot --smoke    # the CI gate (fast configs)
    python scripts/load_test.py --url http://127.0.0.1:8642   # extant daemon

Exit status: 0 when every audit passes, 1 otherwise.
"""

import argparse
import collections
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.service.client import ServiceClient  # noqa: E402
from repro.service.protocol import ServiceError  # noqa: E402


def build_universe(unique, smoke):
    """The distinct configs of the replay (each one cache fingerprint)."""
    configs = []
    iterations = 2 if smoke else 3
    compute = 1e-4 if smoke else 5e-4
    sizes = [64, 128, 256, 512, 1024, 4096]
    counts = [1, 2, 4, 8]
    for i in range(unique):
        configs.append({
            "message_bytes": sizes[i % len(sizes)],
            "partitions": counts[(i // len(sizes)) % len(counts)],
            "compute_seconds": compute,
            "iterations": iterations,
            "warmup": 0,
            "seed": i,  # the seed rides the fingerprint: i varies the cell
        })
    return configs


def build_schedule(universe, requests, clients, seed=20220822):
    """Per-client request lists: every config hit by several clients."""
    per_client = requests // clients
    schedules = []
    for c in range(clients):
        rng = random.Random(seed + c)
        picks = [universe[rng.randrange(len(universe))]
                 for _ in range(per_client)]
        # Guarantee coverage: client c seeds the universe slice it owns,
        # so every unique config is requested at least once overall.
        owned = range(c, len(universe), clients)
        for slot, i in enumerate(owned):
            picks[slot % per_client] = universe[i]
        schedules.append(picks)
    return schedules


class ClientWorker(threading.Thread):
    """One synchronous client replaying its schedule."""

    def __init__(self, url, name, schedule, timeout):
        super().__init__(name=name, daemon=True)
        self.client = ServiceClient(url, client_id=name, timeout=timeout)
        self.schedule = schedule
        self.ok = 0
        self.errors = []
        self.digests = collections.defaultdict(set)

    def run(self):
        with self.client:
            for i, config in enumerate(self.schedule):
                try:
                    payload = self.client.trial(config, priority=i % 3)
                except ServiceError as exc:
                    self.errors.append(
                        f"{config}: {exc.status} {exc.reason}")
                    continue
                self.ok += 1
                self.digests[payload["fingerprint"]].add(
                    payload["event_digest"])


def boot_daemon(jobs, cache_dir, quota, verbose):
    """Spawn ``repro serve --port 0`` and wait for it to answer."""
    command = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--jobs", str(jobs), "--cache-dir", str(cache_dir),
               "--quota", str(quota)]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        pathlib.Path(__file__).resolve().parent.parent / "src")
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env)
    line = process.stdout.readline().strip()
    if "http://" not in line:
        process.terminate()
        raise SystemExit(f"daemon failed to boot: {line!r}")
    url = line.split()[2]
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(url + "/healthz", timeout=2.0):
                break
        except OSError:
            time.sleep(0.05)
    else:
        process.terminate()
        raise SystemExit("daemon never answered /healthz")
    if verbose:
        print(f"booted daemon at {url} (pid {process.pid})")
    return process, url


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="replay a mixed hot/cold request load and audit the "
                    "daemon's single-flight + cache accounting")
    parser.add_argument("--url", default=None,
                        help="daemon to test (default: --boot one)")
    parser.add_argument("--boot", action="store_true",
                        help="spawn a fresh daemon (ephemeral port, "
                             "fresh cache) for the duration of the run")
    parser.add_argument("--requests", type=int, default=5000,
                        help="total requests across all clients")
    parser.add_argument("--clients", type=int, default=16,
                        help="concurrent client threads")
    parser.add_argument("--unique", type=int, default=24,
                        help="distinct configs (unique fingerprints)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="daemon worker processes (with --boot)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI shape: 2000 requests, 8 clients, "
                             "fastest configs")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="per-request client timeout")
    parser.add_argument("--json", action="store_true",
                        help="emit the audit as JSON on stdout")
    args = parser.parse_args(argv)

    if args.smoke:
        args.requests = min(args.requests, 2000)
        args.clients = min(args.clients, 8)
        args.unique = min(args.unique, 16)
    if args.clients < 1 or args.requests < args.clients:
        parser.error("need at least one request per client")

    process = None
    cache_dir = None
    if args.url is None or args.boot:
        cache_dir = tempfile.mkdtemp(prefix="repro-load-cache-")
        process, args.url = boot_daemon(args.jobs, cache_dir,
                                        quota=max(16, args.clients),
                                        verbose=not args.json)
    try:
        return run_audit(args)
    finally:
        if process is not None:
            process.terminate()
            process.wait(timeout=10.0)


def run_audit(args):
    universe = build_universe(args.unique, args.smoke)
    schedules = build_schedule(universe, args.requests, args.clients)
    total = sum(len(s) for s in schedules)

    # Stats are daemon-lifetime counters; snapshot before the replay so
    # the audit sees only this run's deltas (a pre-warmed daemon still
    # audits correctly — its cache hits just replace executions).
    audit_client = ServiceClient(args.url, client_id="audit")
    before = audit_client.stats()["scheduler"]

    t0 = time.monotonic()
    workers = [ClientWorker(args.url, f"load-{i}", schedule, args.timeout)
               for i, schedule in enumerate(schedules)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    elapsed = time.monotonic() - t0

    ok = sum(w.ok for w in workers)
    errors = [e for w in workers for e in w.errors]
    digests = collections.defaultdict(set)
    for worker in workers:
        for fingerprint, seen in worker.digests.items():
            digests[fingerprint].update(seen)
    incoherent = {fp: sorted(d) for fp, d in digests.items() if len(d) > 1}

    after = audit_client.stats()["scheduler"]
    audit_client.close()
    scheduler = {name: after[name] - before[name] for name in after}
    shared = scheduler["cache_hits"] + scheduler["singleflight_hits"]
    hit_rate = shared / total if total else 0.0
    # Every request beyond the first touch of each fingerprint must have
    # been answered without executing.
    expected_rate = (total - len(universe)) / total if total else 0.0

    audit = {
        "requests": total,
        "clients": args.clients,
        "unique_configs": len(universe),
        "elapsed_seconds": round(elapsed, 3),
        "throughput_rps": round(ok / elapsed, 1) if elapsed else 0.0,
        "ok": ok,
        "failed": len(errors),
        "executed": scheduler["executed"],
        "cache_hits": scheduler["cache_hits"],
        "singleflight_hits": scheduler["singleflight_hits"],
        "hit_rate": round(hit_rate, 6),
        "expected_hit_rate": round(expected_rate, 6),
        "incoherent_digests": len(incoherent),
    }
    # Together these pin "exactly one execution per unique uncached
    # fingerprint": at most one execution per unique config, and every
    # request beyond the first touch answered from the shared store (on
    # a fresh --boot daemon that forces executed == unique exactly).
    checks = {
        "zero_failures": len(errors) == 0 and ok == total,
        "at_most_one_execution_per_fingerprint":
            scheduler["executed"] <= len(universe),
        "hit_rate_at_floor": shared >= total - len(universe),
        "digest_coherence": not incoherent,
    }
    audit["checks"] = checks
    passed = all(checks.values())

    if args.json:
        print(json.dumps(audit, indent=2))
    else:
        print(f"load test: {total} requests / {args.clients} clients / "
              f"{len(universe)} unique configs in {elapsed:.2f}s "
              f"({audit['throughput_rps']} req/s)")
        print(f"  executed {scheduler['executed']}, "
              f"cache hits {scheduler['cache_hits']}, "
              f"single-flight hits {scheduler['singleflight_hits']} "
              f"(hit rate {hit_rate:.4f}, floor {expected_rate:.4f})")
        for name, good in checks.items():
            print(f"  [{'PASS' if good else 'FAIL'}] {name}")
        for error in errors[:5]:
            print(f"  error: {error}")
        if incoherent:
            print(f"  incoherent: {incoherent}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
