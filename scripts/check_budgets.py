#!/usr/bin/env python3
"""CI budget check: every counter, noise and scale-out gate in one pass.

The gates and their values live in scripts/budgets.json next to this script,
one section per gate with its rationale:

  ntt        forward- and inverse-NTT ceilings per transcipher block, plus
             identical counts across kernel backends (--ntt-invariance)
  key_bytes  ceiling on the key-switching key bytes a block reads
  alloc      zero pool misses in the warmed-up serving path, and ceilings on
             whole-poly copy traffic
  noise      measured budget inside [band_low, band_high], and the tracked
             bound a sound lower estimate (predicted <= measured + tolerance)
  occupancy  cross-tenant batch occupancy and the packing speedup floors
  shard      2-shard multi-process scale-out floor (on hosts with the cores)

Counter gates are deterministic for a fixed circuit shape, so a breach is a
real regression, not runner noise.

Usage:
  check_budgets.py [--hhe BENCH_hhe.json] [--service BENCH_service.json]
                   [--param-search BENCH_param_search.json]
                   [--ntt-invariance OTHER_BENCH_hhe.json ...]

Each gate runs over the files it reads that were given; at least one file
must be. Exits 1 if any gate fails.
"""

import argparse
import json
import pathlib
import sys


class Report:
    def __init__(self):
        self.failures = []

    def check(self, ok: bool, line: str, failure: str):
        print(f"{line} {'OK' if ok else 'FAILED'}")
        if not ok:
            self.failures.append(failure)

    def fail(self, failure: str):
        print(failure)
        self.failures.append(failure)


def records(doc: dict) -> dict:
    return {b["name"]: b for b in doc.get("benchmarks", [])}


def check_ceilings(rep, hhe, path, field, limits):
    """Every named BENCH_hhe.json record has `field` <= its limit."""
    by_name = records(hhe)
    for name, limit in limits.items():
        got = by_name.get(name, {}).get(field)
        if got is None:
            rep.fail(f"{name}: {field} missing from {path}")
            continue
        rep.check(got <= limit, f"{name}: {field}={got} (ceiling {limit})",
                  f"{name}: {field}={got} exceeds ceiling {limit}")


def gate_ntt(rep, cfg, files):
    hhe_path, hhe = files["hhe"]
    check_ceilings(rep, hhe, hhe_path, "ntt_forward", cfg["ntt_forward_max"])
    check_ceilings(rep, hhe, hhe_path, "ntt_inverse", cfg["ntt_inverse_max"])
    # Same circuit, different kernel backend, same NTT counts: a divergence
    # means a backend changed evaluation strategy, not just arithmetic.
    for other_path, other in files.get("ntt_invariance", []):
        theirs = records(other)
        backend = other.get("kernel_backend", "?")
        for name, record in records(hhe).items():
            for field in ("ntt_forward", "ntt_inverse"):
                mine = record.get(field)
                got = theirs.get(name, {}).get(field)
                rep.check(got == mine,
                          f"{name}: {field}={got} in {other_path} "
                          f"(backend {backend}) vs {mine} in {hhe_path}",
                          f"{name}: {field}={got} in {other_path} "
                          f"(backend {backend}) != {mine} in {hhe_path}")


def gate_key_bytes(rep, cfg, files):
    hhe_path, hhe = files["hhe"]
    check_ceilings(rep, hhe, hhe_path, "key_bytes_read",
                   cfg["key_bytes_read_max"])


def gate_alloc(rep, cfg, files):
    if "hhe" in files:
        hhe_path, hhe = files["hhe"]
        by_name = records(hhe)
        for name in cfg["pool_misses_must_be_zero"]:
            got = by_name.get(name, {}).get("pool_misses")
            if got is None:
                rep.fail(f"{name}: pool_misses missing from {hhe_path}")
                continue
            rep.check(got == 0, f"{name}: pool_misses={got} (must be 0)",
                      f"{name}: {got} pool misses in a warmed-up block "
                      "(steady state must be allocation-free)")
        check_ceilings(rep, hhe, hhe_path, "bytes_copied",
                       cfg["bytes_copied_max"])
    if "service" in files:
        service_path, service = files["service"]
        budget = cfg["service_sweep"]
        sweep = service.get("sweep", [])
        if not sweep:
            rep.fail(f"{service_path}: no sweep points")
            return
        for point in sweep:
            clients, misses = point.get("clients"), point.get("pool_misses")
            rep.check(not budget["pool_misses_must_be_zero"] or misses == 0,
                      f"service sweep @ {clients} clients: "
                      f"pool_misses={misses} (must be 0)",
                      f"service sweep @ {clients} clients: {misses} pool "
                      "misses after warm-up")
        # The ceiling is set at the widest wave; every point, the widest
        # included, must stay under it.
        limit = budget["bytes_copied_max_at_max_clients"]
        for point in sweep:
            clients, got = point.get("clients"), point.get("bytes_copied")
            if got is None:
                rep.fail(f"service sweep @ {clients} clients: "
                         f"bytes_copied missing from {service_path}")
                continue
            rep.check(got <= limit,
                      f"service sweep @ {clients} clients: "
                      f"bytes_copied={got} (ceiling {limit})",
                      f"service sweep @ {clients} clients: "
                      f"bytes_copied={got} exceeds ceiling {limit}")


def noise_records(doc: dict):
    for b in doc.get("benchmarks", []):
        if "noise_budget_bits" in b:
            yield (b.get("name", "?"), b["noise_budget_bits"],
                   b.get("predicted_budget_bits"))
    for p in doc.get("sweep", []):
        if "min_noise_budget_bits" in p:
            yield (f"sweep@{p.get('clients', '?')}_clients",
                   p["min_noise_budget_bits"], p.get("predicted_budget_bits"))


def gate_noise(rep, cfg, files):
    lo, hi = cfg["band_low"], cfg["band_high"]
    tol = cfg["soundness_tolerance_bits"]
    checked = 0
    for key in ("hhe", "service", "param_search"):
        if key not in files:
            continue
        path, doc = files[key]
        for name, measured, predicted in noise_records(doc):
            checked += 1
            problems = []
            if measured < lo:
                problems.append(f"measured {measured} < band_low {lo}")
            if measured > hi:
                problems.append(
                    f"measured {measured} > band_high {hi} (surplus modulus "
                    "— did the search or the output trim regress?)")
            if predicted is not None and predicted > measured + tol:
                problems.append(
                    f"predicted {predicted} > measured {measured} + {tol} "
                    "(tracked bound is not a sound lower estimate)")
            print(f"{path}:{name}: measured={measured} predicted={predicted} "
                  f"[{lo}, {hi}] {'; '.join(problems) or 'OK'}")
            rep.failures.extend(f"{path}:{name}: {p}" for p in problems)
    if checked == 0:
        rep.fail("no noise-budget records found in the given files")


def gate_occupancy(rep, cfg, files):
    path, service = files["service"]
    by_clients = {str(p["clients"]): p for p in service.get("sweep", [])}
    for clients, floor in cfg["occupancy_min_by_clients"].items():
        got = by_clients.get(clients, {}).get("avg_batch_occupancy")
        if got is None:
            rep.fail(f"{clients} clients: occupancy missing from {path}")
            continue
        rep.check(got >= floor,
                  f"{clients} clients: avg_batch_occupancy={got} "
                  f"(floor {floor})",
                  f"{clients} clients: occupancy {got} below floor {floor}")
    floor = cfg["packed_vs_unpacked_speedup_min"]
    got = service.get("packed_vs_unpacked_speedup")
    if got is None:
        rep.fail(f"packed_vs_unpacked_speedup: missing from {path}")
    else:
        rep.check(got >= floor,
                  f"packed_vs_unpacked_speedup={got} (floor {floor})",
                  f"packed_vs_unpacked_speedup {got} below floor {floor}")


def gate_shard(rep, cfg, files):
    path, service = files["service"]
    mp = service.get("multiprocess")
    if mp is None:
        rep.fail(f"no 'multiprocess' section in {path}")
        return
    if not mp.get("ok", False):
        rep.fail("the multi-process sweep itself reported failure")
    sweep = {p["shards"]: p for p in mp.get("sweep", [])}
    for shards in (1, 2):
        point = sweep.get(shards)
        if point is None:
            rep.fail(f"missing the {shards}-shard sweep point")
            continue
        rep.check(point["requests_ok"] == point["clients"],
                  f"{shards} shard(s): {point['blocks_per_s']:.2f} blocks/s, "
                  f"{point['requests_ok']}/{point['clients']} requests ok",
                  f"{shards}-shard point: {point['requests_ok']} of "
                  f"{point['clients']} requests ok (all must succeed)")
    speedup = mp.get("speedup_2_shards")
    floor, min_cores = cfg["min_speedup_2_shards"], cfg["min_cores_to_enforce"]
    host_cores = mp.get("host_cores", 0)
    if speedup is None:
        rep.fail("missing speedup_2_shards")
    elif host_cores < min_cores:
        print(f"speedup_2_shards={speedup:.2f}x on a {host_cores}-core host: "
              f"floor {floor}x NOT enforced (needs >= {min_cores} cores — "
              "two shard processes would just timeshare one CPU)")
    else:
        rep.check(speedup >= floor,
                  f"speedup_2_shards={speedup:.2f}x (floor {floor}x, "
                  f"{host_cores} cores)",
                  f"2-shard aggregate throughput is {speedup:.2f}x the "
                  f"single-shard point; the scale-out floor is {floor}x")


# Gate (the budgets.json section) -> checker and the files it reads; a gate
# runs when any of its files was given, and checks each one given.
GATES = [
    ("ntt", gate_ntt, {"hhe"}),
    ("key_bytes", gate_key_bytes, {"hhe"}),
    ("alloc", gate_alloc, {"hhe", "service"}),
    ("noise", gate_noise, {"hhe", "service", "param_search"}),
    ("occupancy", gate_occupancy, {"service"}),
    ("shard", gate_shard, {"service"}),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--hhe", type=pathlib.Path)
    ap.add_argument("--service", type=pathlib.Path)
    ap.add_argument("--param-search", type=pathlib.Path)
    ap.add_argument("--ntt-invariance", type=pathlib.Path, action="append",
                    default=[])
    args = ap.parse_args()
    if args.ntt_invariance and args.hhe is None:
        ap.error("--ntt-invariance needs --hhe")

    files = {}
    for key, path in (("hhe", args.hhe), ("service", args.service),
                      ("param_search", args.param_search)):
        if path is not None:
            files[key] = (path, json.loads(path.read_text()))
    if not files:
        ap.error("give at least one BENCH file")
    files["ntt_invariance"] = [(p, json.loads(p.read_text()))
                               for p in args.ntt_invariance]

    budgets = json.loads(
        (pathlib.Path(__file__).resolve().parent / "budgets.json").read_text())
    rep = Report()
    for name, gate, reads in GATES:
        if not reads & files.keys():
            continue
        print(f"--- {name}")
        gate(rep, budgets[name], files)

    if rep.failures:
        print("\nBudget check FAILED:", file=sys.stderr)
        for f in rep.failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nBudget check passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
