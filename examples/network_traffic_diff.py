#!/usr/bin/env python
"""Network traffic monitoring: find flows that changed between snapshots.

The paper's first motivating application (Section 1): with f1 and f2 the
packet counts per [source, destination] pair in two time intervals (or on
two routers), the stream f = f1 - f2 is a general-turnstile stream whose
alpha is small whenever the overall traffic change is not arbitrarily
tiny.  This example:

1. synthesizes two correlated traffic snapshots and streams f1 - f2,
2. measures the achieved alpha,
3. runs heavy hitters + the general-turnstile L1 estimator in one
   push-based StreamSession,
4. shows **genuinely remote** distributed monitoring: a sketch service
   (:mod:`repro.service`) hosts one named session per vantage point;
   each vantage point is a network *client* that streams its half of
   the traffic as binary ingest frames, and aggregation happens over
   the wire too — one vantage point's snapshot container is POSTed
   into the other's live session (the Mergeable ladder behind a merge
   endpoint, exactly what ``StreamSession.merge`` does in process),
5. estimates the similarity of the two snapshots via the inner-product
   sketch of Theorem 2 (a self-join-size style query).

Run:  python examples/network_traffic_diff.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    AlphaInnerProduct,
    Params,
    l1_alpha,
    traffic_difference_stream,
)
from repro.service import ServerThread, ServiceClient

#: Both vantage points track THE SAME specs and params (one root seed =
#: value-equal hash functions, the precondition for merging) but a
#: DISTINCT node index, so their sampling structures draw independent
#: sampling streams and the merged estimate's sampling errors cancel
#: instead of correlating.
TRACK = {
    "changed_flows": "heavy_hitters_general",
    "change_mass": "l1_general",
}


def main() -> None:
    n = 1 << 14  # universe of flow identifiers
    flows = 800
    change_fraction = 0.06

    print("=== snapshot difference stream f = f1 - f2 ===")
    diff = traffic_difference_stream(
        n=n, flows=flows, change_fraction=change_fraction, seed=3
    )
    truth = diff.frequency_vector()
    alpha = max(2.0, l1_alpha(diff))
    print(f"flows = {flows}, changed fraction = {change_fraction}")
    print(f"measured alpha = {alpha:.1f} "
          "(small because changes are not arbitrarily tiny — Section 1)")
    print(f"changed flows (support of f): {truth.l0()}")

    print("\n=== two REMOTE vantage points behind a sketch service ===")
    eps = 1 / 8
    session_params = {"eps": eps, "alpha": min(alpha, 64)}
    items, deltas = diff.as_arrays()
    half = len(items) // 2
    with ServerThread() as handle:
        print(f"service up at http://{handle.host}:{handle.port}")
        east = ServiceClient(handle.host, handle.port, client_id="probe-east")
        west = ServiceClient(handle.host, handle.port, client_id="probe-west")
        for client, name, node in [(east, "east", 0), (west, "west", 1)]:
            client.create_session(name, n=n, seed=11, node=node,
                                  params=session_params, track=TRACK)
        # Each vantage point streams its own traffic over the wire, in
        # frames of whatever size the capture loop produced.
        for pos in range(0, half, 4096):
            end = min(pos + 4096, half)
            east.ingest("east", items[pos:end], deltas[pos:end])
        for pos in range(half, len(items), 4096):
            end = min(pos + 4096, len(items))
            west.ingest("west", items[pos:end], deltas[pos:end])
        east_info, west_info = east.info("east"), west.info("west")
        print(f"east saw {east_info['updates_processed']} updates, "
              f"west {west_info['updates_processed']}")
        # Aggregation is remote too: west's snapshot container crosses
        # the wire into east's live session.
        merged = east.merge("east", west.snapshot("west"))
        print(f"merged session covers {merged['updates_processed']} "
              f"updates")

        print("\n=== which flows changed the most? (heavy hitters) ===")
        reported = set(east.query("east", "changed_flows"))
        true_heavy = truth.heavy_hitters(eps)
        print(f"true eps-heavy changed flows: {len(true_heavy)}")
        print(f"reported: {len(reported)}  "
              f"(recall: {len(true_heavy & reported)}/{len(true_heavy)})")

        print("\n=== total traffic change (general-turnstile L1) ===")
        print(f"||f1 - f2||_1 estimate = "
              f"{east.query('east', 'change_mass'):.0f} "
              f"(true {truth.l1()})")
        east.close()
        west.close()

    print("\n=== cross-interval correlation (inner product, Theorem 2) ===")
    rng = np.random.default_rng(11)
    day1 = traffic_difference_stream(n=n, flows=400, change_fraction=0.3, seed=5)
    day2 = traffic_difference_stream(n=n, flows=400, change_fraction=0.3, seed=6)
    t1, t2 = day1.frequency_vector(), day2.frequency_vector()
    ctx = AlphaInnerProduct(n=n, eps=0.1, alpha=64, rng=rng)
    sk1 = ctx.make_sketch().consume(day1)
    sk2 = ctx.make_sketch().consume(day2)
    est = ctx.estimate(sk1, sk2)
    print(f"<f, g> estimate = {est:.0f} (true {t1.inner_product(t2)}, "
          f"error budget {0.1 * t1.l1() * t2.l1():.0f})")


if __name__ == "__main__":
    main()
