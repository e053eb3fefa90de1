"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict.
Statistical criteria use fixed seeds, so a green suite stays green.
"""

import subprocess
import sys
import threading
import time

import numpy as np
from fsqkd.analytics import default_grid, optimize_nbar
from fsqkd.channel import Cause, simulate_channel
from fsqkd.params import ProtocolParams
from fsqkd.privacy import PaPlan, compress
from fsqkd.protocol import bob_receive
from fsqkd.reconciliation import reconcile, shannon_leak_per_bit
from fsqkd.rng import stream
from fsqkd.session import SessionConfig, run_alice, run_bob
from fsqkd.transport import connect, loopback_pair, serve_one

from fixtures import ALICE_250, BOB_250, bits_from_string

QUIET = dict(background_prob_per_gate=0.0, dark_count_rate_hz=0.0)


def verdict(number, name, ok, detail):
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def test_criterion_1_shannon_limit_point():
    value = shannon_leak_per_bit(0.041)
    ok = abs(value - 0.246) <= 0.001
    line = verdict(1, "shannon-limit point value", ok,
                   f"f(0.041) = {value:.6f}, target 0.246 +- 0.001")
    assert ok, line


def test_criterion_2_sifting_efficiency():
    # single photons, perfect transport, silent detectors: the 25% protocol
    # efficiency must emerge from routing and projection alone
    params = ProtocolParams(eta_system_mean=1.0, eta_system_sigma=0.0, **QUIET)
    n = 1_000_000
    bits = stream(2020, "bits").integers(0, 2, n).astype(np.uint8)
    run = simulate_channel(bits, params, seed=2020, block_size=100_000,
                           photon_count_override=1)
    fraction = np.count_nonzero(run.detections.conclusive_mask()) / n
    ok = abs(fraction - 0.250) <= 0.005
    line = verdict(2, "B92 sifting efficiency", ok,
                   f"sifted fraction {fraction:.4f}, target 0.250 +- 0.005")
    assert ok, line


def test_criterion_3_rate_reproduction():
    # measured sifted rates versus the 5.4/12.2/17 kHz operating points,
    # +-25%; the dim point sits above its band, most likely because its
    # reference was measured at a lower link efficiency than pinned here
    # (see README, "Install and test")
    targets = {0.2: 5.4e3, 0.35: 12.2e3, 0.5: 17.0e3}
    n = 1_000_000
    details = []
    all_ok = True
    for nbar, target in targets.items():
        params = ProtocolParams(mean_photon_number=nbar, eta_system_mean=0.13,
                                eta_system_sigma=0.0)
        bits = stream(3030, f"bits-{nbar}").integers(0, 2, n).astype(np.uint8)
        run = simulate_channel(bits, params, seed=3030, block_size=100_000)
        sifted = np.count_nonzero(run.detections.conclusive_mask())
        rate = sifted / n * params.clock_rate_hz
        ok = abs(rate - target) / target <= 0.25
        all_ok &= ok
        details.append(f"nbar {nbar}: {rate/1e3:.2f} kHz vs {target/1e3} kHz "
                       f"{'ok' if ok else 'OUT'}")
    line = verdict(3, "rate reproduction", all_ok, "; ".join(details))
    assert all_ok, line


def test_criterion_4_ber_decomposition():
    # same operating points at higher statistics: the +-1.5 pp bands leave
    # the model's own rates (6.46% total and 4.63% background at nbar 0.2)
    # about 0.2 pp inside their lower edges.  One 16M-pulse run has a
    # shot-noise spread of about 0.075 pp there, so about one seed in 50
    # would land outside; four runs pooled (64M pulses) halve the spread.
    expectations = [
        (0.2, 0.078, 0.059),
        (0.35, 0.041, 0.024),
        (0.5, 0.041, 0.019),
    ]
    n = 16_000_000
    details = []
    all_ok = True
    for nbar, total_target, background_target in expectations:
        params = ProtocolParams(mean_photon_number=nbar, eta_system_mean=0.13,
                                eta_system_sigma=0.0)
        sifted_bits = error_bits = background_errors = dark_errors = 0
        for seed in range(1999, 2003):
            bits = stream(seed, f"bits-{nbar}").integers(0, 2, n).astype(np.uint8)
            run = simulate_channel(bits, params, seed=seed, block_size=400_000)
            ticks, sifted = bob_receive(run.detections)
            errors = sifted != bits[ticks]
            causes = run.detections.causes[run.detections.conclusive_mask()]
            sifted_bits += len(sifted)
            error_bits += np.count_nonzero(errors)
            background_errors += np.count_nonzero(errors & (causes == Cause.BACKGROUND.value))
            dark_errors += np.count_nonzero(errors & (causes == Cause.DARK.value))
        total = error_bits / sifted_bits
        background = background_errors / sifted_bits
        dark = dark_errors / sifted_bits
        ok = (abs(total - total_target) < 0.015
              and abs(background - background_target) < 0.015
              and dark < 0.001)
        all_ok &= ok
        details.append(f"nbar {nbar}: total {total*100:.2f}% bg {background*100:.2f}% "
                       f"dark {dark*100:.3f}% {'ok' if ok else 'OUT'}")
    line = verdict(4, "BER decomposition", all_ok, "; ".join(details))
    assert all_ok, line


def test_criterion_5_key_sample_fixture():
    a = bits_from_string(ALICE_250)
    b = bits_from_string(BOB_250)
    errors = int(np.count_nonzero(a != b))
    ber = errors / len(a)
    ok = errors == 8 and abs(ber - 0.032) < 1e-12
    line = verdict(5, "250-bit key sample", ok, f"{errors} errors, BER {ber:.3f}")
    assert ok, line


def _reconcile_pair(a_bits, b_bits, est_num, est_den, passes, seed):
    a_end, b_end = loopback_pair(timeout_s=30.0)
    results = {}

    def alice():
        results["a"] = reconcile(a_bits, a_end, passes, "alice", est_num / est_den)

    def bob():
        results["b"] = reconcile(b_bits, b_end, passes, "bob", est_num / est_den,
                                 (est_num, est_den),
                                 rng=stream(seed, "bob-recon"))

    threads = [threading.Thread(target=alice), threading.Thread(target=bob)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    return results["a"], results["b"]


def test_criterion_6_reconciliation():
    # planted i.i.d. errors, twenty seeds per rate: every run must verify,
    # and the mean disclosure is held against 1.2 x the Shannon limit.
    passes = SessionConfig().passes
    n = 10_000
    details = []
    verified_ok = True
    budget_ok = True
    for eps in (0.01, 0.03, 0.05):
        disclosed = []
        verified = 0
        for seed in range(20):
            rng = np.random.default_rng(2000 + seed)
            b = rng.integers(0, 2, n).astype(np.uint8)
            a = (b ^ (rng.random(n) < eps)).astype(np.uint8)
            ra, rb = _reconcile_pair(a, b, int(round(eps * n)), n, passes, seed)
            if ra.verified and rb.verified and np.array_equal(
                    ra.corrected_key, rb.corrected_key):
                verified += 1
            disclosed.append(ra.disclosed_bits)
        budget = 1.2 * shannon_leak_per_bit(eps) * n
        mean_disclosed = float(np.mean(disclosed))
        verified_ok &= verified == 20
        budget_ok &= mean_disclosed <= budget
        details.append(f"eps {eps}: verified {verified}/20, "
                       f"mean disclosed {mean_disclosed:.0f} vs budget {budget:.0f}")
    ok = verified_ok and budget_ok
    line = verdict(6, "reconciliation correctness and efficiency", ok,
                   "; ".join(details))
    assert ok, line


def test_criterion_7_yield_optimization():
    nbar_opt, budget, no_yield = optimize_nbar(ProtocolParams(), recon_efficiency=1.0)
    fraction = budget.secret_fraction_of_transmitted
    ok = (not no_yield) and 0.30 <= nbar_opt <= 0.50 and 0.0025 <= fraction <= 0.0055
    line = verdict(7, "yield optimization", ok,
                   f"nbar_opt {nbar_opt:.2f} in [0.30, 0.50], "
                   f"transmitted fraction {fraction*100:.3f}% in [0.25%, 0.55%]")
    assert ok, line


def test_criterion_8_no_yield_thresholds():
    params = ProtocolParams()
    _n1, budget1, flag1 = optimize_nbar(params.replace(eta_system_mean=0.03), 1.0)
    low_grid = default_grid(0.01, 0.05, 0.01)
    _n2, budget2, flag2 = optimize_nbar(params, 1.0, grid=low_grid)
    ok = flag1 and flag2
    line = verdict(8, "no-yield thresholds", ok,
                   f"eta 0.03: zero yield {flag1}; nbar <= 0.05 at eta 0.13: "
                   f"zero yield {flag2}")
    assert ok, line


def _socket_session(params, cfg):
    box = {}
    ready = threading.Event()

    def server():
        def on_ready(addr):
            box["addr"] = addr
            ready.set()
        endpoint = serve_one(("127.0.0.1", 0), timeout_s=20.0, ready_callback=on_ready)
        try:
            box["bob"] = run_bob(endpoint, params, cfg)
        finally:
            endpoint.close()

    thread = threading.Thread(target=server)
    thread.start()
    assert ready.wait(10.0)
    endpoint = connect(box["addr"], timeout_s=20.0)
    try:
        alice = run_alice(endpoint, params, cfg)
    finally:
        endpoint.close()
    thread.join(30.0)
    return alice, box["bob"]


def test_criterion_9_determinism(tmp_path):
    base = [sys.executable, "-m", "fsqkd.cli"]
    sim_args = ["--pulses", "200000", "--blocks", "50000", "--nbar", "0.5",
                "--sample-fraction", "0.05", "--seed", "417"]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = subprocess.run(base + ["simulate", *sim_args, "--out-dir", str(out)],
                              capture_output=True, text=True, timeout=180)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    replay_ok = all(
        (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
        for f in ("report.kv", "report.txt", "transcript.log",
                  "alice-secret.key", "bob-secret.key")
    )

    # two-process sessions: one true process pair, then seed sweep over the
    # same engines and wire protocol on localhost sockets
    import socket as socketlib
    with socketlib.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    pair_args = ["--pulses", "600000", "--blocks", "100000", "--nbar", "0.4",
                 "--sample-fraction", "0.02", "--seed", "120",
                 "--addr", f"127.0.0.1:{port}"]
    server = subprocess.Popen(base + ["serve", *pair_args,
                                      "--out-dir", str(tmp_path / "srv")],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    time.sleep(0.8)
    client = subprocess.run(base + ["connect", *pair_args,
                                    "--out-dir", str(tmp_path / "conn")],
                            capture_output=True, text=True, timeout=180)
    server.communicate(timeout=60)
    two_process_ok = (client.returncode == 0 and server.returncode == 0 and
                      (tmp_path / "srv" / "bob-secret.key").read_bytes()
                      == (tmp_path / "conn" / "alice-secret.key").read_bytes())

    matched = int(two_process_ok)
    nonzero = 0
    for seed in range(121, 140):
        params = ProtocolParams(mean_photon_number=0.4, rng_seed=seed)
        cfg = SessionConfig(pulses=600_000, block_size=100_000,
                            sample_fraction=0.02)
        alice, bob = _socket_session(params, cfg)
        if np.array_equal(alice.secret_bits, bob.secret_bits):
            matched += 1
        nonzero += len(alice.secret_bits) > 0
    ok = replay_ok and two_process_ok and matched == 20
    line = verdict(9, "end-to-end determinism", ok,
                   f"replay byte-identical {replay_ok}; socket pairs matched "
                   f"{matched}/20 ({nonzero + 1} with nonzero keys)")
    assert ok, line


def test_criterion_10_pa_flip_propagation():
    base = stream(12, "pa-key").integers(0, 2, 256).astype(np.uint8)
    flipped = base.copy()
    flipped[0] ^= 1
    counts = np.zeros(64, dtype=np.int64)
    for seed in range(1000):
        plan = PaPlan(input_length=256, output_length=64, seed=seed)
        counts += compress(base, plan) ^ compress(flipped, plan)
    fractions = counts / 1000.0
    ok = bool((fractions >= 0.45).all() and (fractions <= 0.55).all())
    line = verdict(10, "PA flip propagation", ok,
                   f"per-output-bit flip fraction in [{fractions.min():.3f}, "
                   f"{fractions.max():.3f}], band [0.45, 0.55]")
    assert ok, line
