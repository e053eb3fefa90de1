"""Command-line harness: simulate, serve, connect, analyze.

Configuration comes from built-in defaults, an optional flat key=value
file, and command-line flags, in increasing precedence.  Exit codes:
0 success (including a no-yield session), 1 usage or configuration error,
2 protocol abort, 3 transport failure.
"""

from __future__ import annotations

import argparse
import sys
from decimal import Decimal
from pathlib import Path

from .analytics import CSV_HEADER, default_grid, optimize_nbar, rate_curve_rows
from .params import ProtocolParams
from .privacy import write_secret_key
from .reconciliation import ReconConfig
from .session import (
    SessionConfig,
    run_alice,
    run_bob,
    run_simulation,
)
from .transport import (
    ChannelTimeout,
    ProtocolError,
    SessionAborted,
    TransportClosed,
    connect,
    serve_one,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ABORT = 2
EXIT_TRANSPORT = 3

CONFIG_KEYS = {
    "pulses": int,
    "blocks": int,
    "nbar": float,
    "seed": int,
    "eta-system": float,
    "sigma": float,
    "sample-fraction": float,
    "passes": int,
    "hash-bits": int,
    "recon-efficiency": float,
    "out-dir": str,
    "addr": str,
    "timeout": float,
}


class ConfigError(ValueError):
    pass


def load_config_file(path: str) -> dict:
    values = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = CONFIG_KEYS[key](value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsqkd",
        description="Free-space B92 quantum key distribution simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--nbar", type=float, help="mean photon number per dim pulse")
        p.add_argument("--seed", type=int, help="session seed")
        p.add_argument("--eta-system", type=float, dest="eta_system",
                       help="mean system efficiency")
        p.add_argument("--sigma", type=float, help="system efficiency spread")
        p.add_argument("--out-dir", dest="out_dir", help="artifact output directory")

    def sessionish(p):
        common(p)
        p.add_argument("--pulses", type=int, help="clock ticks to transmit")
        p.add_argument("--blocks", type=int,
                       help="pulses per transmission block (eta redrawn per block)")
        p.add_argument("--sample-fraction", type=float, dest="sample_fraction",
                       help="sifted fraction sacrificed to estimate the error rate")
        p.add_argument("--passes", type=int, help="correction passes")
        p.add_argument("--hash-bits", type=int, dest="hash_bits",
                       help="verification hash length")
        p.add_argument("--timeout", type=float, help="channel receive timeout, seconds")

    p_sim = sub.add_parser("simulate", help="run a full session in one process")
    sessionish(p_sim)

    p_serve = sub.add_parser("serve", help="run the receiver over a TCP socket")
    sessionish(p_serve)
    p_serve.add_argument("--addr", help="host:port to listen on", default=None)

    p_conn = sub.add_parser("connect", help="run the transmitter over a TCP socket")
    sessionish(p_conn)
    p_conn.add_argument("--addr", help="host:port of the receiver", default=None)

    p_an = sub.add_parser("analyze", help="rate curve and optimal photon number")
    common(p_an)
    p_an.add_argument("--recon-efficiency", type=float, dest="recon_efficiency",
                      help="correction efficiency multiple of the Shannon limit")
    p_an.add_argument("--grid-step", type=float, dest="grid_step", default=0.01)
    return parser


def _merged(args, key, default):
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if getattr(args, "config", None):
        if not hasattr(args, "_config_cache"):
            args._config_cache = load_config_file(args.config)
        if key in args._config_cache:
            return args._config_cache[key]
    return default


def _build_params(args) -> ProtocolParams:
    base = ProtocolParams()
    return base.replace(
        mean_photon_number=_merged(args, "nbar", base.mean_photon_number),
        eta_system_mean=_merged(args, "eta-system", base.eta_system_mean),
        eta_system_sigma=_merged(args, "sigma", base.eta_system_sigma),
        rng_seed=_merged(args, "seed", base.rng_seed),
    )


def _build_session_config(args) -> SessionConfig:
    base = SessionConfig()
    recon = base.recon
    return SessionConfig(
        pulses=_merged(args, "pulses", base.pulses),
        block_size=_merged(args, "blocks", base.block_size),
        recon=ReconConfig(
            sample_fraction=_merged(args, "sample-fraction", recon.sample_fraction),
            passes=_merged(args, "passes", recon.passes),
            hash_bits=_merged(args, "hash-bits", recon.hash_bits),
        ),
        timeout_s=_merged(args, "timeout", base.timeout_s),
    )


def _out_dir(args) -> Path:
    path = Path(_merged(args, "out-dir", "fsqkd-out"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_session_artifacts(out: Path, prefix: str, result) -> None:
    (out / f"{prefix}report.txt").write_text(result.report.to_text())
    (out / f"{prefix}report.kv").write_text(result.report.to_kv())
    with open(out / f"{prefix}transcript.log", "w") as fh:
        for frame in result.frames:
            fh.write(frame.hex() + "\n")


def cmd_simulate(args) -> int:
    params = _build_params(args)
    cfg = _build_session_config(args)
    out = _out_dir(args)
    sim = run_simulation(params, cfg)
    _write_session_artifacts(out, "", sim.bob)
    write_secret_key(out / "alice-secret.key", sim.alice.secret_bits, sim.alice.report.session)
    write_secret_key(out / "bob-secret.key", sim.bob.secret_bits, sim.bob.report.session)
    sys.stdout.write(sim.report.to_text())
    if sim.report.no_yield:
        sys.stdout.write("no secret bit yield at these parameters\n")
    sys.stdout.write(f"artifacts written to {out} ({sim.duration_s:.2f} s)\n")
    return EXIT_OK


def _parse_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ConfigError(f"bad address {text!r}, expected host:port")
    return host, int(port)


def cmd_party(args, open_endpoint, engine, prefix: str) -> int:
    """Run one party of a session over TCP and write its artifacts."""
    params = _build_params(args)
    cfg = _build_session_config(args)
    out = _out_dir(args)
    addr = _parse_addr(_merged(args, "addr", None) or "127.0.0.1:9292")
    endpoint = open_endpoint(addr, timeout_s=cfg.timeout_s)
    try:
        result = engine(endpoint, params, cfg)
    finally:
        endpoint.close()
    _write_session_artifacts(out, prefix, result)
    write_secret_key(out / f"{prefix}secret.key", result.secret_bits, result.report.session)
    sys.stdout.write(result.report.to_text())
    sys.stdout.write(f"artifacts written to {out} ({result.duration_s:.2f} s)\n")
    return EXIT_OK


def cmd_analyze(args) -> int:
    params = _build_params(args)
    c = _merged(args, "recon-efficiency", 1.0)
    step = args.grid_step
    if not step > 0:
        raise ConfigError(f"grid step must be positive, got {step}")
    # the last multiple of the step not above 0.99, counted in decimal:
    # float floor division undercounts (0.99 // 0.005 == 197.0)
    points = int(Decimal("0.99") // Decimal(repr(step)))
    grid = default_grid(step, round(points * step, 12), step)
    out = _out_dir(args)
    nbar_opt, budget, no_yield = optimize_nbar(params, recon_efficiency=c, grid=grid)
    rows = rate_curve_rows(params, recon_efficiency=c, grid=grid)
    csv_path = out / "rate_curve.csv"
    csv_path.write_text(CSV_HEADER + "\n" + "\n".join(rows) + "\n")
    if no_yield:
        sys.stdout.write("no secret bit yield anywhere on the grid\n")
    else:
        sys.stdout.write(
            f"optimal nbar {nbar_opt:.2f}: "
            f"secret fraction {budget.secret_fraction_of_sifted:.4f} of sifted key, "
            f"{budget.secret_fraction_of_transmitted:.6f} of transmitted pulses\n"
        )
    sys.stdout.write(f"rate curve written to {csv_path}\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "serve":
            return cmd_party(args, serve_one, run_bob, "bob-")
        if args.command == "connect":
            return cmd_party(args, connect, run_alice, "alice-")
        if args.command == "analyze":
            return cmd_analyze(args)
        parser.error(f"unknown command {args.command}")
    except (ConfigError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (SessionAborted, ProtocolError) as exc:
        sys.stderr.write(f"session aborted: {exc}\n")
        return EXIT_ABORT
    except (ChannelTimeout, TransportClosed, ConnectionError, OSError) as exc:
        sys.stderr.write(f"transport failure: {exc}\n")
        return EXIT_TRANSPORT
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
