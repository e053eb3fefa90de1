"""Command-line harness: simulate, serve, connect, analyze.

Each setting is one row of ``SETTINGS``: its key, which is also its flag,
its type and help, the commands that take it, and where its value lands.
A value comes from the flag, else from the flat key=value ``--config``
file, else from the default.  The file is read, and every value checked,
before a command does anything.  Exit codes: 0 success (including a
no-yield session), 1 usage or configuration error, 2 protocol abort,
3 transport failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from decimal import Decimal
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

from .analytics import CSV_HEADER, default_grid, optimize_nbar, rate_curve_rows
from .params import ProtocolParams
from .privacy import write_secret_key
from .reconciliation import ReconConfig
from .session import SessionConfig, run_alice, run_bob, run_simulation
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

SESSION = ("simulate", "serve", "connect")
ALL = SESSION + ("analyze",)


class Setting(NamedTuple):
    key: str
    type: type
    commands: tuple[str, ...]
    help: str
    lands: str  # "params.<field>", "session.<field>", "recon.<field>" or "cli.<name>"
    default: object = None  # for "cli." values; the others default in their dataclass


SETTINGS = (
    Setting("pulses", int, SESSION, "clock ticks to transmit", "session.pulses"),
    Setting("blocks", int, SESSION, "pulses per transmission block (eta redrawn per block)",
            "session.block_size"),
    Setting("nbar", float, ALL, "mean photon number per dim pulse",
            "params.mean_photon_number"),
    Setting("seed", int, ALL, "session seed", "params.rng_seed"),
    Setting("eta-system", float, ALL, "mean system efficiency", "params.eta_system_mean"),
    Setting("sigma", float, ALL, "system efficiency spread", "params.eta_system_sigma"),
    Setting("sample-fraction", float, SESSION,
            "sifted fraction sacrificed to estimate the error rate", "recon.sample_fraction"),
    Setting("passes", int, SESSION, "correction passes", "recon.passes"),
    Setting("recon-efficiency", float, ("analyze",),
            "correction efficiency multiple of the Shannon limit", "cli.recon_efficiency", 1.0),
    Setting("out-dir", str, ALL, "artifact output directory", "cli.out_dir", "fsqkd-out"),
    Setting("addr", str, ("serve", "connect"), "host:port the receiver listens on",
            "cli.addr", "127.0.0.1:9292"),
    Setting("timeout", float, SESSION, "channel receive timeout, seconds", "session.timeout_s"),
)
CONFIG_KEYS = {s.key: s.type for s in SETTINGS}


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


def load_settings(args) -> SimpleNamespace:
    """The command's ``params``, ``session`` and ``cli`` values, all checked.

    Each value comes from its flag, else the config file, else its default.
    """
    from_file = load_config_file(args.config) if args.config else {}
    landed = {"params": {}, "session": {}, "recon": {}, "cli": {}}
    for s in SETTINGS:
        if args.command in s.commands:
            value = getattr(args, s.key.replace("-", "_"))
            if value is None:
                value = from_file.get(s.key, s.default)
            if value is not None:
                group, name = s.lands.split(".")
                landed[group][name] = value
    recon = ReconConfig(**landed["recon"])
    return SimpleNamespace(params=ProtocolParams(**landed["params"]),
                           session=SessionConfig(recon=recon, **landed["session"]),
                           cli=SimpleNamespace(**landed["cli"]))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsqkd",
        description="Free-space B92 quantum key distribution simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, summary in (
        ("simulate", "run a full session in one process"),
        ("serve", "run the receiver over a TCP socket"),
        ("connect", "run the transmitter over a TCP socket"),
        ("analyze", "rate curve and optimal photon number"),
    ):
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="flat key=value config file")
        for s in SETTINGS:
            if command in s.commands:
                p.add_argument(f"--{s.key}", type=s.type, help=s.help)
        if command == "analyze":
            p.add_argument("--grid-step", type=float, default=0.01)
    return parser


def _out_dir(text: str) -> Path:
    path = Path(text)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_session_artifacts(out: Path, prefix: str, result) -> None:
    (out / f"{prefix}report.txt").write_text(result.report.to_text())
    (out / f"{prefix}report.kv").write_text(result.report.to_kv())
    with open(out / f"{prefix}transcript.log", "w") as fh:
        for frame in result.frames:
            fh.write(frame.hex() + "\n")


def cmd_simulate(settings: SimpleNamespace) -> int:
    out = _out_dir(settings.cli.out_dir)
    sim = run_simulation(settings.params, settings.session)
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
    if not host or not port.isdigit() or int(port) > 65535:
        raise ConfigError(f"bad address {text!r}, expected host:port with port at most 65535")
    return host, int(port)


def cmd_party(settings: SimpleNamespace, open_endpoint, engine, prefix: str) -> int:
    """Run one party of a session over TCP and write its artifacts."""
    addr = _parse_addr(settings.cli.addr)
    out = _out_dir(settings.cli.out_dir)
    endpoint = open_endpoint(addr, timeout_s=settings.session.timeout_s)
    try:
        result = engine(endpoint, settings.params, settings.session)
    finally:
        endpoint.close()
    _write_session_artifacts(out, prefix, result)
    write_secret_key(out / f"{prefix}secret.key", result.secret_bits, result.report.session)
    sys.stdout.write(result.report.to_text())
    sys.stdout.write(f"artifacts written to {out} ({result.duration_s:.2f} s)\n")
    return EXIT_OK


def cmd_analyze(settings: SimpleNamespace, step: float) -> int:
    c = settings.cli.recon_efficiency
    # below 1 would disclose less than the Shannon limit allows
    if not 1.0 <= c < math.inf:
        raise ConfigError(f"recon efficiency must be finite and at least 1, got {c}")
    if not step > 0:
        raise ConfigError(f"grid step must be positive, got {step}")
    # the last multiple of the step not above 0.99, counted in decimal:
    # float floor division undercounts (0.99 // 0.005 == 197.0)
    points = int(Decimal("0.99") // Decimal(repr(step)))
    grid = default_grid(step, round(points * step, 12), step)
    out = _out_dir(settings.cli.out_dir)
    params = settings.params
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        settings = load_settings(args)
        if args.command == "simulate":
            return cmd_simulate(settings)
        if args.command == "serve":
            return cmd_party(settings, serve_one, run_bob, "bob-")
        if args.command == "connect":
            return cmd_party(settings, connect, run_alice, "alice-")
        return cmd_analyze(settings, args.grid_step)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (SessionAborted, ProtocolError) as exc:
        sys.stderr.write(f"session aborted: {exc}\n")
        return EXIT_ABORT
    except (ChannelTimeout, TransportClosed, ConnectionError, OSError) as exc:
        sys.stderr.write(f"transport failure: {exc}\n")
        return EXIT_TRANSPORT


if __name__ == "__main__":
    sys.exit(main())
