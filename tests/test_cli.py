import base64
import operator
import re
import shlex
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fsqkd.cli import (
    CONFIG_KEYS,
    ConfigError,
    build_parser,
    load_config_file,
    load_settings,
    main,
)
from fsqkd.messages import Hello, encode, message_for
from fsqkd.session import SessionReport

BASE = [sys.executable, "-m", "fsqkd.cli"]
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*args, timeout=180):
    return subprocess.run(BASE + list(args), capture_output=True, text=True,
                          timeout=timeout)


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


SMALL = ["--pulses", "200000", "--blocks", "50000", "--nbar", "0.5",
         "--sample-fraction", "0.05", "--seed", "417"]


class TestSimulate:
    def test_two_runs_are_byte_identical(self, tmp_path):
        outs = []
        for name in ("one", "two"):
            out = tmp_path / name
            result = run_cli("simulate", *SMALL, "--out-dir", str(out))
            assert result.returncode == 0, result.stderr
            outs.append(out)
        for artifact in ("report.kv", "report.txt", "transcript.log",
                         "alice-secret.key", "bob-secret.key"):
            a = (outs[0] / artifact).read_bytes()
            b = (outs[1] / artifact).read_bytes()
            assert a == b, f"{artifact} differs between identical runs"

    def test_party_key_files_identical(self, tmp_path):
        out = tmp_path / "run"
        result = run_cli("simulate", *SMALL, "--out-dir", str(out))
        assert result.returncode == 0
        assert (out / "alice-secret.key").read_bytes() == (out / "bob-secret.key").read_bytes()

    def test_no_yield_run_exits_clean(self, tmp_path):
        out = tmp_path / "dim"
        result = run_cli("simulate", "--pulses", "200000", "--nbar", "0.02",
                         "--seed", "3", "--out-dir", str(out))
        assert result.returncode == 0
        assert "no secret bit yield" in result.stdout
        report = SessionReport.from_kv((out / "report.kv").read_text())
        assert report.secret_len == 0 and report.no_yield

    def test_report_round_trips_through_parser(self, tmp_path):
        out = tmp_path / "run"
        result = run_cli("simulate", *SMALL, "--out-dir", str(out))
        assert result.returncode == 0
        text = (out / "report.kv").read_text()
        assert SessionReport.from_kv(text).to_kv() == text


class TestAnalyze:
    def test_default_analysis(self, tmp_path):
        result = run_cli("analyze", "--out-dir", str(tmp_path))
        assert result.returncode == 0
        assert "optimal nbar 0.3" in result.stdout or "optimal nbar 0.4" in result.stdout
        csv = (tmp_path / "rate_curve.csv").read_text().splitlines()
        assert csv[0].startswith("nbar,")
        assert len(csv) == 100

    def test_low_efficiency_reports_no_yield(self, tmp_path):
        result = run_cli("analyze", "--eta-system", "0.03", "--out-dir", str(tmp_path))
        assert result.returncode == 0
        assert "no secret bit yield" in result.stdout

    def test_cascade_efficiency_lowers_yield(self, tmp_path):
        shannon = run_cli("analyze", "--out-dir", str(tmp_path / "a"))
        cascade = run_cli("analyze", "--recon-efficiency", "1.16",
                          "--out-dir", str(tmp_path / "b"))
        frac = lambda r: float(r.stdout.split("secret fraction ")[1].split(" ")[0])
        assert frac(cascade) < frac(shannon)

    @pytest.mark.parametrize("step, points", [("0.005", 198), ("0.11", 9)])
    def test_grid_ends_at_last_multiple_of_step(self, tmp_path, step, points):
        # float floor division put the last point at 0.985 and 0.88
        result = run_cli("analyze", "--grid-step", step, "--out-dir", str(tmp_path))
        assert result.returncode == 0
        rows = (tmp_path / "rate_curve.csv").read_text().splitlines()[1:]
        assert len(rows) == points
        assert float(rows[-1].split(",")[0]) == 0.99

    @pytest.mark.parametrize("value", ["-5", "0.99", "nan", "inf"])
    def test_efficiency_below_shannon_or_non_finite_rejected(self, tmp_path, value):
        # -5 printed a secret fraction above 1, nan an empty yield surface
        out = tmp_path / "x"
        assert main(["analyze", "--recon-efficiency", value, "--out-dir", str(out)]) == 1
        assert not out.exists()

    def test_nonpositive_grid_step_is_usage_error(self, tmp_path):
        result = run_cli("analyze", "--grid-step", "0", "--out-dir", str(tmp_path))
        assert result.returncode == 1
        assert "grid step" in result.stderr

    @pytest.mark.parametrize("value", ["1.5", "inf", "nan"])
    def test_grid_step_without_a_grid_point_rejected_before_writing(
            self, tmp_path, value, capsys):
        # 1.5 created the output directory and then found an empty grid;
        # inf failed converting a NaN point count
        out = tmp_path / "x"
        assert main(["analyze", "--grid-step", value, "--out-dir", str(out)]) == 1
        assert f"grid step must lie in (0, 0.99], got {float(value)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1e-9", "9.99e-6"])
    def test_grid_step_below_the_floor_rejected_before_writing(
            self, tmp_path, value, capsys, monkeypatch):
        # 1e-9 asked default_grid for a 990M-point linspace (7.9 GB)
        built = []
        monkeypatch.setattr("fsqkd.cli.default_grid", lambda *args: built.append(args))
        out = tmp_path / "x"
        assert main(["analyze", "--grid-step", value, "--out-dir", str(out)]) == 1
        assert f"grid step must be at least 1e-05, got {float(value)}" in capsys.readouterr().err
        assert not out.exists() and not built


class TestTwoProcess:
    def _run_pair(self, tmp_path, port, seed="11"):
        args = ["--pulses", "200000", "--blocks", "50000", "--nbar", "0.5",
                "--sample-fraction", "0.05", "--seed", seed,
                "--addr", f"127.0.0.1:{port}"]
        serve_dir, conn_dir = tmp_path / "serve", tmp_path / "conn"
        server = subprocess.Popen(
            BASE + ["serve", *args, "--out-dir", str(serve_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        time.sleep(0.8)
        client = run_cli("connect", *args, "--out-dir", str(conn_dir))
        server_out, server_err = server.communicate(timeout=60)
        return server.returncode, client.returncode, serve_dir, conn_dir, server_err, client

    def test_socket_session_matches(self, tmp_path):
        code_s, code_c, serve_dir, conn_dir, err, _ = self._run_pair(
            tmp_path, free_port())
        assert code_s == 0 and code_c == 0, err
        assert (serve_dir / "bob-secret.key").read_bytes() == \
            (conn_dir / "alice-secret.key").read_bytes()
        assert (serve_dir / "bob-transcript.log").read_bytes() == \
            (conn_dir / "alice-transcript.log").read_bytes()
        bob = SessionReport.from_kv((serve_dir / "bob-report.kv").read_text())
        alice = SessionReport.from_kv((conn_dir / "alice-report.kv").read_text())
        for field in ("session", "seed", "pulses", "sifted_len", "sampled_bits",
                      "corrected_len", "secret_len", "est_errors", "disclosed_bits",
                      "ec_disclosed_bits", "hash_rounds"):
            assert getattr(bob, field) == getattr(alice, field), field

    def test_reference_run_sifted_length(self, tmp_path):
        out = tmp_path / "ref"
        result = run_cli("simulate", "--pulses", "1000000", "--nbar", "0.35",
                         "--seed", "7", "--out-dir", str(out))
        assert result.returncode == 0
        report = SessionReport.from_kv((out / "report.kv").read_text())
        assert abs(report.sifted_len - 11_300) / 11_300 < 0.10

    def test_absent_peer_is_transport_failure(self, tmp_path):
        result = run_cli("connect", "--addr", f"127.0.0.1:{free_port()}",
                         "--timeout", "2", "--out-dir", str(tmp_path))
        assert result.returncode == 3

    def _serve_fake_peer(self, tmp_path, frame):
        """Run ``serve`` against a raw socket that sends one frame."""
        port = free_port()
        server = subprocess.Popen(
            BASE + ["serve", "--addr", f"127.0.0.1:{port}", "--timeout", "20",
                    "--out-dir", str(tmp_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 20.0
            while True:
                try:
                    peer = socket.create_connection(("127.0.0.1", port), timeout=1.0)
                    break
                except ConnectionRefusedError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.1)
            with peer:
                peer.sendall(frame)
                _out, err = server.communicate(timeout=60)
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()
        return server.returncode, err

    def test_version_mismatch_aborts(self, tmp_path):
        hello = Hello(version=99, params_digest=bytes(16), seed=0)
        code, err = self._serve_fake_peer(tmp_path, encode(message_for(0, hello)))
        assert code == 2
        assert "version" in err

    def test_version_4_peer_aborts(self, tmp_path):
        # version 4 announced each pass in its own frames and echoed ids in
        # bisection replies; such a peer ends at its Hello
        hello = Hello(version=4, params_digest=bytes(16), seed=0)
        code, err = self._serve_fake_peer(tmp_path, encode(message_for(0, hello)))
        assert code == 2
        assert "protocol version mismatch: peer 4, local 7" in err

    def test_version_5_peer_aborts(self, tmp_path):
        # version 5 drew Alice's raw bits from one stream per pulse block;
        # such a peer ends at its Hello with exit code 2
        hello = Hello(version=5, params_digest=bytes(16), seed=0)
        code, err = self._serve_fake_peer(tmp_path, encode(message_for(0, hello)))
        assert code == 2
        assert "protocol version mismatch: peer 5, local 7" in err

    def test_version_6_text_hello_aborts(self, tmp_path):
        # version 6 framed a body as the text "sid=<hex16> seq=<dec>
        # kind=<NAME> payload=<base64>"; its first byte, "s", is no kind code
        hello = Hello(version=6, params_digest=bytes(16), seed=0)
        body = (b"sid=0000000000000000 seq=0 kind=Hello payload="
                + base64.b64encode(hello.pack(bytearray())))
        code, err = self._serve_fake_peer(tmp_path, len(body).to_bytes(4, "big") + body)
        assert code == 2, err
        assert "unknown kind code 115" in err

    def test_malformed_first_frame_aborts(self, tmp_path):
        body = b"this is not a protocol message"
        code, err = self._serve_fake_peer(tmp_path, len(body).to_bytes(4, "big") + body)
        assert code == 2, err

    def test_noncanonical_header_aborts(self, tmp_path):
        # a Hello whose seq 0 is spelled in two varint bytes; the header
        # has one spelling
        body = b"\x01\x80\x00" + Hello(version=7, params_digest=bytes(16)).pack(bytearray())
        code, err = self._serve_fake_peer(tmp_path, len(body).to_bytes(4, "big") + body)
        assert code == 2, err
        assert "overlong varint" in err

    def test_noncanonical_payload_aborts(self, tmp_path):
        # a SampleReveal of one bit whose padding bits are not all zero
        body = b"\x04\x00" + b"\x00\x00\x00\x01\x81"
        code, err = self._serve_fake_peer(tmp_path, len(body).to_bytes(4, "big") + body)
        assert code == 2, err
        assert "padding bits" in err

    def test_oversized_length_prefix_aborts(self, tmp_path):
        code, err = self._serve_fake_peer(tmp_path, b"\xff\xff\xff\xff")
        assert code == 2, err
        assert "exceeds" in err


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("pulses=100000\nnbar=0.4\nseed=5\n")
        out = tmp_path / "out"
        result = run_cli("simulate", "--config", str(config), "--nbar", "0.5",
                         "--sample-fraction", "0.05", "--out-dir", str(out))
        assert result.returncode == 0
        report = SessionReport.from_kv((out / "report.kv").read_text())
        assert report.pulses == 100_000
        assert report.mean_photon_number == 0.5

    def test_parse_error_carries_line_number(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("pulses=100\nwhat is this\n")
        with pytest.raises(ConfigError, match="bad.cfg:2"):
            load_config_file(str(config))

    def test_unknown_key_rejected(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("frobnicate=1\n")
        with pytest.raises(ConfigError, match="frobnicate"):
            load_config_file(str(config))

    def test_bad_config_exits_with_usage_code(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("nbar=abc\n")
        result = run_cli("simulate", "--config", str(config),
                         "--out-dir", str(tmp_path / "x"))
        assert result.returncode == 1

    def test_hash_length_is_not_a_setting(self, tmp_path):
        # the verify hash is 128 bits by protocol: neither a flag nor a
        # config key sets it
        assert main(["simulate", "--hash-bits", "64"]) == 1
        config = tmp_path / "hash.cfg"
        config.write_text("hash-bits=64\n")
        assert main(["simulate", "--config", str(config),
                     "--out-dir", str(tmp_path / "x")]) == 1

    def test_readme_lists_every_config_key(self):
        readme = README.read_text()
        listed = re.search(r"Keys: `([^`]*)`", readme)
        assert listed is not None, "README.md has no 'Keys: `...`' list"
        assert listed[1].split() == list(CONFIG_KEYS)

    ANALYZE_FLAGS = ["--nbar", "0.3", "--eta-system", "0.13", "--sigma", "0.04",
                     "--seed", "1", "--recon-efficiency", "1.0"]

    def test_missing_file_is_read_even_when_flags_cover_every_setting(self, tmp_path):
        out = tmp_path / "x"
        assert main(["analyze", "--config", str(tmp_path / "nonexistent.cfg"),
                     *self.ANALYZE_FLAGS, "--out-dir", str(out)]) == 1
        assert not out.exists()

    def test_unknown_key_rejected_even_when_flags_cover_every_setting(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("frobnicate=1\n")
        out = tmp_path / "x"
        assert main(["analyze", "--config", str(config),
                     *self.ANALYZE_FLAGS, "--out-dir", str(out)]) == 1
        assert not out.exists()

    # per key: a command that takes it, where its value lands, a file
    # value and a flag value
    LANDS = {
        "pulses": ("simulate", "session.pulses", "1234", "5678"),
        "blocks": ("serve", "session.block_size", "100", "200"),
        "nbar": ("analyze", "params.mean_photon_number", "0.3", "0.4"),
        "seed": ("connect", "params.rng_seed", "5", "6"),
        "eta-system": ("simulate", "params.eta_system_mean", "0.2", "0.25"),
        "sigma": ("analyze", "params.eta_system_sigma", "0.01", "0.02"),
        "sample-fraction": ("simulate", "session.sample_fraction", "0.2", "0.3"),
        "passes": ("serve", "session.passes", "3", "5"),
        "recon-efficiency": ("analyze", "cli.recon_efficiency", "1.1", "1.2"),
        "out-dir": ("connect", "cli.out_dir", "a", "b"),
        "addr": ("serve", "cli.addr", "h:1", "h:2"),
        "timeout": ("simulate", "session.timeout_s", "5", "7"),
    }

    @pytest.mark.parametrize("key", list(CONFIG_KEYS))
    def test_file_value_lands_and_flag_overrides_it(self, tmp_path, key):
        command, lands, in_file, in_flag = self.LANDS[key]
        config = tmp_path / "run.cfg"
        config.write_text(f"{key}={in_file}\n")
        argv = [command, "--config", str(config)]
        get = operator.attrgetter(lands)
        assert get(load_settings(build_parser().parse_args(argv))) == CONFIG_KEYS[key](in_file)
        flagged = load_settings(build_parser().parse_args(argv + [f"--{key}", in_flag]))
        assert get(flagged) == CONFIG_KEYS[key](in_flag)

    def test_readme_commands_parse_and_check(self):
        block = re.search(r"## Command line\n\n```\n(.*?)```", README.read_text(), re.S)
        assert block is not None, "README.md has no 'Command line' code block"
        lines = block[1].splitlines()
        assert {shlex.split(line)[1] for line in lines} == {"simulate", "serve", "connect",
                                                             "analyze"}
        for line in lines:
            load_settings(build_parser().parse_args(shlex.split(line)[1:]))


class TestBadValuesStoppedBeforeTheRun:
    @pytest.mark.parametrize("flag, value", [
        ("--timeout", "0"), ("--timeout", "nan"), ("--sigma", "nan"), ("--nbar", "inf"),
    ])
    def test_simulate(self, tmp_path, flag, value):
        # timeout 0 ended in a transport failure, nan in a malformed-frame
        # abort; sigma nan ran to exit 0, nbar inf overflowed in the channel
        out = tmp_path / "x"
        assert main(["simulate", "--pulses", "1000", flag, value,
                     "--out-dir", str(out)]) == 1
        assert not out.exists()

    def test_passes_above_the_cap(self, tmp_path, capsys, monkeypatch):
        # each agreed pass sizes both parties' pass tables before pass 1,
        # and nothing capped the count
        built = []
        monkeypatch.setattr("fsqkd.reconciliation.block_schedule",
                            lambda *args: built.append(args))
        out = tmp_path / "x"
        assert main(["simulate", "--pulses", "1000", "--passes", "33",
                     "--out-dir", str(out)]) == 1
        assert "passes must lie in [2, 32]" in capsys.readouterr().err
        assert not out.exists() and not built

    def test_nbar_far_above_the_ceiling(self, tmp_path):
        # unchecked, nbar 1e10 built a Poisson click table of about 3e8
        # entries in the channel before anything else failed
        out = tmp_path / "x"
        result = run_cli("simulate", "--nbar", "1e10", "--out-dir", str(out), timeout=30)
        assert result.returncode == 1
        assert "at most 10" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("port", ["70000", "1" * 20])
    @pytest.mark.parametrize("command", ["serve", "connect"])
    def test_port_above_65535(self, tmp_path, capsys, command, port):
        out = tmp_path / "x"
        assert main([command, "--addr", f"127.0.0.1:{port}", "--timeout", "2",
                     "--out-dir", str(out)]) == 1
        assert "65535" in capsys.readouterr().err
        assert not out.exists()
