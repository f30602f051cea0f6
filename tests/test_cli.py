"""Command-line exercises: every subcommand, every exit code.

Commands run in-process through main(argv) so the integer return value
is asserted directly; one subprocess check confirms the module entry
point works outside the test harness.  File-based round trips go through
tmp_path, and deterministic behaviour is pinned with --seed.
"""

import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import prekem
from prekem.cli import main, params_from_doc, params_to_doc
from prekem.combiner import parse_combined
from prekem.dem import DemProfile
from prekem.ikem import (IkemCiphertext, IkemParams, Mode, parse_ciphertext,
                         serialize_ciphertext)
from prekem.source import bsc_source

NOISELESS = {"bsc": {"p": "0", "q": "1/2", "n": 12}}
NOISY = {"bsc": {"p": "1/20", "q": "1/2", "n": 24}}


def run_cli(*args):
    return main([str(a) for a in args])


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def noiseless_params(n=12, t=4, ell=6, mode=Mode.CEA, **over):
    source = bsc_source(Fraction(0), Fraction(1, 2), n)
    fields = dict(mode=mode, source=source, n=n, t=t, ell=ell, nu=0.0,
                  r=0, w=n, sigma=0.25, q_e=0, q_d=0)
    fields.update(over)
    return IkemParams(**fields)


def cea_params_file(tmp_path, name="params.json", **over):
    return write_json(tmp_path / name, params_to_doc(noiseless_params(**over)))


def envelope_params_file(tmp_path, name="params.json"):
    # authenticated mode sized so the key covers an 8 + 2*16 bit DEM key
    params = noiseless_params(n=96, t=45, ell=40, mode=Mode.CCA,
                              r=2, w=96, q_d=1)
    doc = params_to_doc(params, DemProfile(enc_len=8, mac_bits=16))
    return write_json(tmp_path / name, doc)


def toy_params_doc(**over):
    source = bsc_source(Fraction(1, 4), Fraction(1, 4), 4)
    fields = dict(mode=Mode.CEA, source=source, n=4, t=2, ell=1, nu=1.7,
                  r=0, w=4, sigma=0.25, q_e=0, q_d=0)
    fields.update(over)
    return params_to_doc(IkemParams(**fields))


def sampled_materials(tmp_path, params_file, seed="a1"):
    outdir = tmp_path / "mat"
    assert run_cli("sample", "--config", params_file, "--seed", seed,
                   "--out-dir", outdir) == 0
    return outdir


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_help_exits_clean(self):
        assert main(["--help"]) == 0

    def test_subcommand_help_exits_clean(self):
        assert main(["params", "--help"]) == 0

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["params", "--mode", "cea"]) == 1

    def test_bad_seed_hex(self, tmp_path):
        params = cea_params_file(tmp_path)
        rc = run_cli("sample", "--config", params, "--seed", "zz",
                     "--out-dir", tmp_path / "mat")
        assert rc == 1

    def test_missing_config_file(self, tmp_path, capsys):
        err = assert_format_error(capsys, "params", "--config",
                                  tmp_path / "absent.json", "--mode", "cea")
        assert err.startswith("error: cannot read "), err

    def test_config_not_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        assert run_cli("params", "--config", bad, "--mode", "cea") == 1

    @pytest.mark.parametrize("raw", [b"\x80{}", b"[" * 100000],
                             ids=["not-utf8", "nested-past-recursion"])
    def test_config_unreadable_as_json(self, tmp_path, capsys, raw):
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        assert_format_error(capsys, "params", "--config", bad,
                            "--mode", "cea")


class TestParams:
    def config(self, tmp_path, **over):
        doc = {"source": NOISELESS, "sigma": 0.25, "q_e": 0, "t": 4,
               "nu": 0.0}
        doc.update(over)
        return write_json(tmp_path / "config.json", doc)

    def test_feasible_table(self, tmp_path, capsys):
        config = self.config(tmp_path)
        assert run_cli("params", "--config", config, "--mode", "cea") == 0
        out = capsys.readouterr().out
        assert "feasible" in out
        assert "infeasible" not in out
        # noiseless source at n=12, sigma 2^-2, t=4 leaves a 6-bit key
        assert any(line.split() == ["ell", "6"] for line in out.splitlines())

    def test_out_file_round_trips(self, tmp_path):
        config = self.config(tmp_path)
        out = tmp_path / "params.json"
        assert run_cli("params", "--config", config, "--mode", "cea",
                       "--out", out) == 0
        params, dem = params_from_doc(json.loads(out.read_text()))
        assert params.mode is Mode.CEA
        assert (params.n, params.t, params.ell, params.w) == (12, 4, 6, 12)
        assert dem == DemProfile()

    def test_out_file_keeps_dem_profile(self, tmp_path):
        # a config's envelope profile must survive into the derived file,
        # or the file cannot drive he-encrypt later
        config = self.config(tmp_path, dem={"enc_len": 8, "mac_bits": 8})
        out = tmp_path / "params.json"
        assert run_cli("params", "--config", config, "--mode", "cea",
                       "--out", out) == 0
        _, dem = params_from_doc(json.loads(out.read_text()))
        assert dem == DemProfile(enc_len=8, mac_bits=8)

    def test_repeated_pxyz_cell_exits_one(self, tmp_path, capsys):
        source = {"alphabet": [2, 2, 2], "n": 3,
                  "pxyz": [[0, 0, 0, 0.5], [0, 0, 0, 0.5], [1, 1, 1, 0.5]]}
        config = self.config(tmp_path, source=source)
        err = assert_format_error(capsys, "params", "--config", config,
                                  "--mode", "cea")
        assert "pxyz rows 0 and 1 both give cell (0, 0, 0)" in err, err

    def test_baseline_mode(self, tmp_path, capsys):
        config = self.config(tmp_path)
        assert run_cli("params", "--config", config, "--mode",
                       "baseline") == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "feasible" in out

    def test_cca_derivation(self, tmp_path, capsys):
        config = self.config(
            tmp_path, source={"bsc": {"p": "0", "q": "1/2", "n": 16}},
            eps=0.5, delta=0.25, q_d=1, t=8)
        assert run_cli("params", "--config", config, "--mode", "cca") == 0
        out = capsys.readouterr().out
        assert "feasible" in out and "forge<=" in out

    def test_eps_out_of_range(self, tmp_path):
        config = self.config(tmp_path, eps=1.5, delta=0.25, q_d=1)
        doc = json.loads(config.read_text())
        del doc["nu"]
        write_json(config, doc)
        assert run_cli("params", "--config", config, "--mode", "cca") == 1

    def test_infeasible_exits_two(self, tmp_path, capsys):
        # sigma 2^-5 eats the whole budget: no key length >= 1 remains
        config = self.config(tmp_path, sigma=0.03125)
        assert run_cli("params", "--config", config, "--mode", "cea") == 2
        assert "infeasible" in capsys.readouterr().out

    def test_missing_threshold(self, tmp_path):
        config = self.config(tmp_path)
        doc = json.loads(config.read_text())
        del doc["t"]
        write_json(config, doc)
        assert run_cli("params", "--config", config, "--mode", "cea") == 1


class TestMaterialsPipeline:
    def test_sample_writes_roles(self, tmp_path, capsys):
        params = cea_params_file(tmp_path)
        outdir = tmp_path / "mat"
        assert run_cli("sample", "--config", params, "--seed", "1f",
                       "--out-dir", outdir) == 0
        for name in ("x.json", "y.json", "z.json", "public.json"):
            assert (outdir / name).exists()
        xdoc = json.loads((outdir / "x.json").read_text())
        assert xdoc["role"] == "x" and len(xdoc["symbols"]) == 12
        assert len(capsys.readouterr().out.splitlines()) == 4

    def test_sample_reproducible(self, tmp_path):
        params = cea_params_file(tmp_path)
        a = sampled_materials(tmp_path / "a", params, seed="2b")
        b = sampled_materials(tmp_path / "b", params, seed="2b")
        c = sampled_materials(tmp_path / "c", params, seed="2c")
        for name in ("x.json", "y.json", "z.json", "public.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        same = [(a / n).read_text() == (c / n).read_text()
                for n in ("x.json", "z.json", "public.json")]
        assert not all(same)

    def test_parameter_file_wider_than_any_field(self, tmp_path, capsys):
        doc = params_to_doc(noiseless_params())
        doc.update(n=10000, w=10000)
        doc["source"]["bsc"]["n"] = 10000
        params = write_json(tmp_path / "params.json", doc)
        assert run_cli("sample", "--config", params, "--seed", "1",
                       "--out-dir", tmp_path / "mat") == 2
        assert capsys.readouterr().err == (
            "infeasible: n = 10000 exceeds the widest supported field "
            "(8192 bits)\n")
        assert not (tmp_path / "mat").exists()

    def test_encap_decap_round_trip(self, tmp_path):
        params = cea_params_file(tmp_path)
        mat = sampled_materials(tmp_path, params)
        ct = tmp_path / "ct.bin"
        key1 = tmp_path / "key1.json"
        assert run_cli("encap", "--config", params, "--x", mat / "x.json",
                       "--public", mat / "public.json", "--seed", "05",
                       "--out", ct, "--key-out", key1) == 0
        key2 = tmp_path / "key2.json"
        assert run_cli("decap", "--config", params, "--y", mat / "y.json",
                       "--public", mat / "public.json",
                       "--ciphertext", ct, "--out", key2) == 0
        assert json.loads(key1.read_text()) == json.loads(key2.read_text())
        assert json.loads(key1.read_text())["ell"] == 6

    def test_decap_prints_key_by_default(self, tmp_path, capsys):
        params = cea_params_file(tmp_path)
        mat = sampled_materials(tmp_path, params)
        ct = tmp_path / "ct.bin"
        run_cli("encap", "--config", params, "--x", mat / "x.json",
                "--public", mat / "public.json", "--seed", "05",
                "--out", ct, "--key-out", tmp_path / "key.json")
        capsys.readouterr()
        assert run_cli("decap", "--config", params, "--y", mat / "y.json",
                       "--public", mat / "public.json",
                       "--ciphertext", ct) == 0
        hexkey = json.loads((tmp_path / "key.json").read_text())["key"]
        assert hexkey in capsys.readouterr().out

    def test_encap_needs_public_seed(self, tmp_path):
        params = cea_params_file(tmp_path)
        mat = sampled_materials(tmp_path, params)
        rc = run_cli("encap", "--config", params, "--x", mat / "x.json",
                     "--seed", "05", "--out", tmp_path / "ct.bin",
                     "--key-out", tmp_path / "key.json")
        assert rc == 1

    def test_public_rejected_outside_shared_seed_mode(self, tmp_path):
        base = write_json(
            tmp_path / "base.json",
            params_to_doc(noiseless_params(mode=Mode.BASELINE, w=18)))
        cea = cea_params_file(tmp_path, name="cea.json")
        mat = sampled_materials(tmp_path, cea)
        rc = run_cli("encap", "--config", base, "--x", mat / "x.json",
                     "--public", mat / "public.json", "--seed", "05",
                     "--out", tmp_path / "ct.bin",
                     "--key-out", tmp_path / "key.json")
        assert rc == 1

    def test_role_mismatch(self, tmp_path):
        params = cea_params_file(tmp_path)
        mat = sampled_materials(tmp_path, params)
        rc = run_cli("encap", "--config", params, "--x", mat / "y.json",
                     "--public", mat / "public.json", "--seed", "05",
                     "--out", tmp_path / "ct.bin",
                     "--key-out", tmp_path / "key.json")
        assert rc == 1

    def test_symbols_outside_alphabet(self, tmp_path):
        params = cea_params_file(tmp_path)
        mat = sampled_materials(tmp_path, params)
        write_json(mat / "x.json", {"role": "x", "n": 12,
                                    "symbols": "999999999999"})
        rc = run_cli("encap", "--config", params, "--x", mat / "x.json",
                     "--public", mat / "public.json", "--seed", "05",
                     "--out", tmp_path / "ct.bin",
                     "--key-out", tmp_path / "key.json")
        assert rc == 1

    def test_decap_header_mismatch(self, tmp_path):
        params = cea_params_file(tmp_path)
        other = cea_params_file(tmp_path, name="other.json", t=5)
        mat = sampled_materials(tmp_path, params)
        ct = tmp_path / "ct.bin"
        run_cli("encap", "--config", params, "--x", mat / "x.json",
                "--public", mat / "public.json", "--seed", "05",
                "--out", ct, "--key-out", tmp_path / "key.json")
        rc = run_cli("decap", "--config", other, "--y", mat / "y.json",
                     "--public", mat / "public.json", "--ciphertext", ct)
        assert rc == 1

    def test_decap_tampered_value_rejects(self, tmp_path, capsys):
        params = cea_params_file(tmp_path)
        mat = sampled_materials(tmp_path, params)
        ct = tmp_path / "ct.bin"
        run_cli("encap", "--config", params, "--x", mat / "x.json",
                "--public", mat / "public.json", "--seed", "05",
                "--out", ct, "--key-out", tmp_path / "key.json")
        raw = bytearray(ct.read_bytes())
        raw[12] ^= 0x0F  # the low nibble of byte 12 holds the hash value
        ct.write_bytes(bytes(raw))
        capsys.readouterr()
        rc = run_cli("decap", "--config", params, "--y", mat / "y.json",
                     "--public", mat / "public.json", "--ciphertext", ct)
        assert rc == 3
        assert "rejected" in capsys.readouterr().err


class TestHybrid:
    @pytest.fixture
    def setup(self, tmp_path):
        params = envelope_params_file(tmp_path)
        mat = sampled_materials(tmp_path, params)
        message = tmp_path / "message.bin"
        message.write_bytes(bytes(range(256)) * 5)
        return params, mat, message

    def encrypt(self, tmp_path, params, mat, message, seed="0c"):
        tmp_path.mkdir(parents=True, exist_ok=True)
        env = tmp_path / "envelope.bin"
        rc = run_cli("he-encrypt", "--config", params, "--x",
                     mat / "x.json", "--seed", seed, "--in", message,
                     "--out", env)
        assert rc == 0
        return env

    def test_round_trip(self, tmp_path, setup):
        params, mat, message = setup
        env = self.encrypt(tmp_path, params, mat, message)
        out = tmp_path / "out.bin"
        assert run_cli("he-decrypt", "--config", params, "--y",
                       mat / "y.json", "--in", env, "--out", out) == 0
        assert out.read_bytes() == message.read_bytes()

    def test_seed_pins_envelope_bytes(self, tmp_path, setup):
        params, mat, message = setup
        env1 = self.encrypt(tmp_path / "1", params, mat, message, seed="3d")
        env2 = self.encrypt(tmp_path / "2", params, mat, message, seed="3d")
        env3 = self.encrypt(tmp_path / "3", params, mat, message, seed="3e")
        assert env1.read_bytes() == env2.read_bytes()
        assert env1.read_bytes() != env3.read_bytes()

    def test_truncated_envelope_is_format_error(self, tmp_path, setup):
        params, mat, message = setup
        env = self.encrypt(tmp_path, params, mat, message)
        for cut in (5, 25):
            short = tmp_path / f"short{cut}.bin"
            short.write_bytes(env.read_bytes()[:cut])
            rc = run_cli("he-decrypt", "--config", params, "--y",
                         mat / "y.json", "--in", short,
                         "--out", tmp_path / "out.bin")
            assert rc == 1

    def test_bad_magic_is_format_error(self, tmp_path, setup):
        params, mat, message = setup
        env = self.encrypt(tmp_path, params, mat, message)
        raw = bytearray(env.read_bytes())
        raw[0] ^= 0xFF
        env.write_bytes(bytes(raw))
        rc = run_cli("he-decrypt", "--config", params, "--y",
                     mat / "y.json", "--in", env,
                     "--out", tmp_path / "out.bin")
        assert rc == 1

    @pytest.mark.parametrize("offset,mask", [
        (9, 0x80),    # c1 header magic
        (21, 0x10),   # a genuine bit of the c1 hash value
        (21, 0x80),   # a c1 padding bit (strict parse rejects)
        (-1, 0x80),   # the DEM tag
    ])
    def test_payload_damage_rejects(self, tmp_path, setup, offset, mask):
        params, mat, message = setup
        env = self.encrypt(tmp_path, params, mat, message)
        raw = bytearray(env.read_bytes())
        raw[offset] ^= mask
        env.write_bytes(bytes(raw))
        rc = run_cli("he-decrypt", "--config", params, "--y",
                     mat / "y.json", "--in", env,
                     "--out", tmp_path / "out.bin")
        assert rc == 3

    def test_unknown_envelope_version_is_format_error(self, tmp_path, setup,
                                                      capsys):
        params, mat, message = setup
        env = self.encrypt(tmp_path, params, mat, message)
        raw = bytearray(env.read_bytes())
        raw[4] = 2
        env.write_bytes(bytes(raw))
        assert_format_error(capsys, "he-decrypt", "--config", params, "--y",
                            mat / "y.json", "--in", env,
                            "--out", tmp_path / "out.bin")

    def test_c1_header_of_another_mode_rejects(self, tmp_path, setup):
        # a well-formed shared-seed c1 with the scheme's n, t and w
        params, mat, message = setup
        env = self.encrypt(tmp_path, params, mat, message)
        raw = env.read_bytes()
        c2 = raw[9 + int.from_bytes(raw[5:9], "big"):]
        c1 = serialize_ciphertext(noiseless_params(n=96, t=45, ell=40),
                                  IkemCiphertext(0, 0, None))
        assert parse_ciphertext(c1)[:4] == (Mode.CEA, 96, 45, 96)
        env.write_bytes(raw[:5] + len(c1).to_bytes(4, "big") + c1 + c2)
        rc = run_cli("he-decrypt", "--config", params, "--y",
                     mat / "y.json", "--in", env,
                     "--out", tmp_path / "out.bin")
        assert rc == 3

    def test_shared_seed_mode_round_trip(self, tmp_path):
        params = write_json(
            tmp_path / "params.json",
            params_to_doc(noiseless_params(n=14, t=4, ell=8, w=14),
                          DemProfile(enc_len=8, mac_bits=8)))
        mat = sampled_materials(tmp_path, params)
        message = tmp_path / "message.bin"
        message.write_bytes(b"over the shared seed")
        env = tmp_path / "envelope.bin"
        assert run_cli("he-encrypt", "--config", params, "--x",
                       mat / "x.json", "--public", mat / "public.json",
                       "--seed", "0c", "--in", message, "--out", env) == 0
        out = tmp_path / "out.bin"
        assert run_cli("he-decrypt", "--config", params, "--y",
                       mat / "y.json", "--public", mat / "public.json",
                       "--in", env, "--out", out) == 0
        assert out.read_bytes() == message.read_bytes()


class TestCombine:
    @pytest.fixture
    def setup(self, tmp_path):
        params = cea_params_file(tmp_path)
        mat = sampled_materials(tmp_path, params)
        return params, mat

    def combine(self, tmp_path, params, mat, *extra):
        ct = tmp_path / "combined.bin"
        key = tmp_path / "key.json"
        rc = run_cli("combine", "--config", params, "--x", mat / "x.json",
                     "--y", mat / "y.json", "--public", mat / "public.json",
                     "--seed", "07", "--out", ct, "--key-out", key, *extra)
        return rc, ct, key

    def test_xor_round_trip(self, tmp_path, setup):
        params, mat = setup
        rc, ct, key = self.combine(tmp_path, params, mat)
        assert rc == 0
        parsed = parse_combined(ct.read_bytes())
        assert parsed.c1 and parsed.c2
        assert json.loads(key.read_text())["ell"] == 6

    def test_broken_second_component_still_works(self, tmp_path, setup):
        params, mat = setup
        rc, _, key = self.combine(tmp_path, params, mat, "--broken-second")
        assert rc == 0
        assert json.loads(key.read_text())["ell"] == 6

    def test_ptx_core(self, tmp_path):
        # the default second component serializes to 32 bytes, whose
        # length-framed encoding needs the 527-bit field; the first key
        # supplies q_d + 2 = 2 coefficients of that width
        params = cea_params_file(tmp_path, n=1054, t=6, ell=1054, w=1054)
        mat = sampled_materials(tmp_path, params)
        rc, _, key = self.combine(tmp_path, params, mat, "--core", "ptx",
                                  "--bits", "128")
        assert rc == 0
        assert json.loads(key.read_text())["ell"] == 128

    def test_ptx_field_too_narrow(self, tmp_path, setup):
        # ell = 6 splits into two GF(2^3) coefficients, but that field
        # cannot absorb the second ciphertext
        params, mat = setup
        rc, _, _ = self.combine(tmp_path, params, mat, "--core", "ptx")
        assert rc == 1

    def test_ptx_key_must_split(self, tmp_path):
        params = cea_params_file(tmp_path, ell=5)
        mat = sampled_materials(tmp_path, params)
        rc, _, _ = self.combine(tmp_path, params, mat, "--core", "ptx")
        assert rc == 1

    def test_xor_core_takes_no_bits(self, tmp_path, setup, capsys):
        params, mat = setup
        rc, ct, _ = self.combine(tmp_path, params, mat, "--bits", "128")
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: --bits applies only to the ptx core\n"
        assert not ct.exists()


class TestGame:
    def calibration_config(self, tmp_path):
        return write_json(tmp_path / "games.json", {"games": [
            {"game": "pkind", "atk": "cea", "adversary": "random",
             "params": toy_params_doc()},
            {"game": "dem", "atk": "ot", "adversary": "contrast",
             "profile": {"enc_len": 16, "mac_bits": 8}},
            {"game": "pri", "atk": "pri", "adversary": "random", "q_e": 2,
             "family": {"kind": "it", "key_bits": 9, "q_d": 1,
                        "out_bits": 3}},
        ]})

    def test_calibration_suite_passes(self, tmp_path, capsys):
        config = self.calibration_config(tmp_path)
        rc = run_cli("game", "--config", config, "--seed", "2a",
                     "--trials", 400)
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        for line in lines:
            doc = json.loads(line)
            assert list(doc) == ["game", "atk", "estimate", "halfwidth",
                                 "bound", "n_trials"]
            assert doc["n_trials"] == 400

    def test_broken_dem_stub_exceeds_bound(self, tmp_path, capsys):
        config = write_json(tmp_path / "game.json", {
            "game": "dem", "atk": "otcca", "adversary": "contrast",
            "stub": "identity", "q_d": 1,
            "profile": {"enc_len": 16, "mac_bits": 8}})
        rc = run_cli("game", "--config", config, "--seed", "2a",
                     "--trials", 50)
        assert rc == 4
        doc = json.loads(capsys.readouterr().out.splitlines()[0])
        assert doc["estimate"] == 1.0
        assert doc["bound"] is not None

    def test_seed_pins_report(self, tmp_path, capsys):
        config = self.calibration_config(tmp_path)
        out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
        assert run_cli("game", "--config", config, "--seed", "2a",
                       "--trials", 100, "--out", out1) == 0
        first = capsys.readouterr().out
        assert run_cli("game", "--config", config, "--seed", "2a",
                       "--trials", 100, "--out", out2) == 0
        assert capsys.readouterr().out == first
        assert out1.read_bytes() == out2.read_bytes()

    def test_single_game_object(self, tmp_path, capsys):
        config = write_json(tmp_path / "game.json", {
            "game": "pkind", "atk": "cea", "adversary": "random",
            "trials": 64, "params": toy_params_doc()})
        assert run_cli("game", "--config", config, "--seed", "2a") == 0
        doc = json.loads(capsys.readouterr().out.splitlines()[0])
        assert doc["n_trials"] == 64

    def test_forgery_game_runs(self, tmp_path, capsys):
        config = write_json(tmp_path / "game.json", {
            "game": "kint", "adversary": "random", "q_e": 1, "q_d": 1,
            "params": toy_params_doc(mode=Mode.CCA, r=2, q_e=1, q_d=1)})
        assert run_cli("game", "--config", config, "--seed", "2a",
                       "--trials", 100) == 0
        doc = json.loads(capsys.readouterr().out.splitlines()[0])
        assert doc["game"] == "kint" and doc["bound"] is not None

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_flag_must_be_positive(self, tmp_path, capsys, trials):
        # 0 is a count like any other, not "use each entry's own"
        config = write_json(tmp_path / "game.json", SWEPT_GAMES["pri"])
        assert run_cli("game", "--config", config, "--seed", "2a",
                       "--trials", trials) == 1
        assert "trials must be positive" in capsys.readouterr().err

    def test_unknown_game_kind(self, tmp_path):
        config = write_json(tmp_path / "game.json", {"game": "poker"})
        assert run_cli("game", "--config", config, "--trials", 10) == 1

    def test_unknown_adversary(self, tmp_path):
        config = write_json(tmp_path / "game.json", {
            "game": "pkind", "atk": "cea", "adversary": "psychic",
            "params": toy_params_doc()})
        assert run_cli("game", "--config", config, "--trials", 10) == 1

    @pytest.mark.parametrize("kind", ["dem", "kint", "pkind", "pri"])
    def test_default_adversary(self, tmp_path, capsys, kind):
        # without "adversary" each kind runs the first it names: random,
        # or contrast for dem, its only one (the identity stub would exit 4)
        entry = dict(SWEPT_GAMES[kind])
        entry.pop("stub", None)
        named = write_json(tmp_path / "named.json", entry)
        assert run_cli("game", "--config", named, "--seed", "2a") == 0
        first = capsys.readouterr().out
        del entry["adversary"]
        bare = write_json(tmp_path / "bare.json", entry)
        assert run_cli("game", "--config", bare, "--seed", "2a") == 0
        assert capsys.readouterr().out == first


    @pytest.mark.parametrize("kind, adversary", [
        ("pkind", "bayes"), ("pkind", "bayes-probe"), ("kint", "brute"),
        ("kint", "brute-query")])
    def test_posterior_ceiling_exits_two(self, tmp_path, capsys, kind,
                                         adversary):
        # the toy BSC(1/4, 1/4) has 4^n posterior pairs: 2^12 run, 2^14 not
        for n, rc in ((6, 0), (7, 2)):
            source = bsc_source(Fraction(1, 4), Fraction(1, 4), n)
            params = IkemParams(mode=Mode.CCA, source=source, n=n, t=2,
                                ell=1, nu=1.7, r=2, w=n, sigma=0.25, q_e=1,
                                q_d=1)
            config = write_json(tmp_path / "game.json", {
                "game": kind, "atk": "cca", "adversary": adversary,
                "q_e": 1, "q_d": 1, "params": params_to_doc(params)})
            assert run_cli("game", "--config", config, "--seed", "2a",
                           "--trials", 2) == rc
            out, err = capsys.readouterr()
            if rc:
                assert (out, err) == ("", "infeasible: posterior support "
                                          "exceeds the pair ceiling\n")


def assert_format_error(capsys, *args) -> str:
    """The command exits 1 with a one-line message and no traceback; the
    message is returned."""
    assert run_cli(*args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


class TestConfigFields:
    """Ill-typed or missing numbers in any config block are format errors."""

    def params_config(self, tmp_path, **over):
        doc = {"source": NOISELESS, "sigma": 0.25, "q_e": 0, "t": 4,
               "nu": 0.0}
        doc.update(over)
        return write_json(tmp_path / "config.json", doc)

    @pytest.mark.parametrize("key", ["sigma", "q_e", "q_d", "nu", "ell",
                                     "eps", "t"])
    def test_params_scalar_not_a_number(self, tmp_path, capsys, key):
        config = self.params_config(tmp_path, **{key: "abc"})
        assert_format_error(capsys, "params", "--config", config,
                            "--mode", "cea")

    @pytest.mark.parametrize("key", ["delta", "t"])
    def test_params_cca_scalar_not_a_number(self, tmp_path, capsys, key):
        fields = dict(source={"bsc": {"p": "0", "q": "1/2", "n": 16}},
                      eps=0.5, delta=0.25, q_d=1, t=8)
        fields[key] = "abc"
        config = self.params_config(tmp_path, **fields)
        assert_format_error(capsys, "params", "--config", config,
                            "--mode", "cca")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", math.nan,
                                       math.inf],
                             ids=["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_params_nu_not_finite(self, tmp_path, capsys, value):
        # json.dumps writes math.nan and math.inf as the literals NaN and
        # Infinity, which json.loads reads back as floats
        config = self.params_config(tmp_path, nu=value)
        out = tmp_path / "p.json"
        err = assert_format_error(capsys, "params", "--config", config,
                                  "--mode", "cea", "--out", out)
        assert "field 'nu' must be a number" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", [8.5, True, [8], None])
    def test_params_integer_field_kinds(self, tmp_path, capsys, value):
        config = self.params_config(tmp_path, t=value)
        assert_format_error(capsys, "params", "--config", config,
                            "--mode", "cea")

    @pytest.mark.parametrize("dem", [
        {"enc_len": 8, "mac_bits": "x"},
        {"enc_len": 8},
        {"enc_len": 8, "mac_bits": 1 << 20},
        "256/128",
    ])
    def test_params_dem_profile(self, tmp_path, capsys, dem):
        config = self.params_config(tmp_path, dem=dem)
        assert_format_error(capsys, "params", "--config", config,
                            "--mode", "cea", "--out", tmp_path / "p.json")
        assert not (tmp_path / "p.json").exists()

    def test_parameter_file_dem_profile(self, tmp_path, capsys):
        doc = json.loads(envelope_params_file(tmp_path).read_text())
        doc["dem"]["mac_bits"] = "x"
        params = write_json(tmp_path / "bad.json", doc)
        message = tmp_path / "message.bin"
        message.write_bytes(b"hello")
        assert_format_error(capsys, "he-encrypt", "--config", params,
                            "--x", tmp_path / "x.json", "--in", message,
                            "--out", tmp_path / "env.bin")

    @pytest.mark.parametrize("mode", [Mode.CEA, Mode.BASELINE],
                             ids=["cea", "baseline"])
    def test_parameter_file_r_outside_authenticated_mode(self, tmp_path,
                                                         capsys, mode):
        doc = toy_params_doc(mode=mode, w=5 if mode is Mode.BASELINE else 4)
        doc["r"] = 7
        params = write_json(tmp_path / "bad.json", doc)
        err = assert_format_error(capsys, "sample", "--config", params,
                                  "--out-dir", tmp_path / "mat")
        assert "r = 0" in err, err

    def test_parameter_file_scalar(self, tmp_path, capsys):
        doc = json.loads(cea_params_file(tmp_path).read_text())
        doc["n"] = "twelve"
        params = write_json(tmp_path / "bad.json", doc)
        assert_format_error(capsys, "sample", "--config", params,
                            "--out-dir", tmp_path / "mat")

    def test_game_dem_profile(self, tmp_path, capsys):
        config = write_json(tmp_path / "game.json", {
            "game": "dem", "atk": "ot", "adversary": "contrast",
            "profile": {"mac_bits": 8}})
        assert_format_error(capsys, "game", "--config", config,
                            "--trials", 10)

    @pytest.mark.parametrize("field, value", [("trials", "x"),
                                              ("q_e", "many")])
    def test_game_scalar(self, tmp_path, capsys, field, value):
        config = write_json(tmp_path / "game.json", {
            "game": "pkind", "atk": "cea", "adversary": "random",
            "params": toy_params_doc(), field: value})
        assert_format_error(capsys, "game", "--config", config)


JSON_VALUES = [None, True, 3, 2.5, "x", [1], {"a": 1}]
JSON_IDS = ["null", "bool", "int", "float", "string", "list", "object"]


def sweep_fields(doc):
    return [(field, value) for field in doc for value in JSON_VALUES]


def sweep_ids(doc):
    return [f"{field}-{kind}" for field in doc for kind in JSON_IDS]


SWEPT_PARAMS = {**toy_params_doc(), "eps": 0.5, "delta": 0.5,
                "dem": {"enc_len": 8, "mac_bits": 8}}
SWEPT_GAMES = {
    "pkind": {"game": "pkind", "atk": "cea", "adversary": "random",
              "trials": 4, "q_e": 1, "q_d": 0, "leak": False,
              "target": "0110", "params": toy_params_doc()},
    "kint": {"game": "kint", "adversary": "random", "trials": 4, "q_e": 1,
             "q_d": 1, "target": "0110",
             "params": toy_params_doc(mode=Mode.CCA, r=2, q_e=1, q_d=1)},
    "dem": {"game": "dem", "atk": "ot", "adversary": "contrast",
            "trials": 4, "q_e": 0, "q_d": 0, "stub": "identity",
            "profile": {"enc_len": 16, "mac_bits": 8}},
    "pri": {"game": "pri", "atk": "pri", "adversary": "random", "trials": 4,
            "q_e": 2, "q_d": 0, "bound": 0.5,
            "family": {"kind": "it", "key_bits": 9, "q_d": 1,
                       "out_bits": 3}},
}


# nested source fields, as paths of keys and indices into a source document
SOURCE_PATHS = {"bsc.p": ("bsc", "p"), "bsc.q": ("bsc", "q"),
                "bsc.n": ("bsc", "n"), "alphabet": ("alphabet",),
                "n": ("n",), "pxyz-row": ("pxyz", 0),
                "pxyz-prob": ("pxyz", 0, 3)}


def source_with(path, value):
    """A source document with the field at path set to value."""
    if path[0] == "bsc":
        doc = {"bsc": {"p": "1/20", "q": "1/2", "n": 24}}
    else:
        doc = {"alphabet": [2, 2, 2], "n": 4,
               "pxyz": [[0, 0, 0, "1"], [1, 1, 1, "0"]]}
    *head, last = path
    node = doc
    for key in head:
        node = node[key]
    node[last] = value
    return doc


def params_config_for(source):
    return {"source": source, "sigma": 0.25, "q_e": 0, "t": 4, "nu": 0.0}


class TestJsonTypeSweep:
    """Each field of a parameter file, of every game entry and of the
    material files, replaced by each JSON type: main() answers with a
    documented exit code and at most one line on stderr, never a
    traceback."""

    def assert_answers(self, capsys, *args):
        rc = run_cli(*args)
        err = capsys.readouterr().err
        assert rc in range(5)
        assert err.count("\n") <= 1, err

    @pytest.mark.parametrize("field, value", sweep_fields(SWEPT_PARAMS),
                             ids=sweep_ids(SWEPT_PARAMS))
    def test_parameter_file(self, tmp_path, capsys, field, value):
        params = write_json(tmp_path / "params.json",
                            {**SWEPT_PARAMS, field: value})
        self.assert_answers(capsys, "sample", "--config", params, "--seed",
                            "01", "--out-dir", tmp_path / "mat")

    @pytest.mark.parametrize("kind, field, value", [
        (kind, field, value) for kind, entry in SWEPT_GAMES.items()
        for field, value in sweep_fields(entry)], ids=[
        f"{kind}-{i}" for kind, entry in SWEPT_GAMES.items()
        for i in sweep_ids(entry)])
    def test_game_entry(self, tmp_path, capsys, kind, field, value):
        config = write_json(tmp_path / "game.json",
                            {"games": [{**SWEPT_GAMES[kind], field: value}]})
        self.assert_answers(capsys, "game", "--config", config, "--seed",
                            "2a")

    @pytest.mark.parametrize("path, value", [
        (path, value) for path in SOURCE_PATHS.values()
        for value in JSON_VALUES], ids=[
        f"{name}-{kind}" for name in SOURCE_PATHS for kind in JSON_IDS])
    def test_source_field(self, tmp_path, capsys, path, value):
        config = write_json(tmp_path / "config.json",
                            params_config_for(source_with(path, value)))
        self.assert_answers(capsys, "params", "--config", config, "--mode",
                            "cea")

    @pytest.mark.parametrize("path, value", [
        (("bsc", "p"), True), (("bsc", "p"), False),
        (("bsc", "q"), True), (("bsc", "q"), False),
        (("pxyz", 0, 3), True), (("pxyz", 1, 3), False)], ids=[
        "bsc.p-true", "bsc.p-false", "bsc.q-true", "bsc.q-false",
        "pxyz-prob-true", "pxyz-prob-false"])
    def test_boolean_probability_is_format_error(self, tmp_path, capsys,
                                                 path, value):
        # read as 1 or 0, each of these would be a valid source
        config = write_json(tmp_path / "config.json",
                            params_config_for(source_with(path, value)))
        assert_format_error(capsys, "params", "--config", config, "--mode",
                            "cea")

    @pytest.mark.parametrize("role", ["x", "public"])
    @pytest.mark.parametrize("value", JSON_VALUES + [[0, 1, 1, 0]],
                             ids=JSON_IDS + ["list-of-n"])
    def test_material_file(self, tmp_path, capsys, role, value):
        params = write_json(tmp_path / "params.json", SWEPT_PARAMS)
        mat = sampled_materials(tmp_path, params)
        doc = json.loads((mat / f"{role}.json").read_text())
        for field in doc:
            write_json(mat / f"{role}.json", {**doc, field: value})
            self.assert_answers(
                capsys, "encap", "--config", params, "--x", mat / "x.json",
                "--public", mat / "public.json", "--seed", "01",
                "--out", tmp_path / "ct.bin",
                "--key-out", tmp_path / "key.json")


# each reader takes ASCII hex digits only, one per symbol; the forms below
# keep the text's length, so only the digit rule can refuse them
HEX_FORMS = {
    "arabic-indic": lambda s: s.translate(
        {ord("0") + i: 0x660 + i for i in range(10)}),
    "0x-prefix": lambda s: "0x" + s[2:],
    "underscore": lambda s: s[:1] + "_" + s[2:],
    "plus-sign": lambda s: "+" + s[1:],
    "whitespace": lambda s: " " + s[1:-1] + "\n",
}


class TestAsciiHexOnly:
    """The x file's symbols, the public seed, a game's target and --seed
    are refused, exit 1 with one line, unless every character is an ASCII
    hex digit."""

    def encap(self, tmp_path, params, mat):
        return ("encap", "--config", params, "--x", mat / "x.json",
                "--public", mat / "public.json", "--seed", "05",
                "--out", tmp_path / "ct.bin",
                "--key-out", tmp_path / "key.json")

    @pytest.mark.parametrize("form", HEX_FORMS)
    def test_material_symbols(self, tmp_path, capsys, form):
        params = cea_params_file(tmp_path)
        mat = sampled_materials(tmp_path, params)
        write_json(mat / "x.json", {"role": "x", "n": 12,
                                    "symbols": "011001011001"})
        assert run_cli(*self.encap(tmp_path, params, mat)) == 0
        write_json(mat / "x.json", {"role": "x", "n": 12,
                                    "symbols": HEX_FORMS[form]("011001011001")})
        assert_format_error(capsys, *self.encap(tmp_path, params, mat))

    @pytest.mark.parametrize("form", HEX_FORMS)
    def test_public_seed(self, tmp_path, capsys, form):
        params = cea_params_file(tmp_path)
        mat = sampled_materials(tmp_path, params)
        write_json(mat / "public.json", {"role": "public", "n": 12,
                                         "seed": "0123"})
        assert run_cli(*self.encap(tmp_path, params, mat)) == 0
        write_json(mat / "public.json", {"role": "public", "n": 12,
                                         "seed": HEX_FORMS[form]("0123")})
        assert_format_error(capsys, *self.encap(tmp_path, params, mat))

    @pytest.mark.parametrize("form", HEX_FORMS)
    def test_game_target(self, tmp_path, capsys, form):
        entry = SWEPT_GAMES["pkind"]
        config = write_json(tmp_path / "game.json", entry)
        assert run_cli("game", "--config", config, "--seed", "2a") != 1
        capsys.readouterr()
        write_json(config, {**entry, "target": HEX_FORMS[form]("0110")})
        assert_format_error(capsys, "game", "--config", config, "--seed", "2a")

    @pytest.mark.parametrize("form", HEX_FORMS)
    def test_seed_option(self, tmp_path, capsys, form):
        params = cea_params_file(tmp_path)
        config = write_json(tmp_path / "game.json", SWEPT_GAMES["pkind"])
        seed = HEX_FORMS[form]("c0ffee")
        assert_format_error(capsys, "sample", "--config", params, "--seed",
                            seed, "--out-dir", tmp_path / "mat")
        assert_format_error(capsys, "game", "--config", config, "--seed",
                            seed)


class TestGameEntryTypes:
    """A game entry's leak is a JSON boolean and its target a JSON string;
    any other type exits 1 with one line rather than being coerced."""

    def check(self, tmp_path, capsys, entry, field, good, bad):
        config = write_json(tmp_path / "game.json", {**entry, field: good})
        assert run_cli("game", "--config", config, "--seed", "2a") != 1
        capsys.readouterr()
        write_json(config, {**entry, field: bad})
        assert_format_error(capsys, "game", "--config", config, "--seed", "2a")

    @pytest.mark.parametrize("value", ["false", "true", 1, 0, [False]])
    def test_leak_is_a_boolean(self, tmp_path, capsys, value):
        # the calibration fixture reads x through the leak, so a string
        # "false" read as true would let it run and exit 0
        entry = {**SWEPT_GAMES["pkind"], "atk": "ot", "adversary": "cheat"}
        self.check(tmp_path, capsys, entry, "leak", True, value)

    @pytest.mark.parametrize("value", [1010, 110, 1001.0, [0, 1, 1, 0]])
    def test_target_is_a_string(self, tmp_path, capsys, value):
        self.check(tmp_path, capsys, SWEPT_GAMES["pkind"], "target",
                   "1010", value)

    @pytest.mark.parametrize("key_bits, q_d", [
        (10 ** 12, 1), (2 ** 20, 0), (-2, 1), (0, 1), (9, -1), (9, -2)])
    def test_prf_key_must_split_into_field_elements(self, tmp_path, capsys,
                                                    key_bits, q_d):
        # 10**12 bits used to overflow random.getrandbits, escaping main()
        family = {**SWEPT_GAMES["pri"]["family"], "key_bits": key_bits,
                  "q_d": q_d}
        config = write_json(tmp_path / "game.json",
                            {**SWEPT_GAMES["pri"], "family": family})
        err = assert_format_error(capsys, "game", "--config", config,
                                  "--seed", "2a")
        assert "coefficients of a supported field" in err, err


class TestSourceMessages:
    """A malformed source block exits 1 with one line that names the
    field, never a Python exception's repr."""

    @pytest.mark.parametrize("source, field", [
        ({"bsc": {"q": "1/2", "n": 8}}, "'p'"),
        ({"alphabet": [2, 2], "n": 4, "pxyz": [[0, 0, 0, 1]]}, "'alphabet'"),
        ({"alphabet": [2, 2, 2], "n": 4, "pxyz": [[0, 0, 0]]}, "pxyz"),
        ({"alphabet": [2, 2, 2], "n": "x", "pxyz": [[0, 0, 0, 1]]}, "'n'"),
        ({"alphabet": "222", "n": 4, "pxyz": [[0, 0, 0, 1]]}, "'alphabet'"),
    ], ids=["missing-p", "two-entry-alphabet", "three-entry-row",
            "n-not-integer", "alphabet-not-list"])
    def test_names_the_field(self, tmp_path, capsys, source, field):
        config = write_json(tmp_path / "config.json",
                            params_config_for(source))
        err = assert_format_error(capsys, "params", "--config", config,
                                  "--mode", "cea")
        assert field in err, err
        assert not re.search(r"\b\w+(Error|Exception)\(", err), err


# the README's authenticated profile: noiseless BSC, n=1080, t=527
README_CCA = {"source": {"bsc": {"p": "0", "q": "1/2", "n": 1080}},
              "sigma": 2.0 ** -20, "q_e": 0, "q_d": 1, "eps": 0.01,
              "delta": 2.0 ** -10, "nu": 0.0, "t": 527}
SMALL_CEA = {"sigma": 0.25, "q_e": 0, "t": 4, "nu": 0.0}
NOISY_CEA = {"source": NOISY, "sigma": 0.25, "q_e": 0, "t": 14, "nu": 12}
# P(y != x) = 1/20 with Eve independent, as an explicit table
NOISY_TABLE_40 = {"alphabet": [2, 2, 2], "n": 40, "pxyz": [
    [x, y, z, "19/80" if x == y else "1/80"]
    for x in (0, 1) for y in (0, 1) for z in (0, 1)]}


class TestParamsVerdict:
    """params answers every config with its documented exit code and a
    verdict that encap/decap can honour."""

    @pytest.mark.parametrize("config, mode, code, want", [
        # forgery term at 2^-1080 guessing mass: no overflow, no underflow
        (README_CCA, "cca", 0, ["ell 512", "forge<= 0.000610352"]),
        # GF(2^10000) is beyond the widest field encap can build
        ({**SMALL_CEA, "source": {"bsc": {"p": "0", "q": "1/2",
                                          "n": 10000}}},
         "cea", 2, ["verdict infeasible: n = 10000 exceeds the widest "
                    "supported field (8192 bits)"]),
        ({**SMALL_CEA, "source": {"bsc": {"p": "0", "q": "1/2",
                                          "n": "abc"}}}, "cea", 1, []),
        ({**SMALL_CEA, "source": {"bsc": {"p": "zz", "q": "1/2",
                                          "n": 12}}}, "cea", 1, []),
        ({**SMALL_CEA, "source": {"alphabet": [2, 2, 2], "n": 3, "pxyz": [
            [0, 0, 0, "zz"], [1, 1, 1, "1/2"]]}}, "cea", 1, []),
        ({**SMALL_CEA, "source": {"alphabet": [2, 2, 2], "n": 20, "pxyz": [
            [0, 0, 0, [0.5]], [1, 1, 1, 0.5]]}}, "cea", 1, []),
        # radius 7 at n=100: C(100, <=7) strings, far over the default cap
        ({**NOISY_CEA, "source": {"bsc": {"p": "1/20", "q": "1/2",
                                          "n": 100}}, "nu": 40}, "cea", 2, [
            "verdict infeasible: reconciliation set of 17278988696 strings "
            "exceeds cap 1048576"]),
        ({**SMALL_CEA, "source": {"bsc": {"p": "0", "q": "1/2",
                                          "n": 12.7}}}, "cea", 1, []),
        # ranges checked before a derivation takes their logarithms
        ({**SMALL_CEA, "source": NOISELESS, "sigma": 0}, "cea", 1, []),
        ({**SMALL_CEA, "source": NOISELESS, "q_e": -1}, "cea", 1, []),
        ({**README_CCA, "delta": 0}, "cca", 1, []),
        # a table of 2 * 2 * 10^10 cells is refused before it is allocated
        ({**SMALL_CEA, "source": {"alphabet": [2, 2, 1e10], "n": 3,
                                  "pxyz": [[0, 0, 0, 1]]}}, "cea", 1, []),
        # the same channel as NOISY written as a table: radius 6 at n=40
        ({**NOISY_CEA, "source": NOISY_TABLE_40, "nu": 30}, "cea", 2, [
            "verdict infeasible: reconciliation set of 4598479 strings "
            "exceeds cap 1048576"]),
    ], ids=["cca-n1080", "n-over-max-width", "bsc-n-not-int",
            "exact-p-not-number", "table-prob-not-number",
            "float-table-prob-not-number", "recon-over-default-cap",
            "bsc-n-fractional", "sigma-zero", "q_e-negative",
            "delta-zero", "alphabet-over-max",
            "table-recon-over-default-cap"])
    def test_exit_code_and_verdict(self, tmp_path, capsys, config, mode,
                                   code, want):
        path = write_json(tmp_path / "config.json", config)
        assert run_cli("params", "--config", path, "--mode", mode) == code
        captured = capsys.readouterr()
        lines = [" ".join(line.split()) for line in captured.out.splitlines()]
        for line in want:
            assert line in lines, captured.out
        if code == 1:
            err = captured.err
            assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_general_table_matches_bsc_quickly(self, tmp_path, capsys):
        # the correctness bound of a general table sums count classes, not
        # 4^n string pairs; the same channel as bsc prints the same lines
        out = {}
        for name, source in (("table", {**NOISY_TABLE_40, "n": 8}),
                             ("bsc", {"bsc": {"p": "1/20", "q": "1/2",
                                              "n": 8}})):
            path = write_json(tmp_path / f"{name}.json",
                              {**NOISY_CEA, "source": source, "t": 4,
                               "nu": 3})
            start = time.perf_counter()
            assert run_cli("params", "--config", path, "--mode", "cea") == 0
            out[name] = (time.perf_counter() - start,
                         capsys.readouterr().out)
        assert out["table"][1] == out["bsc"][1]
        assert "fail<=" in out["table"][1]
        assert out["table"][0] < 0.1, out["table"][0]

    @pytest.mark.parametrize("n", [4, 8])
    def test_non_binary_table_exits_one_at_any_n(self, tmp_path, capsys, n):
        # at n = 8 the forgery bound's guessing-mass enumeration once ran
        # first and answered "infeasible" (exit 2)
        ternary_x = {"alphabet": [3, 2, 2], "n": n, "pxyz": [
            [x, y, z, "1/12"] for x in range(3) for y in (0, 1)
            for z in (0, 1)]}
        path = write_json(tmp_path / "config.json", {
            "source": ternary_x, "sigma": 0.25, "q_e": 0, "q_d": 1,
            "eps": 0.01, "delta": 2.0 ** -10, "nu": 1.0, "t": 2})
        assert run_cli("params", "--config", path, "--mode", "cca") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "error: encapsulation needs binary x and y alphabets\n"


class TestSubprocess:
    def test_module_entry_point(self, tmp_path):
        config = write_json(tmp_path / "config.json", {
            "source": NOISELESS, "sigma": 0.25, "q_e": 0, "t": 4,
            "nu": 0.0})
        proc = subprocess.run(
            [sys.executable, "-m", "prekem.cli", "params", "--config",
             str(config), "--mode", "cea"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "feasible" in proc.stdout

    def test_commands_import_only_their_layers(self, tmp_path):
        # each command is a fresh process, so what it imports is start-up
        # time: the key pipeline needs neither games nor OpenSSL (hashlib
        # loads it too), only an exact analysis, which no command runs,
        # loads numpy, and no command loads dataclasses or inspect
        params = write_json(
            tmp_path / "params.json",
            params_to_doc(noiseless_params(n=14, t=4, ell=8, w=14),
                          DemProfile(enc_len=8, mac_bits=8)))
        (tmp_path / "message.bin").write_bytes(b"hello")
        game = write_json(tmp_path / "game.json", {
            "game": "pkind", "atk": "cea", "params": toy_params_doc()})
        t = str(tmp_path)
        mat = ("--x", f"{t}/x.json", "--public", f"{t}/public.json")
        commands = [
            ["params", "--config", str(write_json(
                tmp_path / "config.json",
                {**SMALL_CEA, "source": NOISELESS})), "--mode", "cea"],
            ["sample", "--config", str(params), "--seed", "a1",
             "--out-dir", t],
            ["encap", "--config", str(params), *mat, "--seed", "b2",
             "--out", f"{t}/ct.bin", "--key-out", f"{t}/key.json"],
            ["decap", "--config", str(params), "--y", f"{t}/y.json",
             "--public", f"{t}/public.json", "--ciphertext", f"{t}/ct.bin"],
            ["he-encrypt", "--config", str(params), *mat, "--seed", "c3",
             "--in", f"{t}/message.bin", "--out", f"{t}/env.bin"],
            ["game", "--config", str(game), "--seed", "1", "--trials", "5"],
        ]
        script = (
            "import json, sys\n"
            "from prekem.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    code = main(argv)\n"
            "    heavy = [m for m in ('numpy', 'prekem.games', 'cryptography',\n"
            "                         'hashlib', 'dataclasses', 'inspect')\n"
            "             if m in sys.modules]\n"
            "    print(json.dumps([argv[0], code, heavy]), file=sys.stderr)\n")
        src = str(Path(prekem.__file__).resolve().parents[1])
        path = [src, os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(commands)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        got = [json.loads(line) for line in proc.stderr.splitlines()]
        assert got == [
            ["params", 0, []],
            ["sample", 0, []],
            ["encap", 0, []],
            ["decap", 0, []],
            ["he-encrypt", 0, ["cryptography", "hashlib"]],
            ["game", 0, ["prekem.games", "cryptography", "hashlib"]],
        ]
