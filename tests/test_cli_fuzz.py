"""Hypothesis fuzz of the command line.

Mutated configs, parameter files, material files, ciphertext and envelope
bytes and game configs go through main(argv) in-process.  Every answer
must be one of the documented exit codes 0-4 with at most one line on
stderr, and that line must show no Python exception's repr; any
exception escaping main() fails the test.  Mutated numbers stay at or
below 128, or jump past every width limit: a width off the polynomial
table up to 128 finds its polynomial by Ben-Or's search in a fraction of
a second, so the search does not dominate the run.  The reconciliation
cap is lowered for the fuzz, so a mutation that widens nu on a noisy
source meets the cap after a few hundred members rather than a million.

Valid configs, drawn over BSC and small general sources in every mode,
with and without a DEM profile and eps, must also run: whenever params
writes a file, every command that file drives exits as documented.
"""

import copy
import io
import itertools
import json
import math
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prekem import source
from prekem.cli import main, params_to_doc
from prekem.dem import DemProfile
from prekem.ikem import IkemParams, Mode
from prekem.source import bsc_source

EXIT_CODES = range(5)
EXCEPTION_REPR = re.compile(r"\b\w+(Error|Exception)\(")
FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 128),
    st.floats(-2, 128) | st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from([8193, 10 ** 12, 1e300]),
    # no decimal digits: int() would read them as a width
    st.text(st.characters(exclude_categories=["Nd"]), max_size=6),
    st.sampled_from(["0", "1/2", "1/20", "3/4", "-1/3", "64", "8193",
                     "1e400", "cea", "cca", "baseline", "ptx", "x", "y",
                     "public", "identity", "it", "comp", "brute", "bayes"]))
json_values = st.recursive(
    leaves, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6)


@st.composite
def mutated(draw, doc):
    """doc with one to three of its fields, at any depth, replaced by an
    arbitrary JSON value or deleted."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while True:
            keys = list(node) if isinstance(node, dict) else \
                list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(
                    st.booleans()):
                node = child
                continue
            if draw(st.booleans()):
                del node[key]
            else:
                node[key] = draw(json_values)
            break
    return doc


@st.composite
def mutated_bytes(draw, blob):
    """blob with a few bytes flipped, a cut, an insertion, or replaced."""
    kind = draw(st.sampled_from(["flip", "cut", "insert", "replace"]))
    if kind == "replace" or not blob:
        return draw(st.binary(max_size=64))
    at = draw(st.integers(0, len(blob) - 1))
    if kind == "flip":
        mask = draw(st.integers(1, 255))
        return blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1:]
    if kind == "cut":
        return blob[:at]
    return blob[:at] + draw(st.binary(min_size=1, max_size=8)) + blob[at:]


def _noiseless(mode, n, t, ell, **over):
    fields = dict(mode=mode, source=bsc_source(Fraction(0), Fraction(1, 2), n),
                  n=n, t=t, ell=ell, nu=0.0, r=0, w=n, sigma=0.25, q_e=0,
                  q_d=0)
    fields.update(over)
    return IkemParams(**fields)


# shared-seed and authenticated instances whose keys fit a small DEM
# (ot needs enc_len key bits, otcca enc_len + 2 * mac_bits)
DEM = DemProfile(enc_len=8, mac_bits=8)
PARAMS = {
    "cea": params_to_doc(_noiseless(Mode.CEA, 12, 4, 8), DEM),
    "cca": params_to_doc(_noiseless(Mode.CCA, 40, 12, 24, r=2, q_d=1), DEM),
}
CONFIGS = [
    {"source": {"bsc": {"p": "0", "q": "1/2", "n": 12}}, "sigma": 0.25,
     "q_e": 0, "t": 4, "nu": 0.0},
    {"source": {"bsc": {"p": "1/20", "q": "1/2", "n": 24}}, "sigma": 0.25,
     "q_e": 0, "q_d": 1, "t": 6, "nu": 4, "eps": 0.5, "delta": 0.5},
    {"source": {"alphabet": [2, 2, 2], "n": 6, "pxyz": [
        [0, 0, 0, "19/80"], [0, 0, 1, "19/80"], [0, 1, 0, "1/80"],
        [0, 1, 1, "1/80"], [1, 1, 0, "19/80"], [1, 1, 1, "19/80"],
        [1, 0, 0, "1/80"], [1, 0, 1, "1/80"]]},
     "sigma": 0.25, "q_e": 0, "t": 3, "nu": 3.0, "dem": {"enc_len": 8,
                                                          "mac_bits": 8}},
]
GAMES = [
    {"game": "pkind", "atk": "cea", "adversary": "bayes",
     "params": params_to_doc(IkemParams(
         mode=Mode.CEA, source=bsc_source(Fraction(1, 4), Fraction(1, 4), 4),
         n=4, t=2, ell=1, nu=1.7, r=0, w=4, sigma=0.25, q_e=0, q_d=0))},
    {"game": "kint", "adversary": "brute", "q_e": 1, "q_d": 1,
     "params": params_to_doc(IkemParams(
         mode=Mode.CCA, source=bsc_source(Fraction(1, 4), Fraction(1, 4), 4),
         n=4, t=2, ell=1, nu=1.7, r=2, w=4, sigma=0.25, q_e=1, q_d=1))},
    {"game": "dem", "atk": "otcca", "adversary": "contrast", "q_d": 1,
     "profile": {"enc_len": 8, "mac_bits": 8}},
    {"game": "pri", "family": {"kind": "it", "key_bits": 40, "q_d": 1,
                               "out_bits": 8}, "q_e": 2},
]


def _write(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc))
    return path


def _call(*args) -> int:
    """main(args) under the fuzz cap: a documented exit code, and at most
    one line on stderr that shows no Python exception's repr."""
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stderr(err):
        mp.setattr(source, "RECON_CAP", 1 << 8)
        code = main([str(a) for a in args])
    assert code in EXIT_CODES
    assert err.getvalue().count("\n") <= 1, err.getvalue()
    assert not EXCEPTION_REPR.search(err.getvalue()), err.getvalue()
    return code


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """Per mode: a parameter file and, from it, sampled materials, a
    ciphertext and an envelope over a short message."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "message.bin").write_bytes(b"fuzzed message")
    out = {}
    for mode, doc in PARAMS.items():
        d = root / mode
        params = _write(d.with_suffix(".json"), doc)
        assert main(["sample", "--config", str(params), "--seed", "5",
                     "--out-dir", str(d)]) == 0
        pub = ["--public", d / "public.json"] if mode == "cea" else []
        assert _call("encap", "--config", params, "--x", d / "x.json",
                     *pub, "--seed", "6", "--out", d / "c.bin",
                     "--key-out", d / "k.json") == 0
        assert _call("he-encrypt", "--config", params, "--x", d / "x.json",
                     *pub, "--seed", "7", "--in", root / "message.bin",
                     "--out", d / "env.bin") == 0
        out[mode] = (params, d, pub)
    return root, out


def _commands(root, params, d, pub, core, bits):
    """Every key-pipeline command over the given files."""
    bits_arg = [] if bits is None else ["--bits", bits]
    return {
        "sample": ["sample", "--config", params, "--seed", "1",
                   "--out-dir", root / "drawn"],
        "encap": ["encap", "--config", params, "--x", d / "x.json", *pub,
                  "--seed", "2", "--out", root / "c.bin",
                  "--key-out", root / "k.json"],
        "decap": ["decap", "--config", params, "--y", d / "y.json", *pub,
                  "--ciphertext", d / "c.bin"],
        "he-encrypt": ["he-encrypt", "--config", params, "--x", d / "x.json",
                       *pub, "--seed", "3", "--in", d.parent / "message.bin",
                       "--out", root / "env.bin"],
        "he-decrypt": ["he-decrypt", "--config", params, "--y", d / "y.json",
                       *pub, "--in", d / "env.bin", "--out", root / "m.bin"],
        "combine": ["combine", "--config", params, "--x", d / "x.json",
                    "--y", d / "y.json", *pub, "--seed", "4", "--core", core,
                    *bits_arg, "--out", root / "comb.bin",
                    "--key-out", root / "ck.json"],
    }


COMMANDS = ("sample", "encap", "decap", "he-encrypt", "he-decrypt",
            "combine")
cores = st.sampled_from(["xor", "ptx"])
bits = st.one_of(st.none(), st.integers(-1, 128))


@FUZZ
@given(config=st.sampled_from(CONFIGS).flatmap(mutated),
       mode=st.sampled_from(["cea", "cca", "baseline"]))
def test_params_config(base, config, mode):
    root, _ = base
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        path = _write(Path(tmp) / "config.json", config)
        _call("params", "--config", path, "--mode", mode,
              "--out", Path(tmp) / "params.json")


@FUZZ
@given(mode=st.sampled_from(sorted(PARAMS)), data=st.data(),
       command=st.sampled_from(COMMANDS), core=cores, bits=bits)
def test_parameter_file(base, mode, data, command, core, bits):
    root, files = base
    _, d, pub = files[mode]
    doc = data.draw(mutated(PARAMS[mode]))
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        params = _write(Path(tmp) / "params.json", doc)
        _call(*_commands(Path(tmp), params, d, pub, core, bits)[command])


@FUZZ
@given(mode=st.sampled_from(sorted(PARAMS)), data=st.data(),
       role=st.sampled_from(["x", "y", "public"]),
       command=st.sampled_from(COMMANDS[1:]), core=cores, bits=bits)
def test_material_file(base, mode, data, role, command, core, bits):
    root, files = base
    params, d, pub = files[mode]
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        tmp = Path(tmp)
        for name in ("x", "y", "public"):
            original = d / f"{name}.json"
            if original.exists():
                doc = json.loads(original.read_text())
                if name == role:
                    doc = data.draw(mutated(doc))
                _write(tmp / f"{name}.json", doc)
        if role == "public" and mode == "cca":
            # a public seed handed to a mode that publishes none
            _write(tmp / "public.json", data.draw(json_values))
            pub = ["--public", tmp / "public.json"]
        elif pub:
            pub = ["--public", tmp / "public.json"]
        for name in ("c.bin", "env.bin"):
            (tmp / name).write_bytes((d / name).read_bytes())
        _call(*_commands(tmp, params, tmp, pub, core, bits)[command])


@FUZZ
@given(mode=st.sampled_from(sorted(PARAMS)), data=st.data(),
       which=st.sampled_from(["c.bin", "env.bin"]))
def test_wire_bytes(base, mode, data, which):
    root, files = base
    params, d, pub = files[mode]
    blob = data.draw(mutated_bytes((d / which).read_bytes()))
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        tmp = Path(tmp)
        path = tmp / which
        path.write_bytes(blob)
        if which == "c.bin":
            _call("decap", "--config", params, "--y", d / "y.json", *pub,
                  "--ciphertext", path)
        else:
            _call("he-decrypt", "--config", params, "--y", d / "y.json",
                  *pub, "--in", path, "--out", tmp / "m.bin")


@FUZZ
@given(entry=st.sampled_from(GAMES).flatmap(mutated),
       trials=st.integers(1, 3))
def test_game_config(base, entry, trials):
    root, _ = base
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        path = _write(Path(tmp) / "game.json", entry)
        _call("game", "--config", path, "--seed", "9", "--trials", trials)


# valid configs: sources whose y is close to x, so that params
# often finds a key
bsc_docs = st.builds(
    lambda p, q, n: {"bsc": {"p": p, "q": q, "n": n}},
    st.sampled_from(["1/50", "0", "1/20"]), st.sampled_from(["1/2", "1/4"]),
    st.integers(24, 96))


@st.composite
def table_docs(draw):
    """A binary-x, binary-y table with one or two z symbols, y equal to x
    but for a drawn share of the mass."""
    nz = draw(st.integers(1, 2))
    pxyz = []
    for x, y, z in itertools.product(range(2), range(2), range(nz)):
        weight = draw(st.integers(1, 8) if x == y else st.integers(0, 1))
        if weight:
            pxyz.append([x, y, z, weight])
    total = sum(cell[3] for cell in pxyz)
    return {"alphabet": [2, 2, nz], "n": draw(st.integers(10, 24)),
            "pxyz": [[x, y, z, f"{w}/{total}"] for x, y, z, w in pxyz]}


@st.composite
def valid_configs(draw):
    """(mode, config) within every field's range; params may still find
    it infeasible."""
    mode = draw(st.sampled_from(["cea", "cca", "baseline"]))
    config = {"source": draw(bsc_docs | table_docs()),
              "sigma": draw(st.sampled_from([0.25, 0.5])),
              "q_e": draw(st.integers(0, 1))}
    n = (config["source"]["bsc"] if "bsc" in config["source"]
         else config["source"])["n"]
    eps = draw(st.none() | st.sampled_from([0.05, 0.25, 0.5]))
    if mode == "cca":
        eps = eps or 0.25
        config.update(q_d=draw(st.integers(0, 1)), delta=0.5)
    if eps is not None:
        config["eps"] = eps
    config["t"] = draw(st.integers(1, n // 4))
    if eps is None or draw(st.booleans()):
        config["nu"] = draw(st.sampled_from([0.0, 1.0, 2.5, 4.0]))
    if draw(st.booleans()):
        config["dem"] = {"enc_len": 8, "mac_bits": 8}
    return mode, config


# decaps per config for the reject rate, and the rate's slack over fail<=:
# a Hoeffding radius at 10^-6, so only a gross miss fails
DECAP_SEEDS = 12
REJECT_SLACK = math.sqrt(math.log(1e6) / (2 * DECAP_SEEDS))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=valid_configs(), core=cores)
def test_feasible_configs_run(base, case, core):
    # sample and encap exit 0; decap and he-decrypt 0 or 3, and combine
    # too, as it decapsulates on y; he-encrypt 0; without a DEM profile
    # he-encrypt and he-decrypt exit 1.  combine --core ptx may also exit
    # 1: its PRF key, the KEM key, must split into q_d + 2 coefficients
    # wide enough for the framed input, which params does not derive
    mode, config = case
    root, _ = base
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        tmp = Path(tmp)
        out = io.StringIO()
        with redirect_stdout(out):
            code = _call("params", "--config", _write(tmp / "config.json",
                                                      config),
                         "--mode", mode, "--out", tmp / "params.json")
        if code:
            return
        params = tmp / "params.json"
        with_dem = "dem" in config
        want = {"encap": {0}, "decap": {0, 3},
                "he-encrypt": {0} if with_dem else {1},
                "he-decrypt": {0, 3} if with_dem else {1},
                "combine": {0, 1, 3} if core == "ptx" else {0, 3}}
        (tmp / "message.bin").write_bytes(b"a feasible config runs")
        rejects = 0
        for seed in range(DECAP_SEEDS):
            d = tmp / f"s{seed}"
            assert _call("sample", "--config", params, "--seed",
                         f"{seed + 1:x}", "--out-dir", d) == 0
            pub = ["--public", d / "public.json"] if mode == "cea" else []
            commands = _commands(d, params, d, pub, core, None)
            for name, codes in want.items():
                code = _call(*commands[name])
                assert code in codes, (name, code)
                rejects += name == "decap" and code == 3
        fail = re.search(r"^fail<=\s+(\S+)$", out.getvalue(), re.M)
        if "eps" in config and fail:
            assert rejects / DECAP_SEEDS <= float(fail[1]) + REJECT_SLACK
